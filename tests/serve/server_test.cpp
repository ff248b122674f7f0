#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "res/budget.hpp"
#include "serve/socket.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"
#include "verify/flight_recorder.hpp"

namespace sssp::serve {
namespace {

using algo::testing::random_graph;
using algo::testing::ring;

// Collects responses from any thread and lets the test block until a
// count arrives (queries resolve on worker threads).
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Response> responses;

  Server::ResponseSink sink() {
    return [this](const Response& r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(r);
      cv.notify_all();
    };
  }

  bool wait_for(std::size_t n, int timeout_ms = 20000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return responses.size() >= n; });
  }

  std::size_t count(Status status) {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<std::size_t>(
        std::count_if(responses.begin(), responses.end(),
                      [&](const Response& r) { return r.status == status; }));
  }

  Response first(Status status) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Response& r : responses)
      if (r.status == status) return r;
    ADD_FAILURE() << "no response with status " << to_string(status);
    return {};
  }
};

std::string query(const std::string& id, graph::VertexId source,
                  const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"source\":" + std::to_string(source) +
         extra + "}";
}

TEST(ServerTest, OkQueryIsCertifiedAndCached) {
  const auto g = random_graph(512, 4.0, 100, 1);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("a", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  const Response first = c.responses[0];
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_TRUE(first.verified);
  EXPECT_TRUE(first.certified);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.reached, 0u);
  EXPECT_NE(first.dist_checksum, 0u);

  server.submit(query("b", 0), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  const Response second = c.responses[1];
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.certified);  // integrity-checked against the insert
  EXPECT_EQ(second.dist_checksum, first.dist_checksum);
  server.drain();
}

TEST(ServerTest, TargetsComeBackExact) {
  const auto g = ring(16);  // dist(k) = k from source 0
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("t", 0, ",\"targets\":[3,7]"), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  const Response r = c.responses[0];
  ASSERT_EQ(r.status, Status::kOk);
  ASSERT_EQ(r.targets.size(), 2u);
  EXPECT_EQ(r.targets[0].vertex, 3u);
  EXPECT_EQ(r.targets[0].distance, 3u);
  EXPECT_EQ(r.targets[1].distance, 7u);
  server.drain();
}

TEST(ServerTest, InvalidRequestRejectedInline) {
  const auto g = ring(16);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit("definitely not json", c.sink());
  server.submit(query("oob", 99), c.sink());  // source out of range
  // Inline responses need no wait.
  ASSERT_EQ(c.responses.size(), 2u);
  EXPECT_EQ(c.responses[0].status, Status::kInvalid);
  EXPECT_EQ(c.responses[1].status, Status::kInvalid);
  EXPECT_EQ(server.stats().invalid, 2u);
  server.drain();
}

TEST(ServerTest, InfoServedInline) {
  const auto g = ring(16);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(R"({"id":"i","cmd":"info"})", c.sink());
  ASSERT_EQ(c.responses.size(), 1u);
  const Response& r = c.responses[0];
  EXPECT_TRUE(r.has_info);
  EXPECT_EQ(r.num_vertices, 16u);
  EXPECT_EQ(r.graph_fingerprint, server.graph_fingerprint());
  EXPECT_FALSE(r.draining);
  server.drain();
}

TEST(ServerTest, OverloadShedsWithStructuredResponses) {
  const auto g = random_graph(4096, 8.0, 100, 2);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(g, options);
  server.start();
  Collector c;
  const std::size_t kFlood = 20;
  for (std::size_t i = 0; i < kFlood; ++i)
    server.submit(query("f" + std::to_string(i),
                        static_cast<graph::VertexId>(i)),
                  c.sink());
  // Exactly one response per submit — shed or executed, never dropped.
  ASSERT_TRUE(c.wait_for(kFlood));
  EXPECT_EQ(c.responses.size(), kFlood);
  EXPECT_GE(c.count(Status::kOverloaded), 1u);
  EXPECT_GE(c.count(Status::kOk), 1u);
  const Response shed = c.first(Status::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_FALSE(shed.error.empty());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, kFlood);
  EXPECT_GE(stats.shed_queue_full, 1u);
  server.drain();
  EXPECT_EQ(server.stats().queue_depth, 0u);
  EXPECT_EQ(server.stats().in_flight, 0u);
}

TEST(ServerTest, DropOldestDisplacesQueuedQuery) {
  const auto g = random_graph(4096, 8.0, 100, 2);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.shed_policy = ShedPolicy::kDropOldest;
  Server server(g, options);
  server.start();
  Collector c;
  for (std::size_t i = 0; i < 10; ++i)
    server.submit(query("d" + std::to_string(i),
                        static_cast<graph::VertexId>(i)),
                  c.sink());
  ASSERT_TRUE(c.wait_for(10));
  EXPECT_GE(c.count(Status::kOverloaded), 1u);
  server.drain();
}

TEST(ServerTest, ExpiredInQueueIsShedBeforeExecution) {
  const auto g = random_graph(2048, 4.0, 100, 3);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  server.start();
  Collector c;
  // A long query occupies the single worker, then a micro-deadline
  // query waits behind it and must expire in the queue.
  server.submit(query("long", 0), c.sink());
  server.submit(query("tiny", 1, ",\"deadline_ms\":0.001"), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  std::size_t expired = c.count(Status::kExpired);
  EXPECT_EQ(expired, 1u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_expired_queue + stats.expired_running, 1u);
  server.drain();
}

TEST(ServerTest, HandlerCrashCostsOneErrorNotAWorker) {
  const auto g = ring(64);
  ServerOptions options;
  options.workers = 1;
  Server server(g, options);
  server.start();
  Collector c;
  fault::FailpointRegistry::global().arm("serve.handler.crash");
  server.submit(query("boom", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  fault::FailpointRegistry::global().disarm_all();
  EXPECT_EQ(c.responses[0].status, Status::kError);
  EXPECT_EQ(server.stats().handler_errors, 1u);
  // The worker and its queue slot survived: the next query executes.
  server.submit(query("after", 0), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_EQ(c.responses[1].status, Status::kOk);
  EXPECT_TRUE(c.responses[1].certified);
  server.drain();
  EXPECT_EQ(server.stats().in_flight, 0u);
}

TEST(ServerTest, PoisonedCacheEntryCaughtQuarantinedRecomputed) {
  const auto g = ring(128);
  Server server(g, {});
  server.start();
  Collector c;
  // Fresh result certifies and enters the cache poisoned (the stored
  // copy is bit-flipped; the response was computed pre-insert).
  fault::FailpointRegistry::global().arm("serve.cache.flip");
  server.submit(query("seed", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  fault::FailpointRegistry::global().disarm_all();
  EXPECT_EQ(c.responses[0].status, Status::kOk);
  EXPECT_TRUE(c.responses[0].certified);

  // The cache hit serves the poisoned copy: the read-side integrity
  // check must catch it, respond `error`, and quarantine the entry.
  server.submit(query("hit", 0), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_EQ(c.responses[1].status, Status::kError);
  EXPECT_NE(c.responses[1].error.find("certification"), std::string::npos);
  EXPECT_EQ(server.stats().cache_poisoned, 1u);
  EXPECT_EQ(server.stats().cache.invalidations, 1u);

  // Quarantined: the next query recomputes and certifies clean.
  server.submit(query("clean", 0), c.sink());
  ASSERT_TRUE(c.wait_for(3));
  EXPECT_EQ(c.responses[2].status, Status::kOk);
  EXPECT_FALSE(c.responses[2].cache_hit);
  EXPECT_TRUE(c.responses[2].certified);
  server.drain();
}

// Certifier runs, counted through the flight recorder's kCertify
// events since the last reset.
std::size_t certify_events() {
  std::size_t n = 0;
  for (const verify::FlightEvent& e :
       verify::FlightRecorder::global().snapshot())
    if (e.kind == verify::FlightEventKind::kCertify) ++n;
  return n;
}

// A hit on an entry that was certified at insert checks the integrity
// hash and runs no certifier. An entry inserted by a "verify": false
// query was never certified, so every hit on it runs the full
// certifier (the entry stays uncertified).
TEST(ServerTest, OnlyHitsOnUnverifiedEntriesRunTheCertifier) {
  const auto g = random_graph(256, 4.0, 100, 3);
  const bool was_enabled = verify::flight_enabled();
  verify::set_flight_enabled(true);
  verify::FlightRecorder::global().reset();
  Server server(g, {});
  server.start();
  Collector c;

  server.submit(query("certified-miss", 1), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(certify_events(), 1u);
  server.submit(query("certified-hit", 1), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_TRUE(c.responses[1].cache_hit);
  EXPECT_TRUE(c.responses[1].verified);
  EXPECT_TRUE(c.responses[1].certified);
  EXPECT_EQ(certify_events(), 1u) << "a certified hit re-ran the certifier";

  server.submit(query("unverified-miss", 2, ",\"verify\":false"), c.sink());
  ASSERT_TRUE(c.wait_for(3));
  EXPECT_EQ(c.responses[2].status, Status::kOk);
  EXPECT_FALSE(c.responses[2].verified);
  EXPECT_EQ(certify_events(), 1u);
  for (std::size_t hit = 1; hit <= 2; ++hit) {
    server.submit(query("unverified-hit", 2), c.sink());
    ASSERT_TRUE(c.wait_for(3 + hit));
    const Response& r = c.responses[2 + hit];
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_TRUE(r.cache_hit);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.certified);
    EXPECT_EQ(r.dist_checksum, c.responses[2].dist_checksum);
    EXPECT_EQ(certify_events(), 1u + hit);
  }
  server.drain();
  verify::FlightRecorder::global().reset();
  verify::set_flight_enabled(was_enabled);
}

// With at least one worker per pool thread the workers already fill the
// cores, so a query runs on its worker alone; with fewer workers its
// large frontiers fork onto the pool. Seen through the engine's
// parallel-advance counter; the answer is the same either way.
TEST(ServerTest, WorkersThatFillThePoolSolveOnTheirOwnThreads) {
  const auto g = random_graph(1 << 15, 8.0, 100, 5);
  const std::size_t threads_before = util::ThreadPool::global().size();
  util::ThreadPool::set_global_threads(2);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const obs::Counter& parallel_advances =
      obs::MetricsRegistry::global().counter("engine.advance.parallel");

  const auto serve_one = [&](std::size_t workers) {
    ServerOptions options;
    options.workers = workers;
    Server server(g, options);
    server.start();
    Collector c;
    const std::uint64_t before = parallel_advances.value();
    server.submit(query("q", 0), c.sink());
    EXPECT_TRUE(c.wait_for(1));
    server.drain();
    const Response r = c.first(Status::kOk);
    EXPECT_TRUE(r.certified);
    return std::make_pair(parallel_advances.value() - before,
                          r.dist_checksum);
  };
  const auto [forked, forked_checksum] = serve_one(1);
  const auto [alone, alone_checksum] = serve_one(2);
  EXPECT_GT(forked, 0u) << "no frontier reached the parallel threshold";
  EXPECT_EQ(alone, 0u);
  EXPECT_EQ(alone_checksum, forked_checksum);

  obs::set_metrics_enabled(was_enabled);
  util::ThreadPool::set_global_threads(threads_before);
}

TEST(ServerTest, DrainShedsEverythingAndStops) {
  const auto g = random_graph(4096, 8.0, 100, 4);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.drain_ms = 1.0;  // force the shed path
  Server server(g, options);
  server.start();
  Collector c;
  const std::size_t kSubmitted = 8;
  for (std::size_t i = 0; i < kSubmitted; ++i)
    server.submit(query("s" + std::to_string(i),
                        static_cast<graph::VertexId>(i)),
                  c.sink());
  server.drain();
  // Every admitted query resolved: ok, shed by drain, or aborted.
  ASSERT_TRUE(c.wait_for(kSubmitted));
  EXPECT_EQ(c.responses.size(), kSubmitted);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.drain_requested);
  // New submissions after drain get a structured shutting_down.
  server.submit(query("late", 0), c.sink());
  ASSERT_EQ(c.responses.size(), kSubmitted + 1);
  EXPECT_EQ(c.responses.back().status, Status::kShuttingDown);
  EXPECT_GT(c.responses.back().retry_after_ms, 0.0);
}

TEST(ServerTest, DrainIsIdempotentAndCleanWhenIdle) {
  const auto g = ring(16);
  Server server(g, {});
  server.start();
  server.drain();
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_TRUE(stats.drain_requested);
  EXPECT_TRUE(stats.drain_clean);
}

TEST(ServerTest, ReportIsValidJson) {
  const auto g = ring(64);
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("r", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  server.drain();
  std::ostringstream out;
  server.write_report(out);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::parse_json(out.str(), doc)) << out.str();
  EXPECT_EQ(doc.string_or("schema", ""), "tunesssp.serve.v1");
  const obs::JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->number_or("completed", -1), 1.0);
  ASSERT_NE(doc.find("latency_ms"), nullptr);
  ASSERT_NE(doc.find("drain"), nullptr);
}

// --sample-reports surfaces the full per-iteration arrays of the first
// N fresh solves in the final report.
TEST(ServerTest, SampleReportsSurfaceIterationArrays) {
  const auto g = random_graph(1024, 4.0, 60, 7);
  ServerOptions options;
  options.workers = 1;
  options.sample_reports = 2;
  Server server(g, options);
  Collector c;
  server.submit(query("a", 3), c.sink());
  server.submit(query("b", 9), c.sink());
  server.submit(query("c", 21), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(3));
  server.drain();

  std::ostringstream out;
  server.write_report(out);
  const std::string report = out.str();
  EXPECT_NE(report.find("\"sampled_reports\""), std::string::npos);
  EXPECT_NE(report.find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(report.find("\"x1\""), std::string::npos);
  EXPECT_NE(report.find("\"improving_relaxations\""), std::string::npos);
  // Capped at sample_reports = 2: the third query is not sampled.
  EXPECT_EQ(report.find("\"id\":\"c\""), std::string::npos);
}

// Repeat queries for one source are served by the result cache: each
// worker can miss at most once (its solve inserts the entry before it
// pops again), so every later query is a hit. Every query still gets
// exactly one ok, certified response with the same distances.
TEST(ServerTest, RepeatQueriesOnOneSourceHitTheCache) {
  const auto g = random_graph(2048, 5.0, 80, 3);
  Server server(g, {});
  const std::size_t workers = server.options().workers;
  const std::size_t kQueries =
      std::min(workers + 8, server.options().queue_capacity);
  Collector c;
  for (std::size_t i = 0; i < kQueries; ++i)
    server.submit(query("r" + std::to_string(i), 7), c.sink());
  server.start();
  ASSERT_TRUE(c.wait_for(kQueries));
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.responses, kQueries);
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_GE(stats.cache.hits + workers, kQueries);

  std::lock_guard<std::mutex> lock(c.mu);
  ASSERT_EQ(c.responses.size(), kQueries);
  std::vector<std::string> ids;
  for (const Response& r : c.responses) {
    ids.push_back(r.id);
    EXPECT_EQ(r.status, Status::kOk) << r.id << ": " << r.error;
    EXPECT_TRUE(r.certified) << r.id;
    EXPECT_NE(r.dist_checksum, 0u) << r.id;
    EXPECT_EQ(r.dist_checksum, c.responses.front().dist_checksum) << r.id;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

// --- socket transport ---------------------------------------------------

TEST(SocketTest, FrameRoundTripOverLoopback) {
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);
  std::thread echo([listen_fd] {
    const int conn = accept_conn(listen_fd);
    ASSERT_GE(conn, 0);
    std::string payload;
    while (read_frame(conn, payload)) write_frame(conn, payload);
    ::close(conn);
  });
  const int fd = connect_tcp(port);
  write_frame(fd, R"({"id":"1","source":0})");
  write_frame(fd, "");  // empty frame is legal
  std::string back;
  ASSERT_TRUE(read_frame(fd, back));
  EXPECT_EQ(back, R"({"id":"1","source":0})");
  ASSERT_TRUE(read_frame(fd, back));
  EXPECT_TRUE(back.empty());
  ::shutdown(fd, SHUT_WR);
  EXPECT_FALSE(read_frame(fd, back));  // clean EOF
  ::close(fd);
  echo.join();
  ::close(listen_fd);
}

TEST(SocketTest, TornFrameTruncatesPayloadButKeepsFraming) {
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);
  std::thread sender([listen_fd] {
    const int conn = accept_conn(listen_fd);
    ASSERT_GE(conn, 0);
    write_torn_frame(conn, "0123456789");
    write_frame(conn, "intact");
    ::close(conn);
  });
  const int fd = connect_tcp(port);
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_EQ(payload, "01234");  // half, with a matching prefix
  ASSERT_TRUE(read_frame(fd, payload));  // the stream survived
  EXPECT_EQ(payload, "intact");
  ::close(fd);
  sender.join();
  ::close(listen_fd);
}

// Memory-aware admission (docs/ROBUSTNESS.md, "Resource budgets &
// exhaustion"): with a process memory budget too small for even one
// projected query footprint, every submit sheds kOverloaded with a
// retry hint — same client contract as a full queue, but it fires
// *before* a solve could OOM.
TEST(ServerTest, MemoryBudgetShedsWithRetryHint) {
  const auto g = random_graph(512, 4.0, 100, 1);
  res::ResourceBudget::global().reset();
  res::ResourceBudget::global().set_memory_limit(1024);  // << one query
  Server server(g, {});
  server.start();
  Collector c;
  server.submit(query("m1", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  const Response shed = c.responses[0];
  EXPECT_EQ(shed.status, Status::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_NE(shed.error.find("memory"), std::string::npos) << shed.error;
  server.drain();
  EXPECT_EQ(server.stats().shed_memory, 1u);
  res::ResourceBudget::global().reset();
}

TEST(ServerTest, AdmitFailpointForcesMemoryShed) {
  const auto g = random_graph(256, 4.0, 100, 1);
  Server server(g, {});
  server.start();
  Collector c;
  // No budget limit configured: only the armed drill can shed here.
  fault::FailpointRegistry::global().arm("res.serve.admit");
  server.submit(query("f1", 0), c.sink());
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(c.responses[0].status, Status::kOverloaded);
  fault::FailpointRegistry::global().disarm_all();
  // Disarmed, the very next query goes through and certifies.
  server.submit(query("f2", 1), c.sink());
  ASSERT_TRUE(c.wait_for(2));
  EXPECT_EQ(c.responses[1].status, Status::kOk);
  server.drain();
  EXPECT_EQ(server.stats().shed_memory, 1u);
}

TEST(SocketTest, OversizedPrefixRejectedBeforeAllocation) {
  const int listen_fd = listen_tcp(0);
  const std::uint16_t port = bound_port(listen_fd);
  std::thread sender([listen_fd] {
    const int conn = accept_conn(listen_fd);
    ASSERT_GE(conn, 0);
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::write(conn, huge, 4), 4);
    ::close(conn);
  });
  const int fd = connect_tcp(port);
  std::string payload;
  EXPECT_THROW(read_frame(fd, payload), ServeError);
  ::close(fd);
  sender.join();
  ::close(listen_fd);
}

TEST(SocketTest, BindConflictThrowsServeError) {
  const int first = listen_tcp(0);
  const std::uint16_t port = bound_port(first);
  // SO_REUSEADDR does not allow two live listeners on one port.
  EXPECT_THROW(listen_tcp(port), ServeError);
  ::close(first);
}

}  // namespace
}  // namespace sssp::serve
