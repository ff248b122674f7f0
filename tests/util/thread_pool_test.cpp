#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sssp::util {
namespace {

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_chunk(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t total = 0;
  bool off_caller = false;
  pool.for_each_chunk(10, [&](std::size_t, std::size_t thread_id) {
    if (thread_id != 0 || std::this_thread::get_id() != caller)
      off_caller = true;
    ++total;
  });
  EXPECT_EQ(total, 10u);
  EXPECT_FALSE(off_caller);
}

// A for_each_chunk that finds another thread's batch holding the pool
// runs every chunk on the caller as thread 0 instead of waiting. Thread
// A's batch blocks on a latch until B's call has returned, so B can
// only finish by running inline. (The bounded wait only ends a broken
// pool's test: B would block on A's batch forever.)
TEST(ThreadPool, BusyPoolRunsChunksInline) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 16;
  std::latch a_running(1);
  std::latch release_a(1);
  std::vector<std::atomic<int>> a_visits(kChunks);
  std::thread a([&] {
    pool.for_each_chunk(kChunks, [&](std::size_t chunk, std::size_t) {
      if (chunk == 0) a_running.count_down();
      release_a.wait();
      a_visits[chunk].fetch_add(1);
    });
  });
  a_running.wait();

  std::vector<int> b_visits(kChunks, 0);
  bool off_caller = false;
  std::promise<void> b_done;
  std::thread b([&] {
    const std::thread::id caller = std::this_thread::get_id();
    pool.for_each_chunk(kChunks, [&](std::size_t chunk, std::size_t tid) {
      if (tid != 0 || std::this_thread::get_id() != caller) off_caller = true;
      ++b_visits[chunk];
    });
    b_done.set_value();
  });
  const bool b_finished_first =
      b_done.get_future().wait_for(std::chrono::seconds(60)) ==
      std::future_status::ready;
  release_a.count_down();
  a.join();
  b.join();

  EXPECT_TRUE(b_finished_first) << "B waited for A's batch";
  EXPECT_FALSE(off_caller);
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(b_visits[c], 1) << c;
    EXPECT_EQ(a_visits[c].load(), 1) << c;
  }
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.for_each_chunk(97,
                        [&](std::size_t, std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 97);
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  std::atomic<int> count{0};
  for_each_chunk(5, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ForEachChunkCoversEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  pool.for_each_chunk(touched.size(), [&](std::size_t chunk, std::size_t) {
    touched[chunk].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ForEachChunkReportsValidThreadIds) {
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  pool.for_each_chunk(500, [&](std::size_t, std::size_t thread_id) {
    if (thread_id >= pool.size()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ForEachChunkPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(64,
                                   [](std::size_t chunk, std::size_t) {
                                     if (chunk == 63)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.for_each_chunk(8, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, RunOnAllVisitsEveryThreadOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> visits(pool.size());
  pool.run_on_all([&](std::size_t thread_id) {
    visits[thread_id].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsResizesThePool) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  ThreadPool::set_global_threads(5);
  EXPECT_EQ(ThreadPool::global().size(), 5u);
  // Matching size is a no-op (same pool object keeps working).
  ThreadPool* before = &ThreadPool::global();
  ThreadPool::set_global_threads(5);
  EXPECT_EQ(before, &ThreadPool::global());
  std::atomic<int> count{0};
  for_each_chunk(11, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 11);
  ThreadPool::set_global_threads(0);  // restore env/hardware default
}

}  // namespace
}  // namespace sssp::util
