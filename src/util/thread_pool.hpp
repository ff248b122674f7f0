// A small, dependency-free thread pool built around dynamic chunk
// claiming: workers pull chunk indices from a shared atomic counter, so
// a straggler chunk (one scale-free hub, one slow core) never serializes
// the rest of the iteration behind a static schedule.
//
// Two layers:
//
//   run_on_all(fn)        — type-erased: invoke fn(thread_id) once on
//                           every participating thread (the caller is
//                           thread 0). One std::function call per thread
//                           per batch; nothing type-erased runs in inner
//                           loops.
//   for_each_chunk(n, b)  — templated: body(chunk, thread_id) for every
//                           chunk in [0, n), claimed dynamically. The
//                           body is a template parameter, so per-chunk
//                           dispatch inlines (no std::function in the
//                           hot path).
//
// The frontier pipeline (frontier::NearFarEngine) runs its advance /
// bisect / demote phases on this pool with a count → exclusive-prefix-
// sum → write scheme whose results are independent of thread count and
// schedule; see docs/PERFORMANCE.md for the determinism argument. The
// pool itself guarantees only that every chunk runs exactly once and
// that a batch's writes happen-before run_on_all returns.
//
// The pool runs one batch at a time. When several threads share it
// (a query server with fewer workers than pool threads solves and
// certifies on the global pool), a for_each_chunk that finds another
// batch in flight runs all of its chunks on the calling thread as
// thread 0 instead of queueing behind that batch; run_on_all always
// waits its turn, because its callers expect every thread id. Nested
// calls (a body calling back into the same pool) are not supported:
// the nested for_each_chunk would try_lock a mutex its own thread
// already holds, which is undefined behaviour for std::mutex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sssp::util {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size() + 1; }

  // Runs fn(thread_id) once on every pool thread, thread ids 0 (the
  // calling thread) through size()-1. Blocks until all return; writes
  // made by the threads happen-before the return. Exceptions propagate
  // to the caller (first one wins). Serialized per pool.
  void run_on_all(const std::function<void(std::size_t)>& fn);

  // Runs body(chunk, thread_id) for every chunk in [0, num_chunks).
  // Chunks are claimed dynamically from an atomic counter, so threads
  // that finish early keep pulling work. Blocks until every chunk
  // finishes. If another thread's batch holds the pool, every chunk
  // runs inline on the caller as thread 0.
  template <typename Body>
  void for_each_chunk(std::size_t num_chunks, Body&& body) {
    if (num_chunks == 0) return;
    std::unique_lock<std::mutex> batch_lock(batch_mu_, std::defer_lock);
    if (workers_.empty() || num_chunks == 1 || !batch_lock.try_lock()) {
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) body(chunk, 0);
      return;
    }
    std::atomic<std::size_t> next{0};
    run_batch([&](std::size_t thread_id) {
      for (;;) {
        const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= num_chunks) return;
        body(chunk, thread_id);
      }
    });
  }

  // Global pool shared by the library. Sized from the SSSP_THREADS env
  // var (default hardware_concurrency) on first use, reconfigurable via
  // set_global_threads (e.g. from a --threads flag).
  static ThreadPool& global();

  // Replaces the global pool with one of `threads` threads (0 = env /
  // hardware default). Must not race with work on the pool: call at
  // startup or between runs. No-op when the size already matches.
  static void set_global_threads(std::size_t threads);

 private:
  void worker_loop(std::size_t thread_id);
  // run_on_all's body; the caller holds batch_mu_.
  void run_batch(const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;

  // Single in-flight batch: held by run_on_all for its whole batch and
  // tried (never waited on) by for_each_chunk.
  std::mutex batch_mu_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t done_workers_ = 0;
  std::exception_ptr error_;
  std::uint64_t generation_ = 0;
};

// Convenience free function over the global pool.
template <typename Body>
void for_each_chunk(std::size_t num_chunks, Body&& body) {
  ThreadPool::global().for_each_chunk(num_chunks, std::forward<Body>(body));
}

}  // namespace sssp::util
