// A small fixed-size thread pool: one shared FIFO queue, a fixed set
// of workers, no work stealing. This is all the fleet engine needs --
// fleet work items (simulate a device window, attest one device) are
// coarse enough that a single locked queue never becomes the
// bottleneck, and FIFO keeps scheduling deterministic enough to reason
// about in tests.
//
//   common::ThreadPool pool(4);
//   pool.parallel_for(devices.size(), [&](size_t i) {
//     drive(devices[i]);
//   });
//
// parallel_for() blocks the calling thread until every index has run
// and rethrows the first exception a work item threw. On a worker pool
// the caller does not execute work items itself, so a pool of N uses
// exactly N workers; the destructor drains the queue before joining.
//
// inline_pool() is the one shared zero-worker pool: its parallel_for
// runs fn(0) .. fn(n-1) in index order on the calling thread and stops
// at the first throw. Every fleet scheduler takes a ThreadPool&
// defaulting to it, so a "serial" run executes exactly the pooled code
// path and pooled == serial holds by construction.
#ifndef EILID_COMMON_THREAD_POOL_H
#define EILID_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eilid::common {

class ThreadPool {
 public:
  // 0 workers means std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The shared inline pool (zero workers; see the header comment).
  // Stateless, so any number of threads may use it at once, and
  // reentrant: a work item may call its parallel_for again.
  static ThreadPool& inline_pool();

  size_t worker_count() const { return workers_.size(); }

  // Run fn(0) .. fn(n-1) and block until all have finished. On a worker
  // pool indices are claimed atomically, so the iteration order
  // interleaves but every index runs exactly once; if any invocation
  // throws, the remaining unclaimed indices are abandoned and the first
  // exception is rethrown here. A worker pool's parallel_for is not
  // reentrant: it must not be called from inside a task of the same
  // pool.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

 private:
  struct InlineTag {};
  explicit ThreadPool(InlineTag) {}

  // Enqueue one task; tasks run in FIFO order across the workers.
  // parallel_for is the only producer, and its tasks never throw.
  void submit(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eilid::common

#endif  // EILID_COMMON_THREAD_POOL_H
