// Fixed-size thread pool. It has two users:
//   - each net::Cluster (net/cluster.h) executes RPC handler invocations
//     on its own one, the way a gRPC server's completion queues would:
//     sends after a delay, fastest-q pulls, call()s, tcp arrivals, and
//     helpers that join a collect() draining its own sends. Pool threads
//     only ever run handler compute: simulated link delay lives in the
//     Cluster's TimerWheel (net/timer_wheel.h), so the pool can be sized
//     to hardware concurrency instead of over-provisioned to hide sleeps;
//   - tensor::parallel_for (tensor/parallel.h) keeps one process-wide
//     instance whose threads help callers run their coordinate shards.
//
// Locking discipline (compile-checked under the clang-analyze preset):
// `mutex_` guards the task queue and the stop flag; workers hold it only
// while dequeuing, never while running a task.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  /// Calls shutdown().
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; never blocks. Returns false once shutdown has begun,
  /// leaving `task` untouched so the caller can still run or resolve it —
  /// the Cluster counts these as dropped_tasks and resolves the RPC
  /// callback so quorum accounting cannot hang; the TimerWheel runs the
  /// refused task inline.
  [[nodiscard]] bool submit(std::function<void()>&& task)
      GARFIELD_EXCLUDES(mutex_);

  /// Refuse new tasks, run every queued one (a running task may still
  /// submit; it is refused), and join the workers. Idempotent; call it
  /// from outside the pool.
  void shutdown() GARFIELD_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() GARFIELD_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GARFIELD_GUARDED_BY(mutex_);
  bool stop_ GARFIELD_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace garfield::util
