// Event-driven delay scheduling for the simulated cluster.
//
// The old transport modeled link latency by sleeping on a pool thread,
// which forced the pool to be over-provisioned (2 threads per node) and
// made "simulated latency" and "real contention" indistinguishable in the
// throughput benches. The TimerWheel separates the two concerns: one timer
// thread holds a due-time priority queue and, when an entry matures,
// hands its task to the ThreadPool — so pool threads only ever run handler
// compute and the pool can default to hardware concurrency.
//
// Entries with identical due times fire in schedule order (a per-entry
// sequence number breaks ties), keeping delivery deterministic for
// zero-jitter configurations.
//
// Locking discipline (compile-checked under the clang-analyze preset):
// `mutex_` guards the heap, the sequence counter and the stop flag; the
// timer thread drops it before submitting a matured task to the pool.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace garfield::net {

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  /// The wheel submits matured tasks to `pool`, which must outlive the
  /// wheel's *running* phase (until stop_and_flush() returns).
  explicit TimerWheel(util::ThreadPool& pool);

  /// Calls stop_and_flush() if it has not run yet.
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Stop the timer thread, then run every pending entry INLINE on the
  /// calling thread, in due order — no scheduled dispatch is silently lost
  /// at teardown, and the pool is not touched (so the owner may tear the
  /// pool down before or after this call). After it returns,
  /// schedule_after() refuses new entries, which lets flushed tasks that
  /// try to re-arm (fault retries, deadline sweeps) observe the shutdown
  /// and resolve instead of looping. Idempotent.
  void stop_and_flush() GARFIELD_EXCLUDES(mutex_);

  /// Fire `task` on the pool once `delay` has elapsed. Returns false (task
  /// left untouched) once shutdown has begun.
  [[nodiscard]] bool schedule_after(Clock::duration delay,
                                    std::function<void()>&& task)
      GARFIELD_EXCLUDES(mutex_);

  /// Entries currently waiting to mature (diagnostics).
  [[nodiscard]] std::size_t pending() const GARFIELD_EXCLUDES(mutex_);

 private:
  struct Entry {
    Clock::time_point due;
    std::uint64_t seq = 0;  // schedule order; breaks equal-due ties
    std::function<void()> task;
  };
  /// Heap comparator: std::push_heap/pop_heap build a max-heap, so
  /// "greater due (or seq)" sorts toward the bottom — the top is the
  /// earliest entry.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  /// Pop the earliest entry. Caller holds the lock; heap must be
  /// non-empty.
  [[nodiscard]] Entry pop_locked() GARFIELD_REQUIRES(mutex_);

  void run() GARFIELD_EXCLUDES(mutex_);

  util::ThreadPool& pool_;
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  /// std::push_heap/pop_heap with Later.
  std::vector<Entry> heap_ GARFIELD_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ GARFIELD_GUARDED_BY(mutex_) = 0;
  bool stop_ GARFIELD_GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

}  // namespace garfield::net
