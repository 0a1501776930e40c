#include "tensor/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace garfield::tensor {

namespace {

std::atomic<std::size_t> g_thread_override{0};

std::size_t default_threads() {
  static const std::size_t cached = [] {
    if (const char* env = std::getenv("GARFIELD_THREADS")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v > 0 && v <= 4096) {
        return std::size_t(v);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t(1) : std::size_t(hw);
  }();
  return cached;
}

// The process-wide helper threads: one fewer than the cores, because the
// calling thread always runs shards too. Built by the first call with more
// than one shard.
util::ThreadPool& shard_pool() {
  static util::ThreadPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? std::size_t(hw - 1) : std::size_t(1);
  }());
  return pool;
}

// One multi-shard call, shared with the helper tasks it submitted. Whoever
// runs drain() claims shard indices from `next_` until none are left, so a
// shard only ever waits to be finished, never to be started. A helper that
// is dequeued after the call returned claims nothing and never touches fn.
class ForkJoin {
 public:
  ForkJoin(ShardFn fn, std::size_t n, std::size_t chunk)
      : fn_(fn), n_(n), chunk_(chunk), shards_((n + chunk - 1) / chunk) {}
  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  [[nodiscard]] std::size_t shards() const { return shards_; }

  void drain() GARFIELD_EXCLUDES(mutex_) {
    for (;;) {
      const std::size_t s = next_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards_) return;
      const std::size_t begin = s * chunk_;
      std::exception_ptr thrown;
      try {
        fn_(begin, std::min(begin + chunk_, n_));
      } catch (...) {
        thrown = std::current_exception();
      }
      util::MutexLock lock(mutex_);
      if (thrown && !error_) error_ = thrown;
      if (++done_ == shards_) all_done_.notify_one();
    }
  }

  // Block until every shard has finished, then rethrow the first exception
  // a shard raised, so fn outlives all of its shards even when one throws.
  void join() GARFIELD_EXCLUDES(mutex_) {
    std::exception_ptr error;
    {
      util::MutexLock lock(mutex_);
      all_done_.wait(mutex_, [this]() GARFIELD_REQUIRES(mutex_) {
        return done_ == shards_;
      });
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  const ShardFn fn_;
  const std::size_t n_;
  const std::size_t chunk_;
  const std::size_t shards_;
  std::atomic<std::size_t> next_{0};
  util::Mutex mutex_;
  util::CondVar all_done_;
  std::size_t done_ GARFIELD_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ GARFIELD_GUARDED_BY(mutex_);
};

}  // namespace

std::size_t parallel_threads() {
  const std::size_t override = g_thread_override.load(std::memory_order_relaxed);
  return override != 0 ? override : default_threads();
}

void set_parallel_threads(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, std::size_t grain, ShardFn fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t shards =
      std::min(parallel_threads(), std::max<std::size_t>(1, n / grain));
  if (shards <= 1) {
    fn(0, n);
    return;
  }
  // ForkJoin drops the trailing shards this chunk size leaves empty.
  const auto job = std::make_shared<ForkJoin>(fn, n, (n + shards - 1) / shards);
  util::ThreadPool& pool = shard_pool();
  // noexcept: running out of memory while queuing ends the process here,
  // rather than returning while queued helpers can still reach fn.
  [&]() noexcept {
    for (std::size_t h = 1; h < job->shards(); ++h) {
      if (!pool.submit([job] { job->drain(); })) return;
    }
  }();
  job->drain();
  job->join();
}

void parallel_for(std::size_t n, ShardFn fn) {
  parallel_for(n, kParallelForGrain, fn);
}

}  // namespace garfield::tensor
