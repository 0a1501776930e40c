#include "util/thread_pool.h"

namespace garfield::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

bool ThreadPool::submit(std::function<void()>&& task) {
  {
    MutexLock lock(mutex_);
    if (stop_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      cv_.wait(mutex_, [this]() GARFIELD_REQUIRES(mutex_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace garfield::util
