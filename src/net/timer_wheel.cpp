#include "net/timer_wheel.h"

#include <algorithm>
#include <utility>

namespace garfield::net {

TimerWheel::TimerWheel(util::ThreadPool& pool)
    : pool_(pool), thread_([this] { run(); }) {}

TimerWheel::~TimerWheel() { stop_and_flush(); }

void TimerWheel::stop_and_flush() {
  {
    util::MutexLock lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Run the backlog inline, in due order. A flushed task may itself try to
  // re-arm (a fault retry); schedule_after now returns false, so the
  // dispatcher resolves its callback instead of looping. The pool is
  // deliberately not used here: inline execution keeps teardown correct
  // whichever of pool/wheel the owner destroys first.
  for (;;) {
    Entry entry;
    {
      util::MutexLock lock(mutex_);
      if (heap_.empty()) return;
      entry = pop_locked();
    }
    entry.task();
  }
}

TimerWheel::Entry TimerWheel::pop_locked() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  return entry;
}

bool TimerWheel::schedule_after(Clock::duration delay,
                                std::function<void()>&& task) {
  const Clock::time_point due = Clock::now() + delay;
  bool new_front = false;
  {
    util::MutexLock lock(mutex_);
    if (stop_) return false;
    heap_.push_back(Entry{due, next_seq_++, std::move(task)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    new_front = heap_.front().seq == next_seq_ - 1;
  }
  // The (single) timer thread only needs waking when its next due time
  // changed; entries behind the current front will be seen when it pops.
  if (new_front) cv_.notify_one();
  return true;
}

std::size_t TimerWheel::pending() const {
  util::MutexLock lock(mutex_);
  return heap_.size();
}

void TimerWheel::run() {
  for (;;) {
    Entry entry;
    {
      util::MutexLock lock(mutex_);
      if (stop_) return;
      if (heap_.empty()) {
        cv_.wait(mutex_, [this]() GARFIELD_REQUIRES(mutex_) {
          return stop_ || !heap_.empty();
        });
        continue;  // re-check stop with the fresh state
      }
      const Clock::time_point due = heap_.front().due;
      if (Clock::now() < due) {
        // Woken early by a new entry (possibly with an earlier due time) or
        // by shutdown; re-evaluate the heap top either way.
        (void)cv_.wait_until(mutex_, due);
        continue;
      }
      entry = pop_locked();
    }
    // submit() leaves the task untouched on refusal (pool shutdown while
    // the wheel still runs — only possible for standalone wheel users;
    // Cluster stops the wheel first), so running it inline is safe.
    if (!pool_.submit(std::move(entry.task))) entry.task();
  }
}

}  // namespace garfield::net
