#include "net/transport.h"

#include <thread>
#include <utility>

#include "net/wire.h"

namespace garfield::net {

namespace {

// Envelope field widths, shared between the byte-accounting formulas here
// and the TCP backend's actual frames (tcp_transport.cpp static_asserts
// and runtime-asserts the match). The stream prefix is wire.h's
// kFramePrefixBytes (u32 length + u32 body CRC). Request envelope: type(1)
// + call id(8) + from(4) + to(4) + iteration(8) + window flag(1) +
// window(8) + timeout budget(8) + method length(2) + payload flag(1).
// Reply envelope: type(1) + call id(8) + payload flag(1).
constexpr std::size_t kLenPrefixBytes = kFramePrefixBytes;
constexpr std::size_t kRequestEnvelopeBytes =
    1 + 8 + 4 + 4 + 8 + 1 + 8 + 8 + 2 + 1;
constexpr std::size_t kReplyEnvelopeBytes = 1 + 8 + 1;

}  // namespace

std::size_t request_frame_bytes(const Request& request) {
  const std::size_t payload =
      request.argument ? wire_size(request.argument->size()) : 0;
  return kLenPrefixBytes + kRequestEnvelopeBytes + request.method.size() +
         payload;
}

std::size_t reply_frame_bytes(const PayloadPtr& payload) {
  return kLenPrefixBytes + kReplyEnvelopeBytes +
         (payload ? wire_size(payload->size()) : 0);
}

InProcTransport::InProcTransport(std::size_t pool_threads) {
  std::size_t threads = pool_threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  pool_ = std::make_unique<util::ThreadPool>(threads);
  timer_ = std::make_unique<TimerWheel>(*pool_);
}

InProcTransport::~InProcTransport() { shutdown(); }

void InProcTransport::start(DeliverFn deliver) {
  deliver_ = std::move(deliver);
}

bool InProcTransport::send(Request request, Duration delay,
                           Clock::time_point deadline, Respond on_reply) {
  // Request bytes are charged at send time whether or not scheduling
  // succeeds — the same contract as requests_sent_, which the Cluster
  // bumps even for a dispatch that teardown then drops.
  const std::size_t req_bytes = request_frame_bytes(request);
  bytes_sent_.fetch_add(req_bytes, std::memory_order_relaxed);
  bytes_received_.fetch_add(req_bytes, std::memory_order_relaxed);
  // Reply bytes are charged on the delivery thread just before the reply
  // callback runs, so they happen-before the Cluster's release bump of
  // replies_received_ and every stats() snapshot covers them.
  auto respond = [this,
                  on_reply = std::move(on_reply)](PayloadPtr payload) mutable {
    const std::size_t bytes = reply_frame_bytes(payload);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
    on_reply(std::move(payload));
  };
  std::function<void()> task = [this, request = std::move(request), deadline,
                                respond = std::move(respond)]() mutable {
    deliver_(std::move(request), deadline, std::move(respond));
  };
  return run_after(delay, std::move(task));
}

bool InProcTransport::run_after(Duration delay, std::function<void()>&& task) {
  if (!pool_ || !timer_) return false;
  return delay.count() <= 0 ? pool_->submit(std::move(task))
                            : timer_->schedule_after(delay, std::move(task));
}

void InProcTransport::shutdown() {
  if (down_) return;
  down_ = true;
  // Teardown order matters. First stop the wheel and run its backlog
  // inline: from here on schedule_after() refuses new entries, so a
  // flushed or in-flight fault retry resolves its callback (counted as
  // dropped) instead of re-arming a dying timer. The pool is still alive
  // for any zero-delay delivery a flushed task issues. Then the pool
  // drains and joins — draining tasks that try to re-arm still see the
  // stopped-but-alive wheel. The unique_ptrs are destroyed afterwards with
  // nothing in flight.
  timer_->stop_and_flush();
  pool_.reset();
  timer_.reset();
}

}  // namespace garfield::net
