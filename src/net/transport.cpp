#include "net/transport.h"

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

void Transport::start(DeliverFn deliver, Post post) {
  deliver_ = std::move(deliver);
  post_ = std::move(post);
}

void Transport::send(Request request, Clock::time_point deadline,
                     Respond on_reply) {
  // In process every frame is both sent and received. Reply bytes are
  // charged on the answering thread just before the reply callback runs,
  // so they happen-before the Cluster's release bump of replies_received_
  // and every stats() snapshot covers them.
  const std::size_t req_bytes = request_frame_bytes(request);
  bytes_sent_.fetch_add(req_bytes, std::memory_order_relaxed);
  bytes_received_.fetch_add(req_bytes, std::memory_order_relaxed);
  deliver_(std::move(request), deadline,
           [this, on_reply = std::move(on_reply)](PayloadPtr payload) {
             const std::size_t bytes = reply_frame_bytes(payload);
             bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
             bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
             on_reply(std::move(payload));
           });
}

}  // namespace garfield::net
