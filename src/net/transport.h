// Transport seam under the simulated cluster.
//
// The paper's deployment (§4) runs each node as its own process on its own
// machine; our Cluster grew up as a single in-process object graph. This
// header is the boundary that lets both be true at once: the Cluster owns
// the clock (simulated NetworkConditions delay, the one handler pool and
// the one timer wheel), lifecycle gating, not-ready parking and quorum
// accounting, and hands a Transport only the *physical* movement of a
// request to its callee, once its delay has elapsed, and of the reply back:
//
//  - Transport itself is the in-process backend: the request reaches the
//    callee's delivery sink inline, on the thread the Cluster ran the send
//    on (a pool thread, or the caller of a collect() that awaits every
//    peer), and the reply is the respond callback invoked wherever the
//    handler answered;
//  - TcpTransport (tcp_transport.h): each node is its own OS process and
//    frames flow over localhost TCP streams (length-prefixed net/wire
//    blobs); arrivals run on the Cluster's pool through the post hook.
//
// The contract is deliberately small: a callee-side delivery sink and a
// post hook (both installed once by the Cluster), and a send whose
// callback resolves exactly once. Byte accounting lives here — both
// backends charge the same wire-equivalent frame costs, so
// `bytes_sent`/`bytes_received` are directly comparable across backends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "tensor/vecops.h"

namespace garfield::net {

using NodeId = std::size_t;
using Payload = tensor::FlatVector;
/// Immutable refcounted payload — the zero-copy currency of the transport.
using PayloadPtr = std::shared_ptr<const Payload>;
using Clock = std::chrono::steady_clock;
using Duration = std::chrono::microseconds;

/// A pull request: "node `from` asks node `to` to run `method`".
/// `iteration` tags the training step; `argument` carries the caller's data
/// (e.g. the server's current model when requesting a gradient).
struct Request {
  NodeId from = 0;
  NodeId to = 0;
  std::string method;
  std::uint64_t iteration = 0;
  PayloadPtr argument;  // may be null
  /// The training iteration backing the method tag when the two differ
  /// (the contraction gossip tag encodes round*iterations). Remote
  /// backends ship it so the callee's churn schedule advances on the true
  /// training step, exactly as the caller's would.
  std::optional<std::uint64_t> window_iteration;
  /// Sender-local fault-injection instruction (never serialized): the TCP
  /// backend ships this request's frame with a flipped body byte so the
  /// receiver's stream CRC discards it, and resolves the exchange
  /// immediately as silent. Set only by the Cluster's fault plane when a
  /// `fault:corrupt` verdict fires on a remote backend.
  bool wire_corrupt = false;
};

/// On-wire cost (length prefix + envelope + wire-encoded payload) of one
/// request / reply frame. Both backends account traffic through these
/// formulas — the TCP backend's real frames are exactly this size — so
/// inproc and tcp byte counters are directly comparable. A silent
/// resolution (crashed / declined / out-retried callee) costs the bare
/// reply envelope, which the TCP backend really does send.
[[nodiscard]] std::size_t request_frame_bytes(const Request& request);
[[nodiscard]] std::size_t reply_frame_bytes(const PayloadPtr& payload);

/// Physical message movement under the Cluster. All policy — simulated
/// delay, scheduling, lifecycle gating, handler dispatch, retry backoff,
/// stats — stays in the Cluster; a Transport only moves requests to the
/// callee's delivery sink and replies back. The base class is the
/// in-process backend.
class Transport {
 public:
  /// Exactly-once resolution of one delivered request. nullptr means the
  /// callee stayed silent: crashed, declined, no handler, or the retry
  /// chain gave up.
  using Respond = std::function<void(PayloadPtr)>;
  /// Callee-side sink installed by the Cluster via start(): runs the
  /// lifecycle check + handler chain for `request`, with `deadline`
  /// bounding how long a not-ready request stays parked, and invokes
  /// `respond` exactly once.
  using DeliverFn =
      std::function<void(Request request, Clock::time_point deadline,
                         Respond respond)>;
  /// Runs a task on the Cluster's handler pool. Returns false, leaving the
  /// task untouched, once the Cluster's teardown has begun.
  using Post = std::function<bool(std::function<void()>&& task)>;

  Transport() = default;
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Install the delivery sink and the pool hook (and, for remote
  /// backends, bring links up). Called exactly once, by the Cluster
  /// constructor, before any send().
  virtual void start(DeliverFn deliver, Post post);

  /// Move `request` to its callee now; the sender-side simulated delay has
  /// already elapsed on the Cluster's clock. `on_reply` fires exactly once
  /// with the reply (or nullptr for a silent callee). In process, both
  /// frames are charged and the sink runs inline on the calling thread.
  virtual void send(Request request, Clock::time_point deadline,
                    Respond on_reply);

  /// True when request delivery crosses a process boundary — the callee
  /// has no local loop threads driving its churn schedule, so the Cluster
  /// advances the lifecycle horizon from the arrival itself.
  [[nodiscard]] virtual bool remote() const { return false; }

  /// Stop moving messages across process boundaries; a no-op in process.
  /// Idempotent; called by ~Cluster before it stops its own clock.
  virtual void shutdown() {}

  /// Cumulative wire-equivalent traffic through this transport endpoint.
  /// Relaxed monotone counters, same discipline as the Cluster's (reply
  /// frame costs are charged before the reply's release bump of
  /// replies_received_, so stats() snapshots cover them).
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  /// Peer processes observed dying mid-run (a reader hitting EOF/reset
  /// outside shutdown). Always 0 for in-process backends.
  [[nodiscard]] std::uint64_t peer_deaths() const {
    return peer_deaths_.load(std::memory_order_relaxed);
  }

 protected:
  DeliverFn deliver_;
  Post post_;
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> peer_deaths_{0};
};

}  // namespace garfield::net
