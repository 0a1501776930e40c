// Transport seam under the simulated cluster.
//
// The paper's deployment (§4) runs each node as its own process on its own
// machine; our Cluster grew up as a single in-process object graph. This
// header is the boundary that lets both be true at once: Cluster resolves
// simulated NetworkConditions delay, lifecycle gating, not-ready
// parking and quorum accounting exactly as before, but hands the
// *physical* movement of every request/reply to a Transport:
//
//  - InProcTransport: the original timer-wheel + thread-pool path,
//    factored out verbatim — same scheduling decisions in the same order,
//    so every in-process run stays bitwise identical to the pre-seam code;
//  - TcpTransport (tcp_transport.h): each node is its own OS process and
//    frames flow over localhost TCP streams (length-prefixed net/wire
//    blobs), with the same sender-side delay model so `wan:`/`hetero:`/
//    `churn:` specs drive both backends identically.
//
// The contract is deliberately small: a callee-side delivery sink
// (installed once by the Cluster), an async send whose callback resolves
// exactly once, and the delayed-execution primitive the fault-retry chain
// and the parked-request deadline sweep ride on. Byte accounting lives
// here — both backends charge the same wire-equivalent frame costs, so
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

#include "net/timer_wheel.h"
#include "tensor/vecops.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

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
/// delay resolution, lifecycle gating, handler dispatch, retry backoff,
/// stats — stays in the Cluster; a Transport only moves requests to the
/// callee's delivery sink and replies back, and provides the delayed
/// execution primitive the initial (delayed) delivery, the fault-retry
/// chain and the parked-request deadline sweep ride on.
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

  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Install the delivery sink (and, for remote backends, bring links up).
  /// Called exactly once, by the Cluster constructor, before any send().
  virtual void start(DeliverFn deliver) = 0;

  /// Route `request` toward its destination after the sender-side
  /// simulated `delay`; `on_reply` fires exactly once with the reply (or
  /// nullptr for a silent callee). Returns false — without invoking or
  /// consuming `on_reply`'s obligations — once shutdown has begun; the
  /// caller resolves the callback itself (Cluster counts a dropped task).
  [[nodiscard]] virtual bool send(Request request, Duration delay,
                                  Clock::time_point deadline,
                                  Respond on_reply) = 0;

  /// Run `task` once `delay` has elapsed: on the pool directly when the
  /// delay is not positive, via the timer otherwise. The fault-retry and
  /// deadline-sweep primitive. Returns false (task left untouched) once
  /// shutdown has begun.
  [[nodiscard]] virtual bool run_after(Duration delay,
                                       std::function<void()>&& task) = 0;

  /// True when request delivery crosses a process boundary — the callee
  /// has no local loop threads driving its churn schedule, so the Cluster
  /// advances the lifecycle horizon from the arrival itself.
  [[nodiscard]] virtual bool remote() const { return false; }

  /// Stop moving messages: pending delayed entries are flushed inline,
  /// in-flight work drains, and subsequent send()/run_after() return
  /// false. Idempotent; called by ~Cluster.
  virtual void shutdown() = 0;

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
  Transport() = default;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> peer_deaths_{0};
};

/// The original in-process path, factored out of the Cluster verbatim:
/// delivery is a task on the shared ThreadPool (zero delay) or an entry on
/// the TimerWheel (positive delay), and the reply is the respond callback
/// invoked on whichever pool thread ran the handler. Scheduling decisions,
/// their order, and the teardown sequence are bit-for-bit the pre-seam
/// Cluster's, so existing runs are unchanged.
class InProcTransport final : public Transport {
 public:
  /// `pool_threads` == 0 sizes the pool to hardware concurrency — pool
  /// threads only run handler compute (delays live on the wheel), so more
  /// would just contend for the same cores.
  explicit InProcTransport(std::size_t pool_threads = 0);
  ~InProcTransport() override;

  void start(DeliverFn deliver) override;
  [[nodiscard]] bool send(Request request, Duration delay,
                          Clock::time_point deadline,
                          Respond on_reply) override;
  [[nodiscard]] bool run_after(Duration delay,
                               std::function<void()>&& task) override;
  void shutdown() override;

 private:
  DeliverFn deliver_;
  bool down_ = false;  ///< set once by shutdown(); no concurrent callers
  // Torn down by shutdown() in the order stop-wheel -> drain-pool ->
  // destroy both, so in-flight deliveries can never re-arm a dead timer or
  // submit to a dead pool (see ~Cluster's original comment, which moved
  // here with the members).
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<TimerWheel> timer_;
};

}  // namespace garfield::net
