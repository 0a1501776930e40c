// Simulated cluster: the stand-in for Garfield's gRPC communication layer.
//
// The paper's networking (§4.1–4.2) is point-to-point *pull-based* RPC:
// when a node needs data it initiates parallel remote calls to its peers,
// each peer runs a server answering such requests, and the caller keeps the
// fastest q replies (get_gradients(t, q) / get_models(t, q)). This module
// reproduces that abstraction in-process:
//
//  - every node registers handlers (method name -> function);
//  - the Cluster owns the clock: one thread pool, sized to hardware
//    concurrency, and one TimerWheel. Every delayed step (delivery, fault
//    retry, deadline sweep, bandwidth deferral) is an entry on the wheel,
//    never a sleep on a pool thread. A zero-delay send runs on the pool,
//    except in a collect() that awaits every peer: there the calling
//    thread runs its sends, handlers included, itself, and pool threads
//    only help (see collect()). A Transport (net/transport.h) only moves a
//    request to its callee and the reply back;
//  - simulated link delay is resolved per edge from the deployment's
//    NetworkConditions (net/conditions.h: base latency + deterministic
//    per-edge hash jitter + heterogeneous slow links + iteration-scheduled
//    straggler lag + partition windows + payload-proportional
//    serialization at the edge's configured byte rate with a per-link
//    busy queue, delivered as delayed — never dropped — messages);
//  - payloads are immutable and refcounted (std::shared_ptr<const Payload>)
//    end to end: a handler can serve the same snapshot to every requester
//    without copying, and the Collector never copies replies beyond the
//    awaited quorum;
//  - a handler may answer "not ready yet" (HandlerResult::not_ready());
//    the request then parks on the callee — holding no thread and no
//    timer — until the callee calls notify_ready() from the event that
//    creates the answer (a replica's publication, a worker finishing the
//    backprop in flight), which redelivers it, or until the caller's
//    deadline resolves it silent. This is the primitive behind
//    step-tagged model and gossip serving and single-flight gradients;
//  - every node carries a lifecycle FSM (RUNNING -> CRASHED -> RECOVERING
//    -> RUNNING) owned by the cluster: CRASHED and RECOVERING nodes are
//    fail-silent (delivery refused, handlers dropped at crash time) and a
//    parsed churn schedule (NetworkConditions `churn:` clauses) drives the
//    transitions per training iteration, invoking a per-node recovery
//    hook — handler re-registration plus checkpoint state transfer — on
//    the way back up; Byzantine behaviour lives in the handler (a
//    Byzantine node simply serves corrupted payloads — separate
//    replicated state, there is no shared graph to protect);
//  - Collector implements fastest-q-of-n with a deadline, the liveness
//    primitive that lets Garfield run in asynchronous settings.
//
// Transfer accounting (requests, replies, floats moved, wasted replies,
// dropped tasks, bytes a wire codec saved) feeds the communication-cost
// experiments. The codec itself is an Options field: the nodes make their
// frames with it, and the Cluster only counts them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/conditions.h"
#include "net/timer_wheel.h"
#include "net/transport.h"
#include "tensor/vecops.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace garfield::net {

/// Per-node lifecycle state (the Graphite-style per-core state machine,
/// applied to cluster membership). Only RUNNING nodes serve requests;
/// CRASHED and RECOVERING nodes are fail-silent to every caller.
enum class NodeLifecycle { kRunning, kCrashed, kRecovering };

/// Give-up predicate for the fault-retry chain: true when the next
/// attempt, landing at `next_attempt`, would arrive after the caller's
/// `deadline`. Strictly after — an attempt landing exactly at
/// the deadline is still inside the contract (a `>=` here silently shaved
/// one legitimate retry off every timeout-bounded exchange).
[[nodiscard]] inline bool retry_gives_up(Clock::time_point next_attempt,
                                         Clock::time_point deadline) {
  return next_attempt > deadline;
}

// Request (with its window_iteration tag), PayloadPtr, Clock and Duration
// moved to net/transport.h — the seam needs them and this header re-exports
// them unchanged.

/// Handler outcome. Exactly one of three shapes:
///  - reply(p): deliver payload p to the caller;
///  - none():   no reply, ever (the dropped-vector attack / unpublished
///              state) — the caller's quorum accounting sees the node as
///              silent;
///  - not_ready(): the answer does not exist *yet* (e.g. a model snapshot
///              for an iteration this node has not reached); the request
///              parks on the callee until the callee calls
///              Cluster::notify_ready(), which redelivers it. A handler
///              that answers not-ready must arrange that notify from the
///              event that creates the answer — otherwise the request
///              resolves silent at the caller's deadline.
/// Throwing from a handler is a bug, not a Byzantine fault.
struct HandlerResult {
  PayloadPtr payload;  // non-null => reply
  bool park = false;   // true => park until notify_ready()

  [[nodiscard]] static HandlerResult reply(PayloadPtr p) {
    return HandlerResult{std::move(p), false};
  }
  [[nodiscard]] static HandlerResult reply(Payload p) {
    return HandlerResult{std::make_shared<const Payload>(std::move(p)),
                         false};
  }
  [[nodiscard]] static HandlerResult none() { return HandlerResult{}; }
  [[nodiscard]] static HandlerResult not_ready() {
    return HandlerResult{nullptr, true};
  }
};

/// Handler executed at the callee.
using Handler = std::function<HandlerResult(const Request&)>;

/// One successful reply, tagged with its origin. The payload is shared
/// with the callee's state (or its cached computation) — treat as
/// immutable.
struct Reply {
  NodeId from = 0;
  PayloadPtr payload;
};

/// Cumulative traffic counters — a point-in-time snapshot of the cluster's
/// relaxed atomic counters (see Cluster::stats() for the exact coherence
/// contract: replies_received <= requests_sent holds in *every* snapshot,
/// even mid-flight; exact cross-field equalities are meaningful only at
/// quiescence, which is when the tests assert them).
struct NetStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t floats_transferred = 0;  // request arguments + replies
  /// Replies crafted and delivered after the caller's quorum was already
  /// met — the overshoot cost of fastest-q pulls (the callee still paid
  /// the compute and the link still carried the floats).
  std::uint64_t wasted_replies = 0;
  /// collect() calls that returned with fewer than q replies — the wait
  /// expired, or every outstanding responder resolved silent (crashed /
  /// declined). Without this counter a short quorum is indistinguishable
  /// from a met one in the stats, which hides exactly the degraded rounds
  /// a churn or straggler scenario is supposed to expose.
  std::uint64_t quorum_misses = 0;
  /// Dispatches rejected because the pool/timer had begun shutdown, plus
  /// parked not-ready requests resolved by teardown. The callback is
  /// resolved with "no reply" so quorum accounting cannot
  /// hang-then-timeout during teardown; nonzero values outside teardown
  /// indicate a bug.
  std::uint64_t dropped_tasks = 0;
  /// Send attempts the fault plane declared lost (dropped or corrupted in
  /// flight) plus duplicated deliveries — every verdict the `fault:`
  /// clause actually applied.
  std::uint64_t faults_injected = 0;
  /// Re-send attempts the bounded retry layer issued after a lost
  /// attempt. Always 0 without an active `fault:` clause.
  std::uint64_t retries = 0;
  /// Logical calls abandoned after the attempt cap / deadline: the caller
  /// saw a silent peer and its collect() degraded toward quorum_misses
  /// instead of hanging.
  std::uint64_t retry_give_ups = 0;
  /// Peer processes the transport observed dying mid-run (TCP backend
  /// only: a reader hitting EOF/reset outside shutdown). The in-process
  /// backend has no peer processes, so this stays 0 there.
  std::uint64_t peer_deaths = 0;
  /// Bytes a gradient-compression codec (net/codec.h) kept off the wire:
  /// Codec::saved_bytes summed over every frame this Cluster sent, counted
  /// where floats_transferred is — a request argument in call(), a reply
  /// in dispatch() — so crafted Byzantine frames count like honest ones,
  /// and over tcp each rank counts the frames it sends. Always 0 under
  /// codec=none. bytes_sent counts what really crossed the link, so
  /// bytes_sent + bytes_saved is the codec=none-equivalent traffic.
  std::uint64_t bytes_saved = 0;
  /// Wire-equivalent traffic through this endpoint's Transport, charged
  /// per frame by the request/reply_frame_bytes formulas (transport.h) so
  /// the numbers are comparable across backends. In-process, every frame
  /// is both sent and received, so the two counters track each other; over
  /// TCP they are this process's view of the links.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Cluster {
 public:
  struct Options {
    std::size_t nodes = 1;
    std::size_t pool_threads = 0;  ///< 0 => hardware concurrency
    /// Everything the simulated network does to this deployment: per-edge
    /// latency/jitter, heterogeneous slow links, straggler phases and
    /// partition windows (net/conditions.h spec grammar). Defaults to the
    /// ideal network.
    NetworkConditions conditions;
    /// The wire codec every node of the deployment speaks (net/codec.h):
    /// each node reads it through codec() to make its frames. Identity by
    /// default.
    CodecSpec codec;
    std::uint64_t seed = 42;
    /// Physical message movement. Null selects the in-process backend (a
    /// plain Transport). A TcpTransport here turns every cross-node call
    /// into a framed localhost stream exchange. Either way the delays and
    /// the handler pool are this Cluster's, and it is the transport's sole
    /// driver: ~Cluster shuts it down.
    std::shared_ptr<Transport> transport;
  };

  explicit Cluster(const Options& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_; }

  /// Register/replace the handler a node serves for `method`.
  void register_handler(NodeId node, const std::string& method,
                        Handler handler);

  // Lifecycle FSM: RUNNING -> CRASHED -> RECOVERING -> RUNNING. crash()
  // may fire from any state; the two recovery edges are strict and throw
  // std::logic_error on an invalid transition — an out-of-order recovery
  // is a scheduler bug, not a tolerable race.

  /// Crash a node: delivery to it is refused, its registered handlers
  /// are dropped (a restarted process has none) until it recovers, and
  /// the requests parked on it resolve silent at once.
  void crash(NodeId node);
  /// CRASHED -> RECOVERING: still fail-silent; the node is re-registering
  /// handlers and state-transferring.
  void begin_recovery(NodeId node);
  /// RECOVERING -> RUNNING: serving again; wakes wait_until_running().
  void complete_recovery(NodeId node);
  [[nodiscard]] NodeLifecycle lifecycle(NodeId node) const;
  /// True whenever the node is not serving (CRASHED or RECOVERING).
  [[nodiscard]] bool is_crashed(NodeId node) const;

  /// Hook invoked between the RECOVERING and RUNNING edges when the churn
  /// schedule brings `node` back up (advance_lifecycle), with the
  /// scheduled recovery iteration. This is where the trainer re-registers
  /// the node's handlers and transfers checkpointed state.
  void set_recovery_handler(NodeId node,
                            std::function<void(std::uint64_t)> handler);

  /// Drive the parsed churn schedule (options.conditions `churn:` clauses)
  /// up to `iteration`: apply every crash whose window has started and
  /// every recovery/join whose up-edge has passed, invoking recovery
  /// handlers along the way. Idempotent and monotonic — any loop thread
  /// may call it with its own iteration counter; the max ever seen drives
  /// the schedule. Nodes down at iteration 0 (joins, at_iter=0 crashes)
  /// start CRASHED without a call.
  void advance_lifecycle(std::uint64_t iteration);

  /// Block until `node` is RUNNING (a crashed node's own driving loop
  /// parks here while live peers drive the schedule past its up-edge).
  /// Returns the iteration the schedule recovered it at, or nullopt on
  /// timeout — the deadlock guard for schedules nobody can drive.
  [[nodiscard]] std::optional<std::uint64_t> wait_until_running(
      NodeId node, Duration timeout);

  /// Pull from every peer in `peers` in parallel and return the fastest
  /// `q` replies, sorted by origin id. Returns fewer than q only if
  /// `timeout`, counted from entry, expires first; q > peers.size() is an
  /// error. `window_iteration` is the training iteration the
  /// NetworkConditions schedules see when the method tag (`iteration`)
  /// encodes more than it — e.g. the contraction gossip tag; it defaults
  /// to the tag itself.
  ///
  /// A pull that awaits every peer (q == peers.size()) has no race between
  /// its sends to keep, so its zero-delay sends become one fan-out that the
  /// calling thread drains itself: it claims them one by one and runs each
  /// inline (Transport::send, dispatch, the handler). Each participant
  /// wakes one pool thread to help, at a claim that leaves more sends, but
  /// only while fewer callers are inside collect() than the pool has
  /// threads, and the caller plus its helpers never outnumber the pool
  /// threads. Helpers thus join as a chain: a fan-out of cheap handlers is
  /// done before the first helper is up, and slow ones spread over the
  /// pool. When helpers can join (fewer callers inside collect() than pool
  /// threads, on the in-process backend), the sends are claimed longest
  /// handler first, by a snapshot of how long each callee's handler took
  /// when a fan-out last ran it, ties in peer order: the slowest
  /// handler starts at once instead of deciding when the pull ends. The
  /// order shapes timing only; the replies come back sorted by sender
  /// either way. A fastest-q pull (q < peers.size()), call(), and every
  /// delayed step keep the pool and the wheel. The caller may therefore
  /// run any peer's handler, so it must hold no lock a handler or a
  /// delivery takes: a collect from a recovery hook (which runs under the
  /// lifecycle mutex) must not include its own node, whose tcp loopback
  /// delivery advances the lifecycle.
  [[nodiscard]] std::vector<Reply> collect(
      NodeId from, std::span<const NodeId> peers, const std::string& method,
      std::uint64_t iteration, PayloadPtr argument, std::size_t q,
      Duration timeout = std::chrono::seconds(30),
      std::optional<std::uint64_t> window_iteration = std::nullopt);

  /// Single async pull; the callback fires once with the reply or, when the
  /// callee is crashed / declines to answer / stays not-ready past the
  /// timeout, with nullptr after the simulated delay.
  ///
  /// Under an active `fault:` clause every attempt first resolves a
  /// deterministic fault verdict (NetworkConditions::fault_verdict): lost
  /// attempts (drop, corrupt) are retried with exponential backoff and
  /// deterministic jitter up to a bounded attempt budget, after which the
  /// callback resolves nullptr (retry_give_ups) — graceful degradation to
  /// a quorum miss, never a hang. Because the verdict is a pure hash the
  /// retry schedule is identical on both transport backends and in a
  /// replay.
  void call(NodeId from, NodeId to, const std::string& method,
            std::uint64_t iteration, PayloadPtr argument,
            std::function<void(PayloadPtr)> on_done,
            Duration timeout = std::chrono::seconds(30),
            std::optional<std::uint64_t> window_iteration = std::nullopt);

  /// Wake every request parked on `node` (its handler answered
  /// not_ready()): each is redelivered inline on the calling thread, and
  /// one that is still not ready parks again. Call it after the event that
  /// may have created an answer, holding none of the callee's own locks —
  /// the redelivered handlers take them. A notify racing a handler's "not
  /// yet" is never lost: the delivery sees the wake and redelivers instead
  /// of parking.
  void notify_ready(NodeId node);

  /// Coherent-enough snapshot of the traffic counters, taken at a single
  /// acquire point (no lock on the hot path). Guarantees, in every
  /// snapshot: each counter is a monotone non-decreasing event count, and
  /// replies_received <= requests_sent (every observed reply's request is
  /// included — the acquire load of replies_received pairs with its
  /// release increment on the reply path, which the request-send count
  /// happens-before). All other cross-field relations are exact only when
  /// no calls are in flight.
  [[nodiscard]] NetStats stats() const;

  /// Deterministic jitter draw: a splitmix-style hash of
  /// (seed, from, to, method, iteration) mapped to [0, jitter). Lock-free
  /// and independent of thread interleaving — two runs of the same
  /// scenario see identical simulated latencies. Public so tests can
  /// assert the determinism directly.
  [[nodiscard]] Duration jitter_for(NodeId from, NodeId to,
                                    const std::string& method,
                                    std::uint64_t iteration) const;

  /// The deployment's wire codec (Options::codec).
  [[nodiscard]] Codec codec() const { return Codec(options_.codec); }

  /// The parsed conditions this cluster resolves every edge from — shared
  /// with attack contexts so schedule-aware adversaries (window_striker)
  /// read the same churn/fault windows the membership plane executes.
  [[nodiscard]] const NetworkConditions& conditions() const {
    return options_.conditions;
  }

 private:
  using Callback = std::function<void(PayloadPtr)>;
  using CallbackPtr = std::shared_ptr<Callback>;

  /// A request still owed its one response: a fan-out send not yet run,
  /// in flight through dispatch(), or parked on its callee after a
  /// not-ready answer.
  struct Delivery {
    Request request;
    Clock::time_point deadline{};
    Transport::Respond respond;
    /// A fan-out send's callee handler_ns, read when the send was queued:
    /// the key collect() orders the fan-out by.
    std::int64_t expected_ns = 0;
  };

  /// The zero-delay sends of one collect() that awaits every peer (see
  /// collect()). Filled by the caller, then drained: each participant
  /// claims the next send and runs it inline. Shared with the helper tasks
  /// it wakes, so a helper dequeued after collect() returned finds every
  /// send claimed and touches nothing else.
  struct FanOut {
    std::vector<Delivery> sends;
    std::atomic<std::size_t> next{0};
    /// The caller plus the helpers woken so far; never above the pool's
    /// thread count.
    std::atomic<std::size_t> participants{1};
  };

  /// Cache-line aligned: every delivery locks its callee's mutex and reads
  /// its lifecycle, so one node's hot fields must not share a line with
  /// its neighbour's lock. Unaligned, whether they do depends on what the
  /// constructor allocated before the nodes.
  struct alignas(64) NodeState {
    util::Mutex mutex;
    std::unordered_map<std::string, Handler> handlers
        GARFIELD_GUARDED_BY(mutex);
    /// Requests whose handler answered not-ready, waiting for
    /// notify_ready(). Resolved silent at their deadline, at a crash, or
    /// (counted as dropped) at teardown.
    std::vector<Delivery> parked GARFIELD_GUARDED_BY(mutex);
    /// Bumped by every notify_ready(). A delivery reads it with the
    /// handler lookup; if it moved by the time the handler said "not yet",
    /// a notify raced the handler and the request redelivers instead of
    /// parking — the lost-wakeup guard.
    std::uint64_t wake_epoch GARFIELD_GUARDED_BY(mutex) = 0;
    /// Due time of this node's armed deadline sweep, max() when none is
    /// armed. Never later than any parked deadline, so the one sweep
    /// resolves every expiry on time.
    Clock::time_point sweep_due GARFIELD_GUARDED_BY(mutex) =
        Clock::time_point::max();
    /// Atomic rather than guarded: dispatch() reads it lock-free on every
    /// delivery; the lifecycle_mutex_ serializes writers (transitions).
    std::atomic<NodeLifecycle> lifecycle{NodeLifecycle::kRunning};
    /// How long drain() last took to run a send to this node, handler
    /// included, in nanoseconds: what later fan-outs order their sends by
    /// (Delivery::expected_ns). Relaxed: a stale or racing value only
    /// changes the order. On tcp, where no fan-out is ordered, nothing
    /// reads it.
    std::atomic<std::int64_t> handler_ns{0};
  };

  /// Callee-side arrival: the transport's sink. Advances a remote
  /// callee's churn schedule, then dispatch(). Runs in whichever process
  /// owns `request.to`: on a pool thread for a tcp arrival, on the
  /// sending thread in process.
  void deliver_local(Request request, Clock::time_point deadline,
                     Transport::Respond respond);

  /// Lifecycle gate -> handler lookup -> run -> respond exactly once, or
  /// park on a not-ready answer (redelivering at once when a notify raced
  /// the handler).
  void dispatch(Delivery delivery);

  /// Count what `sent`, a frame this Cluster sends, saved on the wire
  /// (NetStats::bytes_saved).
  void note_saved(const Payload& sent);

  /// Park a not-ready delivery on its callee, arming the deadline sweep
  /// if it is due earliest. Returns false, leaving `delivery` untouched,
  /// when notify_ready() ran since the handler lookup read `epoch`: the
  /// caller redelivers. A callee that is down, or a cluster in teardown,
  /// resolves the delivery at once instead.
  [[nodiscard]] bool park(Delivery& delivery, std::uint64_t epoch);

  /// Run `task` once `delay` has elapsed: on the pool directly when the
  /// delay is not positive, via the timer wheel otherwise. Returns false,
  /// leaving `task` untouched, once teardown has stopped the wheel or the
  /// pool.
  [[nodiscard]] bool run_after(Duration delay, std::function<void()>&& task);

  /// Arm `node`'s deadline sweep at `due` (the wheel entry that resolves
  /// expired parked requests). False once teardown stopped the clock.
  [[nodiscard]] bool arm_sweep(NodeId node, NodeState& state,
                               Clock::time_point due)
      GARFIELD_REQUIRES(state.mutex);

  /// The armed sweep firing: resolve every parked request past its
  /// deadline with nullptr and re-arm for the earliest remaining one. A
  /// sweep superseded by an earlier arm (`due` no longer current) is a
  /// no-op.
  void sweep_deadlines(NodeId node, Clock::time_point due);

  /// call() with an absolute deadline. A non-null `fanout` takes the send
  /// instead of the pool when its first attempt has no delay.
  void call_until(NodeId from, NodeId to, const std::string& method,
                  std::uint64_t iteration, PayloadPtr argument,
                  Callback on_done, Clock::time_point deadline,
                  std::optional<std::uint64_t> window_iteration,
                  FanOut* fanout);

  /// One send attempt of call()'s bounded retry chain: resolve the fault
  /// verdict for `attempt`, either hand the message to the transport once
  /// its delay has elapsed (a zero delay with a `fanout` appends it there)
  /// or model its loss and schedule the next attempt.
  void send_attempt(NodeId from, NodeId to, const std::string& method,
                    std::uint64_t iteration, PayloadPtr argument,
                    CallbackPtr cb, Clock::time_point deadline,
                    std::uint32_t attempt,
                    std::optional<std::uint64_t> window_iteration,
                    FanOut* fanout);

  /// Claim and run `fanout`'s sends until none is left, timing each into
  /// its callee's handler_ns. Every claim that leaves more calls
  /// wake_helper(), until one call has woken a helper.
  void drain(const std::shared_ptr<FanOut>& fanout);

  /// Reorder `sends` longest expected_ns first, ties in their current
  /// order, in place: an insertion sort, which allocates nothing (a
  /// fan-out has one send per peer). It sorts the snapshots the sends
  /// carry, never the live handler_ns: other drains store durations
  /// meanwhile, and a comparator reading those would not be a strict weak
  /// order.
  static void order_longest_first(std::vector<Delivery>& sends);

  /// True while fewer callers are inside collect() than the pool has
  /// threads: only then may a fan-out wake a helper, so only then does the
  /// order of its sends matter.
  [[nodiscard]] bool helpers_can_join() const;

  /// Submit one pool task that drains `fanout` too, unless that would
  /// break a rule of collect(): no helper unless helpers_can_join(), and
  /// never more participants than pool threads. True when it submitted
  /// one.
  [[nodiscard]] bool wake_helper(const std::shared_ptr<FanOut>& fanout);

  /// Serialization delay of one `frame_bytes` frame on the directed edge
  /// (from, to) at `window_iteration`: frame_bytes / byte_rate, plus the
  /// time spent queued behind whatever the link is still draining (the
  /// per-edge busy horizon below). Zero when no byte rate covers the
  /// edge. Wall-clock-stateful (the queue), so it shapes *timing* only —
  /// never a sync trajectory.
  [[nodiscard]] Duration serialization_delay(NodeId from, NodeId to,
                                             std::size_t frame_bytes,
                                             std::uint64_t window_iteration);

  /// Any state -> CRASHED + drop handlers. The node's parked requests
  /// move to `silenced`; the caller resolves them with nullptr once it
  /// has released lifecycle_mutex_.
  void crash_locked(NodeId node, std::vector<Delivery>& silenced)
      GARFIELD_REQUIRES(lifecycle_mutex_);

  std::size_t nodes_;
  Options options_;
  std::vector<std::unique_ptr<NodeState>> states_;
  // Lifecycle scheduling state. The per-node lifecycle enum itself is
  // atomic (dispatch reads it lock-free); the mutex serializes transitions
  // and the churn schedule's one-shot event application. Lock order:
  // lifecycle_mutex_ before any NodeState::mutex (crash_locked), never the
  // reverse — dispatch takes only the node mutex, so delivery is never
  // blocked behind a state transfer.
  mutable util::Mutex lifecycle_mutex_;
  util::CondVar lifecycle_cv_;
  std::uint64_t lifecycle_horizon_ GARFIELD_GUARDED_BY(lifecycle_mutex_) = 0;
  struct ChurnEventState {
    bool crashed_applied = false;
    bool recovered_applied = false;
  };
  std::vector<ChurnEventState> churn_state_
      GARFIELD_GUARDED_BY(lifecycle_mutex_);
  std::vector<std::function<void(std::uint64_t)>> recovery_handlers_
      GARFIELD_GUARDED_BY(lifecycle_mutex_);
  std::vector<std::uint64_t> recovered_at_
      GARFIELD_GUARDED_BY(lifecycle_mutex_);
  // Traffic counters. Increments are memory_order_relaxed: each is an
  // independent monotone event count and no payload data is ever published
  // through them, so cross-thread ordering between counters is not needed
  // for correctness — with one deliberate exception: replies_received_ is
  // bumped with release and is the snapshot's single acquire point (see
  // stats() for the invariant this buys).
  std::atomic<std::uint64_t> requests_sent_{0};
  std::atomic<std::uint64_t> replies_received_{0};
  std::atomic<std::uint64_t> floats_transferred_{0};
  std::atomic<std::uint64_t> wasted_replies_{0};
  std::atomic<std::uint64_t> quorum_misses_{0};
  std::atomic<std::uint64_t> dropped_tasks_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_give_ups_{0};
  std::atomic<std::uint64_t> bytes_saved_{0};
  /// Per-directed-edge busy horizon (microseconds on Clock's timeline):
  /// the instant edge (from, to) finishes draining its last serialized
  /// frame. A message departing earlier queues behind it. Allocated
  /// (nodes^2, zero-initialized) only when the conditions carry a byte
  /// rate; null otherwise — the ideal path never touches it.
  std::unique_ptr<std::atomic<std::int64_t>[]> busy_until_us_;
  /// Set first thing in ~Cluster: from then on a not-ready delivery
  /// resolves at once (counted as dropped) instead of parking.
  std::atomic<bool> closing_{false};
  /// Callers inside collect(), draining or waiting: a fan-out wakes
  /// helpers only while this is below the pool's thread count. Every
  /// collect() writes it twice, so it fills a cache line of its own, off
  /// the traffic counters' and the members every send reads.
  struct alignas(64) CollectorCount {
    std::atomic<std::size_t> value{0};
  };
  CollectorCount collectors_;
  std::shared_ptr<Transport> transport_;
  // The clock, declared after everything its tasks use. ~Cluster stops the
  // wheel, then the pool: a stopped wheel or pool refuses work and stays
  // alive until the members are destroyed, so a draining task that tries
  // to re-arm is refused, never a dangling call.
  util::ThreadPool pool_;
  TimerWheel timer_{pool_};
};

}  // namespace garfield::net
