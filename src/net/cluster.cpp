#include "net/cluster.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "tensor/rng.h"

namespace garfield::net {

namespace {

/// Fault-retry layer: a lost attempt (fault:drop / fault:corrupt) is
/// re-sent after floor * 2^attempt capped at the ceiling, plus a
/// deterministic hash jitter in [0, backoff/2) so synchronized cohorts
/// don't re-strike the network in lockstep. Bounded: after
/// kMaxSendAttempts the call resolves nullptr (retry_give_ups).
constexpr Duration kSendBackoffFloor{50};
constexpr Duration kSendBackoffCeiling{5000};
constexpr std::uint32_t kMaxSendAttempts = 8;

Duration send_backoff(std::uint64_t seed, NodeId from, NodeId to,
                      std::uint64_t iteration, std::uint32_t attempt) {
  Duration base = kSendBackoffFloor;
  for (std::uint32_t k = 0; k < attempt && base < kSendBackoffCeiling; ++k) {
    base *= 2;
  }
  base = std::min(base, kSendBackoffCeiling);
  std::uint64_t h = tensor::splitmix64_mix(seed ^ 0xbac0ff5eedULL);
  h = tensor::splitmix64_mix(h ^ (std::uint64_t(from) << 32) ^
                             std::uint64_t(to));
  h = tensor::splitmix64_mix(h ^ iteration);
  h = tensor::splitmix64_mix(h ^ std::uint64_t(attempt));
  const double u = double(h >> 11) * 0x1.0p-53;
  return base + Duration{std::int64_t(u * double(base.count()) * 0.5)};
}

/// Pool threads only run handler compute (delays live on the wheel), so
/// more than the cores would just contend for them.
std::size_t pool_size(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

Cluster::Cluster(const Options& options)
    : nodes_(options.nodes),
      options_(options),
      transport_(options.transport ? options.transport
                                   : std::make_shared<Transport>()),
      pool_(pool_size(options.pool_threads)) {
  if (nodes_ == 0) throw std::invalid_argument("Cluster: needs >= 1 node");
  // A scenario referencing nodes outside the deployment is a bug in the
  // scenario, not a quietly-ideal network.
  options_.conditions.validate(nodes_);
  states_.reserve(nodes_);
  for (std::size_t i = 0; i < nodes_; ++i)
    states_.push_back(std::make_unique<NodeState>());
  // Churn schedule bootstrap: joins (and at_iter=0 crashes) are down
  // before anyone drives an iteration. Their one-shot down-edges are
  // marked applied so advance_lifecycle() cannot re-crash them later.
  const auto& churn = options_.conditions.churn();
  churn_state_.resize(churn.size());
  recovery_handlers_.resize(nodes_);
  recovered_at_.resize(nodes_, 0);
  for (std::size_t i = 0; i < churn.size(); ++i) {
    if (!churn[i].join && churn[i].at_iter == 0) {
      churn_state_[i].crashed_applied = true;
    }
  }
  for (std::size_t node = 0; node < nodes_; ++node) {
    if (options_.conditions.churn_down(node, 0)) {
      states_[node]->lifecycle.store(NodeLifecycle::kCrashed);
    }
  }
  if (options_.conditions.has_bandwidth()) {
    // Zero-initialized busy horizons: every link starts idle.
    busy_until_us_ =
        std::make_unique<std::atomic<std::int64_t>[]>(nodes_ * nodes_);
  }
  // Last: from here on, tcp reader threads can reach this Cluster.
  transport_->start(
      [this](Request request, Clock::time_point deadline,
             Transport::Respond respond) {
        deliver_local(std::move(request), deadline, std::move(respond));
      },
      [this](std::function<void()>&& task) {
        return pool_.submit(std::move(task));
      });
}

Cluster::~Cluster() {
  // Parked requests first: nothing will notify them any more. closing_ is
  // set before the drain, so a delivery that answers not-ready after its
  // node was drained — a flushed or in-flight one — resolves at once
  // instead of parking. Both count as dropped.
  closing_.store(true);
  for (std::unique_ptr<NodeState>& state : states_) {
    std::vector<Delivery> parked;
    {
      util::MutexLock lock(state->mutex);
      parked.swap(state->parked);
    }
    dropped_tasks_.fetch_add(parked.size(), std::memory_order_relaxed);
    for (Delivery& d : parked) d.respond(nullptr);
  }
  // Then the remote links: tcp readers post to the pool, so they stop
  // before it does.
  transport_->shutdown();
  // Then the clock. The wheel runs its backlog inline and refuses new
  // entries, so a flushed retry that tries to re-arm resolves (counted as
  // dropped) instead of looping, and a flushed send moves at once: in
  // process it still reaches its handler, over tcp the shut stream
  // resolves it silent. Last, the pool drains and joins; a draining task
  // that re-arms sees the stopped-but-alive wheel and pool and is refused.
  timer_.stop_and_flush();
  pool_.shutdown();
}

void Cluster::register_handler(NodeId node, const std::string& method,
                               Handler handler) {
  assert(node < nodes_);
  util::MutexLock lock(states_[node]->mutex);
  states_[node]->handlers[method] = std::move(handler);
}

void Cluster::crash_locked(NodeId node, std::vector<Delivery>& silenced) {
  states_[node]->lifecycle.store(NodeLifecycle::kCrashed);
  // A crashed process loses its registered handlers: recovery must
  // re-register them (Server/Worker::rejoin), not just flip the state.
  // Lock order: lifecycle_mutex_ (held by our caller) before the node
  // mutex — dispatch only ever takes the node mutex, so no cycle.
  util::MutexLock node_lock(states_[node]->mutex);
  states_[node]->handlers.clear();
  // Fail-silent: what was parked on the node is never answered. A park
  // after this point sees the lifecycle and resolves at once.
  std::vector<Delivery>& parked = states_[node]->parked;
  std::move(parked.begin(), parked.end(), std::back_inserter(silenced));
  parked.clear();
}

void Cluster::crash(NodeId node) {
  assert(node < nodes_);
  std::vector<Delivery> silenced;
  {
    util::MutexLock lock(lifecycle_mutex_);
    crash_locked(node, silenced);
  }
  for (Delivery& d : silenced) d.respond(nullptr);
}

void Cluster::begin_recovery(NodeId node) {
  assert(node < nodes_);
  util::MutexLock lock(lifecycle_mutex_);
  if (states_[node]->lifecycle.load() != NodeLifecycle::kCrashed) {
    throw std::logic_error("Cluster::begin_recovery: node " +
                           std::to_string(node) + " is not CRASHED");
  }
  states_[node]->lifecycle.store(NodeLifecycle::kRecovering);
}

void Cluster::complete_recovery(NodeId node) {
  assert(node < nodes_);
  {
    util::MutexLock lock(lifecycle_mutex_);
    if (states_[node]->lifecycle.load() != NodeLifecycle::kRecovering) {
      throw std::logic_error("Cluster::complete_recovery: node " +
                             std::to_string(node) + " is not RECOVERING");
    }
    states_[node]->lifecycle.store(NodeLifecycle::kRunning);
  }
  lifecycle_cv_.notify_all();
}

NodeLifecycle Cluster::lifecycle(NodeId node) const {
  assert(node < nodes_);
  return states_[node]->lifecycle.load();
}

bool Cluster::is_crashed(NodeId node) const {
  assert(node < nodes_);
  return states_[node]->lifecycle.load() != NodeLifecycle::kRunning;
}

void Cluster::set_recovery_handler(
    NodeId node, std::function<void(std::uint64_t)> handler) {
  assert(node < nodes_);
  util::MutexLock lock(lifecycle_mutex_);
  recovery_handlers_[node] = std::move(handler);
}

void Cluster::advance_lifecycle(std::uint64_t iteration) {
  const auto& churn = options_.conditions.churn();
  if (churn.empty()) return;
  std::vector<Delivery> silenced;
  {
    util::MutexLock lock(lifecycle_mutex_);
    lifecycle_horizon_ = std::max(lifecycle_horizon_, iteration);
    // Down-edges first: a horizon jump spanning a whole crash window must
    // kill before it resurrects, or the recovery hook would run against a
    // node that was never torn down.
    for (std::size_t i = 0; i < churn.size(); ++i) {
      const NetworkConditions::ChurnEvent& e = churn[i];
      if (e.join || churn_state_[i].crashed_applied ||
          e.at_iter > lifecycle_horizon_) {
        continue;
      }
      churn_state_[i].crashed_applied = true;
      for (std::size_t node = e.nodes.lo; node <= e.nodes.hi; ++node) {
        crash_locked(node, silenced);
      }
    }
    for (std::size_t i = 0; i < churn.size(); ++i) {
      const NetworkConditions::ChurnEvent& e = churn[i];
      if (churn_state_[i].recovered_applied) continue;
      if (!e.join && e.recover_after == 0) continue;  // permanent crash
      const std::uint64_t up =
          e.join ? e.at_iter : e.at_iter + e.recover_after;
      if (up > lifecycle_horizon_) continue;
      churn_state_[i].recovered_applied = true;
      for (std::size_t node = e.nodes.lo; node <= e.nodes.hi; ++node) {
        // Another event may still hold the node down at its up-edge, and a
        // manual crash()/recovery may already have moved it on.
        if (options_.conditions.churn_down(node, up)) continue;
        if (states_[node]->lifecycle.load() != NodeLifecycle::kCrashed) {
          continue;
        }
        states_[node]->lifecycle.store(NodeLifecycle::kRecovering);
        // The hook runs under the lifecycle mutex: transitions stay
        // serialized, and dispatch never takes this mutex so delivery is
        // not blocked while the node state-transfers.
        if (recovery_handlers_[node]) recovery_handlers_[node](up);
        states_[node]->lifecycle.store(NodeLifecycle::kRunning);
        recovered_at_[node] = up;
      }
    }
  }
  for (Delivery& d : silenced) d.respond(nullptr);
  lifecycle_cv_.notify_all();
}

std::optional<std::uint64_t> Cluster::wait_until_running(NodeId node,
                                                         Duration timeout) {
  assert(node < nodes_);
  util::MutexLock lock(lifecycle_mutex_);
  const bool up = lifecycle_cv_.wait_for(lifecycle_mutex_, timeout, [&] {
    return states_[node]->lifecycle.load() == NodeLifecycle::kRunning;
  });
  if (!up) return std::nullopt;
  return recovered_at_[node];
}

Duration Cluster::jitter_for(NodeId from, NodeId to,
                             const std::string& method,
                             std::uint64_t iteration) const {
  return options_.conditions.jitter_for(from, to, method, iteration,
                                        options_.seed);
}

Duration Cluster::serialization_delay(NodeId from, NodeId to,
                                      std::size_t frame_bytes,
                                      std::uint64_t window_iteration) {
  if (!busy_until_us_ || frame_bytes == 0) return Duration{0};
  const double rate =
      options_.conditions.byte_rate(from, to, window_iteration);
  if (rate <= 0.0) return Duration{0};
  const auto ser =
      std::int64_t(double(frame_bytes) / rate * 1e6);
  // Busy-queue: reserve [start, start + ser) on the directed edge with a
  // CAS race — a message departing while the link still drains a prior
  // frame waits out the difference. Wall-clock state: it shapes delivery
  // *timing* only (who waits how long), never which payload arrives, so
  // sync trajectories stay bitwise deterministic.
  std::atomic<std::int64_t>& busy = busy_until_us_[from * nodes_ + to];
  const std::int64_t now_us =
      std::chrono::duration_cast<Duration>(Clock::now().time_since_epoch())
          .count();
  std::int64_t prev = busy.load(std::memory_order_relaxed);
  std::int64_t start;
  do {
    start = std::max(prev, now_us);
  } while (!busy.compare_exchange_weak(prev, start + ser,
                                       std::memory_order_relaxed));
  return Duration{(start - now_us) + ser};
}

void Cluster::deliver_local(Request request, Clock::time_point deadline,
                            Transport::Respond respond) {
  if (transport_->remote()) {
    // A remote callee has no local loop threads driving its churn
    // schedule: the arrival itself carries the caller's notion of
    // training time, so advance on it. Gated on remote() so the
    // in-process path's transition points are exactly the pre-seam ones.
    advance_lifecycle(request.window_iteration ? *request.window_iteration
                                               : request.iteration);
  }
  dispatch(Delivery{std::move(request), deadline, std::move(respond)});
}

void Cluster::dispatch(Delivery delivery) {
  NodeState& callee = *states_[delivery.request.to];
  for (;;) {
    // A crashed callee is fail-silent: the caller never hears back. We
    // deliver nullptr so single-call users don't hang; Collector users
    // see it as a missing reply, preserving quorum semantics.
    if (callee.lifecycle.load() != NodeLifecycle::kRunning) {
      delivery.respond(nullptr);
      return;
    }
    Handler handler;
    std::uint64_t epoch = 0;
    {
      util::MutexLock lock(callee.mutex);
      auto it = callee.handlers.find(delivery.request.method);
      if (it != callee.handlers.end()) handler = it->second;
      epoch = callee.wake_epoch;
    }
    if (!handler) {
      delivery.respond(nullptr);
      return;
    }
    HandlerResult result = handler(delivery.request);
    if (!result.park) {
      // Counted here, by the sender of the reply: over tcp that is the
      // callee's process, as call() is the caller's for the argument.
      if (result.payload) note_saved(*result.payload);
      delivery.respond(std::move(result.payload));
      return;
    }
    if (park(delivery, epoch)) return;
  }
}

void Cluster::note_saved(const Payload& sent) {
  // Under codec=none this is the looks_encoded test alone: the shared
  // counter is touched only by frames that saved something.
  if (const std::uint64_t saved = Codec::saved_bytes(sent); saved != 0) {
    bytes_saved_.fetch_add(saved, std::memory_order_relaxed);
  }
}

bool Cluster::park(Delivery& delivery, std::uint64_t epoch) {
  NodeState& callee = *states_[delivery.request.to];
  bool dropped = false;
  {
    util::MutexLock lock(callee.mutex);
    if (closing_.load()) {
      dropped = true;
    } else if (callee.lifecycle.load() == NodeLifecycle::kRunning) {
      // The answer may have been created between the handler's "not yet"
      // and this lock: a notify in that window moved the epoch.
      if (callee.wake_epoch != epoch) return false;
      if (delivery.deadline >= callee.sweep_due ||
          arm_sweep(delivery.request.to, callee, delivery.deadline)) {
        callee.parked.push_back(std::move(delivery));
        return true;
      }
      dropped = true;  // teardown stopped the clock under us
    }
  }
  if (dropped) dropped_tasks_.fetch_add(1, std::memory_order_relaxed);
  delivery.respond(nullptr);
  return true;
}

bool Cluster::run_after(Duration delay, std::function<void()>&& task) {
  return delay.count() <= 0 ? pool_.submit(std::move(task))
                            : timer_.schedule_after(delay, std::move(task));
}

bool Cluster::arm_sweep(NodeId node, NodeState& state,
                        Clock::time_point due) {
  // Rounded up so the sweep never fires before the deadline it serves.
  const Duration delay = std::chrono::ceil<Duration>(due - Clock::now());
  if (!run_after(delay, [this, node, due] {
        sweep_deadlines(node, due);
      })) {
    return false;
  }
  state.sweep_due = due;
  return true;
}

void Cluster::sweep_deadlines(NodeId node, Clock::time_point due) {
  NodeState& state = *states_[node];
  std::vector<Delivery> expired;
  std::size_t dropped = 0;
  {
    util::MutexLock lock(state.mutex);
    if (state.sweep_due != due) return;  // an earlier arm superseded us
    state.sweep_due = Clock::time_point::max();
    const Clock::time_point now = Clock::now();
    const auto live = std::partition(
        state.parked.begin(), state.parked.end(),
        [now](const Delivery& d) { return d.deadline > now; });
    std::move(live, state.parked.end(), std::back_inserter(expired));
    state.parked.erase(live, state.parked.end());
    if (!state.parked.empty()) {
      const Clock::time_point next =
          std::min_element(state.parked.begin(), state.parked.end(),
                           [](const Delivery& a, const Delivery& b) {
                             return a.deadline < b.deadline;
                           })
              ->deadline;
      if (!arm_sweep(node, state, next)) {
        dropped = state.parked.size();
        std::move(state.parked.begin(), state.parked.end(),
                  std::back_inserter(expired));
        state.parked.clear();
      }
    }
  }
  dropped_tasks_.fetch_add(dropped, std::memory_order_relaxed);
  for (Delivery& d : expired) d.respond(nullptr);
}

void Cluster::notify_ready(NodeId node) {
  assert(node < nodes_);
  NodeState& state = *states_[node];
  std::vector<Delivery> woken;
  {
    util::MutexLock lock(state.mutex);
    ++state.wake_epoch;
    woken.swap(state.parked);
  }
  for (Delivery& d : woken) dispatch(std::move(d));
}

void Cluster::call(NodeId from, NodeId to, const std::string& method,
                   std::uint64_t iteration, PayloadPtr argument,
                   std::function<void(PayloadPtr)> on_done,
                   Duration timeout,
                   std::optional<std::uint64_t> window_iteration) {
  call_until(from, to, method, iteration, std::move(argument),
             std::move(on_done), Clock::now() + timeout, window_iteration,
             nullptr);
}

void Cluster::call_until(NodeId from, NodeId to, const std::string& method,
                         std::uint64_t iteration, PayloadPtr argument,
                         Callback on_done, Clock::time_point deadline,
                         std::optional<std::uint64_t> window_iteration,
                         FanOut* fanout) {
  assert(from < nodes_ && to < nodes_);
  requests_sent_.fetch_add(1, std::memory_order_relaxed);
  if (argument) {
    floats_transferred_.fetch_add(argument->size(),
                                  std::memory_order_relaxed);
    note_saved(*argument);
  }
  auto cb = std::make_shared<Callback>(std::move(on_done));
  send_attempt(from, to, method, iteration, std::move(argument),
               std::move(cb), deadline, 0, window_iteration, fanout);
}

void Cluster::send_attempt(NodeId from, NodeId to, const std::string& method,
                           std::uint64_t iteration, PayloadPtr argument,
                           CallbackPtr cb, Clock::time_point deadline,
                           std::uint32_t attempt,
                           std::optional<std::uint64_t> window_iteration,
                           FanOut* fanout) {
  // The SENDER resolves the fault verdict: it is a pure hash of
  // (seed, edge, method, iteration, attempt), so the caller knows a lost
  // attempt is lost without waiting out a timeout — the retry fires after
  // a backoff, and both transport backends replay the identical schedule.
  const NetworkConditions::FaultVerdict verdict =
      options_.conditions.fault_verdict(from, to, method, iteration,
                                        options_.seed, attempt,
                                        window_iteration);
  // Latency + jitter + slow links + straggler and partition lag; the
  // payload-proportional serialization is added below, once the frame
  // exists.
  const Duration delay =
      options_.conditions.delay(from, to, method, iteration, options_.seed,
                                window_iteration) +
      verdict.spike_delay;
  if (verdict.drop || verdict.corrupt || verdict.dup) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (verdict.lost()) {
    if (verdict.corrupt && transport_->remote()) {
      // Ship the damage for real on the multi-process backend: the frame
      // goes out after its delay with a flipped body byte, the receiver's
      // stream CRC discards it (FrameDecoder::corrupt_frames), and the
      // transport resolves the doomed exchange immediately into a no-op —
      // the retry below is the recovery path, exactly as for a drop. A
      // refusal (teardown) just never ships the damage.
      Request doomed{from,      to,       method, iteration, argument,
                     window_iteration};
      doomed.wire_corrupt = true;
      (void)run_after(delay, [this, doomed = std::move(doomed),
                              deadline]() mutable {
        transport_->send(std::move(doomed), deadline, [](PayloadPtr) {});
      });
    }
    const Duration backoff =
        send_backoff(options_.seed, from, to, iteration, attempt);
    if (attempt + 1 >= kMaxSendAttempts ||
        retry_gives_up(Clock::now() + backoff, deadline)) {
      // Bounded degradation: the caller sees a silent peer, its collect()
      // books a quorum miss if q becomes unreachable — never a hang.
      retry_give_ups_.fetch_add(1, std::memory_order_relaxed);
      (*cb)(nullptr);
      return;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    // A retry is a delayed step: it never joins a fan-out.
    std::function<void()> task = [this, from, to, method, iteration,
                                  argument = std::move(argument),
                                  cb = std::move(cb), deadline, attempt,
                                  window_iteration]() mutable {
      send_attempt(from, to, method, iteration, std::move(argument),
                   std::move(cb), deadline, attempt + 1, window_iteration,
                   nullptr);
    };
    if (!run_after(backoff, std::move(task))) {
      dropped_tasks_.fetch_add(1, std::memory_order_relaxed);
      (*cb)(nullptr);
    }
    return;
  }
  Request request{from,      to,       method, iteration, std::move(argument),
                  window_iteration};
  const std::uint64_t window = window_iteration.value_or(iteration);
  // Bandwidth-honest request leg: the frame costs its bytes at the edge's
  // rate (plus any wait behind a draining link) before the latency path.
  const Duration send_delay =
      delay + serialization_delay(from, to, request_frame_bytes(request),
                                  window);
  // Caller-side reply accounting rides the respond path: the transport
  // invokes this on whichever thread produced the reply.
  Transport::Respond wrapped = [this, cb, from, to, window,
                                dup = verdict.dup](PayloadPtr payload) {
    if (payload) {
      // Floats first, then the release bump of replies_received_: the
      // snapshot's acquire load of replies_received_ (stats()) then also
      // covers this reply's float accounting.
      floats_transferred_.fetch_add(payload->size(),
                                    std::memory_order_relaxed);
      replies_received_.fetch_add(1, std::memory_order_release);
      if (dup) {
        // fault:dup models a duplicated delivery of this reply; the RPC
        // layer is idempotent, so the second copy is suppressed here and
        // surfaces only as a wasted (crafted-and-discarded) reply.
        wasted_replies_.fetch_add(1, std::memory_order_relaxed);
      }
      // Bandwidth-honest reply leg: a fat reply drains the reverse edge
      // (to, from) for bytes / rate; defer the caller's callback by that
      // long. Accounting above already happened — the deferral shapes
      // when the caller *sees* the reply, not whether.
      const Duration ser = serialization_delay(
          to, from, reply_frame_bytes(payload), window);
      if (ser.count() > 0) {
        std::function<void()> deliver = [cb, payload]() mutable {
          (*cb)(std::move(payload));
        };
        if (run_after(ser, std::move(deliver))) return;
        // Shutdown began: deliver inline rather than losing the reply.
      }
    }
    (*cb)(std::move(payload));
  };
  if (fanout != nullptr && send_delay.count() <= 0) {
    fanout->sends.push_back(
        Delivery{std::move(request), deadline, std::move(wrapped),
                 states_[to]->handler_ns.load(std::memory_order_relaxed)});
    return;
  }
  std::function<void()> task = [this, request = std::move(request), deadline,
                                wrapped = std::move(wrapped)]() mutable {
    transport_->send(std::move(request), deadline, std::move(wrapped));
  };
  if (!run_after(send_delay, std::move(task))) {
    // Teardown already began: count the drop and resolve the callback so
    // a concurrent collect() sees a response instead of hanging into its
    // deadline.
    dropped_tasks_.fetch_add(1, std::memory_order_relaxed);
    (*cb)(nullptr);
  }
}

void Cluster::drain(const std::shared_ptr<FanOut>& fanout) {
  const std::size_t total = fanout->sends.size();
  // Each participant wakes at most one helper, so helpers join as a chain:
  // cheap handlers are all run before the first helper is up, and the
  // caller pays one wake-up, not one per pool thread.
  bool woke = false;
  for (;;) {
    const std::size_t i =
        fanout->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) return;
    if (!woke && i + 1 < total) woke = wake_helper(fanout);
    Delivery& send = fanout->sends[i];
    // Timed, its handler included, for the order of later fan-outs.
    NodeState& callee = *states_[send.request.to];
    const Clock::time_point start = Clock::now();
    transport_->send(std::move(send.request), send.deadline,
                     std::move(send.respond));
    callee.handler_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count(),
        std::memory_order_relaxed);
  }
}

void Cluster::order_longest_first(std::vector<Delivery>& sends) {
  for (std::size_t i = 1; i < sends.size(); ++i) {
    Delivery send = std::move(sends[i]);
    std::size_t j = i;
    // Strictly less: an equal key stays behind its predecessor.
    for (; j > 0 && sends[j - 1].expected_ns < send.expected_ns; --j) {
      sends[j] = std::move(sends[j - 1]);
    }
    sends[j] = std::move(send);
  }
}

bool Cluster::helpers_can_join() const {
  // With as many callers in collect() as pool threads, each caller drains
  // its own sends and no send crosses threads.
  return collectors_.value.load(std::memory_order_relaxed) < pool_.size();
}

bool Cluster::wake_helper(const std::shared_ptr<FanOut>& fanout) {
  if (!helpers_can_join()) return false;
  const std::size_t threads = pool_.size();
  std::size_t participants =
      fanout->participants.load(std::memory_order_relaxed);
  do {
    if (participants >= threads) return false;
  } while (!fanout->participants.compare_exchange_weak(
      participants, participants + 1, std::memory_order_relaxed));
  if (!pool_.submit([this, fanout] { drain(fanout); })) {
    // Teardown refused the helper; the participants left drain it all.
    fanout->participants.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::vector<Reply> Cluster::collect(
    NodeId from, std::span<const NodeId> peers, const std::string& method,
    std::uint64_t iteration, PayloadPtr argument, std::size_t q,
    Duration timeout, std::optional<std::uint64_t> window_iteration) {
  if (q > peers.size()) {
    throw std::invalid_argument("Cluster::collect: q=" + std::to_string(q) +
                                " > peers=" + std::to_string(peers.size()));
  }
  // From entry, not from the end of the drain: a caller that ran a slow
  // handler inline still returns on time.
  const Clock::time_point deadline = Clock::now() + timeout;
  // Counted until return, on a throwing handler too.
  class Inside {
   public:
    explicit Inside(std::atomic<std::size_t>& count) : count_(count) {
      count_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Inside() { count_.fetch_sub(1, std::memory_order_relaxed); }
    Inside(const Inside&) = delete;
    Inside& operator=(const Inside&) = delete;

   private:
    std::atomic<std::size_t>& count_;
  } inside(collectors_.value);
  struct State {
    explicit State(std::size_t q) { replies.reserve(q); }
    util::Mutex mutex;
    util::CondVar cv;
    std::vector<Reply> replies GARFIELD_GUARDED_BY(mutex);
    /// Responses seen, including declined/crashed callbacks.
    std::size_t responses GARFIELD_GUARDED_BY(mutex) = 0;
    /// Caller harvested; late replies are wasted.
    bool closed GARFIELD_GUARDED_BY(mutex) = false;
  };
  auto state = std::make_shared<State>(q);
  const std::size_t total = peers.size();
  std::shared_ptr<FanOut> fanout;
  if (q == total) {
    fanout = std::make_shared<FanOut>();
    fanout->sends.reserve(total);
  }
  for (NodeId peer : peers) {
    call_until(
        from, peer, method, iteration, argument,
        [this, state, peer, q, total](PayloadPtr payload) {
          util::MutexLock lock(state->mutex);
          ++state->responses;
          if (payload) {
            if (!state->closed && state->replies.size() < q) {
              // Refcount bump only — the payload stays wherever the callee
              // keeps it.
              state->replies.push_back(Reply{peer, std::move(payload)});
            } else {
              // Crafted, transferred, and already useless: the quorum was
              // met by faster peers (or the caller gave up at its
              // deadline).
              wasted_replies_.fetch_add(1, std::memory_order_relaxed);
            }
          }
          // Wake the collector only when its wait predicate can pass —
          // notifying on every response would context-switch it q times
          // per pull for nothing.
          if (state->replies.size() >= q || state->responses == total) {
            state->cv.notify_all();
          }
        },
        deadline, window_iteration, fanout.get());
  }
  if (fanout) {
    // Only helpers make the order matter: a lone participant runs every
    // send anyway. A tcp caller runs no remote handler, so its sends' times
    // say nothing of one.
    if (!transport_->remote() && helpers_can_join()) {
      order_longest_first(fanout->sends);
    }
    drain(fanout);
  }
  std::vector<Reply> replies;
  {
    util::MutexLock lock(state->mutex);
    (void)state->cv.wait_until(
        state->mutex, deadline, [&]() GARFIELD_REQUIRES(state->mutex) {
          return state->replies.size() >= q || state->responses == total;
        });
    state->closed = true;
    // Deadline expired short of quorum (or every responder resolved
    // silent): record it, so churn/straggler scenarios are distinguishable
    // from runs that genuinely met q, instead of just looking slow.
    if (state->replies.size() < q) {
      quorum_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    replies = std::move(state->replies);
  }
  // Fastest-q decides *membership*; normalize the order by origin id so
  // downstream floating-point reductions (e.g. averaging) are
  // bit-reproducible whenever the membership is.
  std::sort(replies.begin(), replies.end(),
            [](const Reply& a, const Reply& b) { return a.from < b.from; });
  return replies;
}

NetStats Cluster::stats() const {
  NetStats s;
  // Single acquire point for the whole snapshot: pairs with the release
  // increment on call()'s reply path. Every write that happened-before an
  // observed
  // reply bump — its request's requests_sent_/floats_transferred_
  // accounting, the reply's own float count — is therefore visible to the
  // relaxed loads below, so replies_received <= requests_sent holds in
  // every snapshot, even taken mid-flight. Beyond that pairing the
  // counters are independent relaxed monotone counts (nothing is published
  // through them), so no stronger ordering is required; exact cross-field
  // equalities (e.g. floats vs replies) are only asserted at quiescence.
  s.replies_received = replies_received_.load(std::memory_order_acquire);
  s.requests_sent = requests_sent_.load(std::memory_order_relaxed);
  s.floats_transferred = floats_transferred_.load(std::memory_order_relaxed);
  s.wasted_replies = wasted_replies_.load(std::memory_order_relaxed);
  s.quorum_misses = quorum_misses_.load(std::memory_order_relaxed);
  s.dropped_tasks = dropped_tasks_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retry_give_ups = retry_give_ups_.load(std::memory_order_relaxed);
  s.peer_deaths = transport_->peer_deaths();
  // Reply frame costs are charged before the release bump above pairs
  // with this snapshot's acquire, so every observed reply's bytes are
  // covered; a request's bytes are charged when the transport moves it,
  // before its reply exists.
  s.bytes_sent = transport_->bytes_sent();
  s.bytes_received = transport_->bytes_received();
  s.bytes_saved = bytes_saved_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace garfield::net
