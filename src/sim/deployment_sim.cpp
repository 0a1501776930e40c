#include "sim/deployment_sim.h"

#include <algorithm>

#include "core/round_plan.h"
#include "net/codec.h"
#include "net/conditions.h"

namespace garfield::sim {

namespace {

/// Deserialization of many concurrent replies is spread over this many
/// cores (§4.1: "we parallelize the replicated communication").
constexpr double kSerParallelism = 8.0;

/// The live sender's first retry backoff (net/cluster.cpp
/// kSendBackoffFloor) — the dominant per-retry cost the analytic twin
/// charges for fault-induced resends (later attempts double it, but the
/// geometric attempt distribution keeps the first term in charge for the
/// small loss rates the grammar targets).
constexpr double kRetryBackoffFloor = 50e-6;

/// One simulate_iteration() call: the setup plus what it parses out of
/// the setup's config once.
struct Pricing {
  const SimSetup& s;
  net::NetworkConditions conditions;
  double gradient_ratio = 1.0;  ///< wire floats per model float, gradients
  double state_ratio = 1.0;     ///< the same for model payloads
};

/// What the parsed NetworkConditions do to one pull stage (see header).
struct StageNet {
  double link_factor = 1.0;  ///< slowest edge class the quorum must cross
  double wait = 0.0;         ///< unavoidable straggler/partition/jitter lag
  double byte_rate = 0.0;    ///< spec-capped edge rate, bytes/s (0 = none)
};

/// Resolve a pull by node `from` over candidate responders [lo, hi)
/// awaiting the fastest q replies. A degraded responder only costs the
/// stage when the quorum cannot be met without it — fastest-q dodges slow
/// links, stragglers and cut-off peers as long as enough healthy
/// responders remain.
StageNet resolve_pull(const Pricing& p, std::size_t from, std::size_t lo,
                      std::size_t hi, std::size_t q) {
  const SimSetup& s = p.s;
  const net::NetworkConditions& c = p.conditions;
  StageNet net;
  std::size_t avail = hi - lo;
  std::size_t slow = c.count_slow(lo, hi);
  std::size_t straggling = c.count_straggling(lo, hi, s.iteration);
  std::size_t cross = c.count_cross(from, lo, hi, s.iteration);
  if (from >= lo && from < hi) {  // peer pulls never await the puller
    avail -= 1;
    if (c.is_slow(from)) slow -= 1;
    if (c.is_straggling(from, s.iteration)) straggling -= 1;
  }
  // Churn removes a down node from the candidate pool entirely — it is
  // not slow, it is absent: the live plane refuses delivery to it, so the
  // analytic plane shrinks the pool (and each degraded class the node
  // belonged to) the same way. The quorum clamp below then reproduces the
  // live trajectory q' = min(q, span - count_down).
  if (c.has_churn()) {
    for (std::size_t node = lo; node < hi; ++node) {
      if (node == from || !c.churn_down(node, s.iteration)) continue;
      avail -= 1;
      if (c.is_slow(node) && slow > 0) slow -= 1;
      if (c.is_straggling(node, s.iteration) && straggling > 0) straggling -= 1;
      if (c.partitioned(from, node, s.iteration) && cross > 0) cross -= 1;
    }
  }
  // A slow puller degrades every edge it uses, regardless of who answers.
  if (c.is_slow(from)) slow = avail;
  q = std::min(q, avail);
  if (q + slow > avail) net.link_factor = c.slow_factor();
  if (q + straggling > avail) net.wait += c.straggler_lag_seconds(s.iteration);
  if (q + cross > avail) net.wait += c.partition_lag_seconds(s.iteration);
  // Bandwidth: the active wan rate binds every edge; the puller's own link
  // overrides always bind (every reply crosses them); responder-side
  // overrides bind only when the quorum cannot be met without a limited
  // responder — the same fastest-q dodge as every other degraded class.
  // The rate is pre-hetero: stage_time's degraded() derates bandwidth by
  // the factor, matching the live byte_rate()'s rate / factor. (Churn
  // shrinking the link-limited count is deliberately ignored — a small
  // conservative approximation the crossval suite does not pin.)
  {
    double rate = c.wan_byte_rate(s.iteration);
    const double own = c.link_rate_touching(from);
    if (own > 0.0) rate = rate > 0.0 ? std::min(rate, own) : own;
    std::size_t limited = c.count_link_limited(lo, hi);
    if (from >= lo && from < hi && limited > 0 &&
        c.link_rate_touching(from) > 0.0) {
      limited -= 1;
    }
    if (limited > 0 && q + limited > avail) {
      const double lim = c.min_link_rate(lo, hi);
      if (lim > 0.0) rate = rate > 0.0 ? std::min(rate, lim) : lim;
    }
    net.byte_rate = rate;
  }
  // Fault clause: a lost attempt (drop, or a corrupt frame the receiver's
  // CRC discards) surfaces on the live plane as a sender-side retry after
  // an exponential backoff — never as a hang. The analytic twin charges
  // the expected retry tail, p/(1-p) extra attempts each costing the
  // backoff floor plus a fresh edge traversal, and the expected
  // delay-spike mass, whenever the quorum cannot be met without a
  // fault-affected edge (the same fastest-q dodge as every other degraded
  // class). An ideal spec — or an iteration outside the fault window —
  // contributes exactly zero, which is what keeps the crossval
  // equalities between conditioned and unconditioned breakdowns exact.
  if (c.has_fault()) {
    std::size_t faulty;
    if (c.fault_active(from, from, s.iteration)) {
      faulty = avail;  // the puller's own edges are in the clause's set
    } else {
      faulty = c.count_faulty(lo, hi, s.iteration);
      if (c.has_churn()) {
        for (std::size_t node = lo; node < hi; ++node) {
          if (node == from || !c.churn_down(node, s.iteration)) continue;
          if (faulty > 0 && c.fault_active(from, node, s.iteration)) --faulty;
        }
      }
    }
    if (faulty > 0 && q + faulty > avail) {
      const double p = std::min(c.fault_loss_rate(), 0.99);
      const double edge_latency =
          s.link.latency + c.latency_seconds(s.iteration);
      net.wait += p / (1.0 - p) * (kRetryBackoffFloor + edge_latency) +
                  c.fault_spike_seconds();
    }
  }
  // Expected tail of the q-th fastest of `avail` jittered replies: the
  // q-th order statistic of U[0, J) draws.
  if (avail > 0) {
    net.wait += c.jitter_seconds(s.iteration) * double(q) / double(avail + 1);
  }
  return net;
}

/// One communication stage (see header for the stage model).
/// ratio: wire floats per model float of the stage's payload class.
/// nic_floats: the largest per-node send-or-receive volume of the stage.
/// ser_floats: floats (de)serialized at the busiest node, already divided
///             by kSerParallelism where calls are concurrent.
/// total_floats: volume crossing the switch fabric.
double stage_time(const Pricing& p, double ratio, double nic_floats,
                  double ser_floats, double total_floats,
                  const StageNet& net) {
  const SimSetup& s = p.s;
  // Codec compression shrinks what crosses the wire and the serializers,
  // never the model itself.
  nic_floats *= ratio;
  ser_floats *= ratio;
  total_floats *= ratio;
  LinkProfile edge{s.link.bandwidth_floats,
                   s.link.latency + p.conditions.latency_seconds(s.iteration)};
  // A spec byte rate caps the edge (4 bytes per wire float); degraded()
  // below then derates the capped rate by the hetero factor, matching the
  // live plane's byte_rate() / factor composition.
  if (net.byte_rate > 0.0) {
    edge.bandwidth_floats =
        std::min(edge.bandwidth_floats, net.byte_rate / 4.0);
  }
  if (net.link_factor > 1.0) edge = degraded(edge, net.link_factor);
  double t = edge.latency + nic_floats / edge.bandwidth_floats +
             total_floats / (s.fabric_links * s.link.bandwidth_floats) +
             net.wait;
  if (!s.native_runtime) {
    t += ser_floats / s.device.serialize_rate + s.device.rpc_overhead;
  }
  return t;
}

/// Walk the live round plan at the reporting server/peer (id 0):
/// computation, the gradient stage, the gossip rounds, the model stage.
IterationBreakdown walk_plan(const Pricing& p) {
  const SimSetup& s = p.s;
  const core::DeploymentConfig& cfg = s.config;
  const core::RoundPlan plan = core::plan_round(cfg);
  const double dd = double(s.d);
  IterationBreakdown b;

  // The traffic model: servers pulling gradients this iteration (they
  // attach their model), and servers sending workers the model.
  const bool replicated = cfg.deployment == core::Deployment::kCrashTolerant ||
                          cfg.deployment == core::Deployment::kMsmw;
  const double pulling_servers = replicated ? double(cfg.nps) : 1.0;
  const double model_senders =
      cfg.deployment == core::Deployment::kMsmw ? double(cfg.nps) : 1.0;

  // One pull stage's traffic, awaiting the fastest `awaited` replies.
  const auto communicate = [&](const core::Stage& stage,
                               std::size_t awaited, double ratio) {
    const StageNet net = resolve_pull(p, 0, stage.lo, stage.hi, awaited);
    const double m = double(stage.hi - stage.lo);
    if (stage.lo == 0) {
      // The span holds the puller: an all-to-all where every member sends
      // to and receives from all others — O(m^2) messages per round, the
      // scalability killer of Fig 9a.
      const double peers = m - 1.0;
      b.communication +=
          stage_time(p, ratio, peers * dd, dd + peers * dd / kSerParallelism,
                     m * peers * dd, net);
      return;
    }
    // The worker span: a fan-in. First the model goes out. The sender
    // serializes it once and reuses the buffer for every destination;
    // receivers deserialize model_senders copies each. The quorum's
    // workers must receive the model, so the distribution rides the same
    // degraded edges as the gradient pull (without double-counting the
    // quorum waits — those bind once, at collection).
    b.communication += stage_time(
        p, p.state_ratio,
        std::max(m * dd, model_senders * dd),  // server out vs worker in
        (1.0 + model_senders) * dd, model_senders * m * dd,
        StageNet{net.link_factor, 0.0});
    // Then every pulling server receives the quorum's gradients
    // (deserialized on parallel RPC threads); every worker serializes once
    // and uploads to every pulling server. Straggler lag, partition lag
    // and the jitter tail the quorum cannot dodge bind here.
    const double q = double(awaited);
    b.communication +=
        stage_time(p, ratio, std::max(q * dd, pulling_servers * dd),
                   dd + q * dd / kSerParallelism, pulling_servers * q * dd,
                   net);
  };
  const auto aggregate = [&](const core::Stage& stage) {
    const double t =
        gar_time(stage.spec.name, stage.inputs, stage.f, s.d, s.device);
    // reduce()-style streaming aggregation hides behind communication.
    b.aggregation += s.native_runtime ? 0.1 * t : t;
  };

  // Gradient computation at every worker in parallel.
  b.computation += s.device.iteration_overhead +
                   dd * double(cfg.batch_size) / s.device.compute_rate;
  communicate(plan.grad, plan.grad.awaited, p.gradient_ratio);
  aggregate(plan.grad);
  // Non-iid contraction rounds gossip the aggregate; the replica's own is
  // the last input, so the pull awaits one reply fewer.
  for (std::size_t r = 0; r < plan.gossip_rounds; ++r) {
    communicate(plan.grad, plan.grad.awaited - 1, p.gradient_ratio);
    aggregate(plan.grad);
  }
  if (plan.model) {
    communicate(*plan.model, plan.model->awaited, p.state_ratio);
    aggregate(*plan.model);
  }
  return b;
}

}  // namespace

IterationBreakdown simulate_iteration(const SimSetup& setup) {
  // Model payloads degrade any lossy codec to int8 (net/codec.h).
  const net::CodecSpec codec = net::CodecSpec::parse(setup.config.codec);
  const net::CodecSpec state =
      codec.identity() ? codec : net::CodecSpec{net::CodecKind::kInt8};
  IterationBreakdown b = walk_plan(
      Pricing{setup, net::NetworkConditions::parse(setup.config.network),
              codec.wire_ratio(setup.d), state.wire_ratio(setup.d)});
  if (setup.native_runtime) {
    // The frameworks' own distributed runtimes overlap parameter pushes
    // with gradient pulls and stream transfers; model that as halving the
    // exposed communication time.
    b.communication *= 0.5;
  }
  if (setup.pipelined && !setup.native_runtime) {
    // §4.2: per-layer access lets the PyTorch backend overlap aggregation
    // with gradient transfer; the overlapped pair costs the max plus a
    // small residual rather than the sum.
    const double comm = b.communication;
    const double agg = b.aggregation;
    const double overlapped = std::max(comm, agg) + 0.2 * std::min(comm, agg);
    b.communication = overlapped * comm / (comm + agg);
    b.aggregation = overlapped * agg / (comm + agg);
    // Part of the computation also hides inside communication (Fig 16's
    // "less computation than vanilla" observation).
    b.computation *= 0.85;
  }
  return b;
}

double updates_per_sec(const SimSetup& setup) {
  return 1.0 / simulate_iteration(setup).total();
}

double batches_per_sec(const SimSetup& setup) {
  return double(setup.config.nw) * updates_per_sec(setup);
}

double communication_time(const SimSetup& setup) {
  return simulate_iteration(setup).communication;
}

double slowdown_vs_vanilla(const SimSetup& setup) {
  SimSetup vanilla = setup;
  vanilla.config.deployment = core::Deployment::kVanilla;
  vanilla.config.nps = 1;
  vanilla.config.codec = "none";  // the native runtime has no Garfield codec
  vanilla.native_runtime = true;
  vanilla.pipelined = false;
  return simulate_iteration(setup).total() /
         simulate_iteration(vanilla).total();
}

}  // namespace garfield::sim
