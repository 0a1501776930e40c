// Per-deployment iteration-latency composition.
//
// simulate_iteration() prices one training iteration of a live
// core::DeploymentConfig on the modelled cluster and returns the same
// breakdown the paper measures (Fig 7/16): computation, communication
// (transfer + serialization + RPC overhead + straggler/partition waits)
// and robust aggregation. Throughput figures (Fig 6, 8, 9, 10, 13, 14, 15)
// are derived from it.
//
// The sim is the timing model of the live round plan (core/round_plan.h):
// it walks the same stages the live loop runs — computation, the gradient
// stage, the gossip rounds, then the model stage — and takes each stage's
// quorum, span, rule and f from the plan. A stage whose span contains the
// puller (the reporting server or peer, id 0) is an all-to-all over that
// span; the worker-span stage is the fan-in, including model
// distribution. Only the traffic model is the sim's own calibrated choice:
// how many servers pull gradients and how many send the model.
//
// Stage model: every communication stage costs
//     latency + max-per-node-NIC-floats / link-bandwidth
//             + serialized-floats * 2 / serialize-rate
//             + stage-floats-total / fabric-capacity
// The fabric term models switch contention: parameter-server traffic is
// O(n) per iteration, decentralized traffic is O(n^2) — which is exactly
// why decentralized learning does not scale (Fig 9a).
//
// Network conditions: the same net::NetworkConditions spec that drives the
// live cluster drives this plane (the cross-validation contract). Per pull
// stage the model resolves, from the parsed spec, whether the awaited
// quorum can dodge the degraded responders:
//  - heterogeneous slow links force the stage onto the degraded edge class
//    (cost_model's degraded()) whenever q exceeds the fast responders;
//  - an active straggler phase adds its full lag whenever q cannot be met
//    without a straggling responder — which is exactly why an asynchronous
//    n-f quorum rides out stragglers a synchronous deployment waits on;
//  - an active partition window adds its delivery lag whenever q cannot be
//    met on the puller's side of the cut (messages are delayed, not
//    dropped — the pre-GST partial-synchrony regime);
//  - jitter contributes the expected tail of the q-th fastest reply;
//  - a configured byte rate (wan bw=, link: overrides) caps the stage's
//    edge bandwidth at the spec's rate — the puller's own overrides always
//    bind, responder-side overrides only when the quorum cannot be met
//    without a limited responder (the usual fastest-q dodge), and the
//    hetero factor derates the capped rate on degraded stages exactly as
//    the live cluster derates byte_rate() — the analytic twin of the
//    cluster's per-message serialization delay;
//  - a churn schedule removes its down nodes from the stage's candidate
//    pool outright (they are absent, not slow) and clamps the quorum to
//    what remains — the analytic twin of the live cluster's lifecycle FSM
//    refusing delivery to CRASHED nodes, so both planes walk the same
//    per-iteration quorum trajectory;
//  - an active fault clause charges the expected retry tail of its lost
//    attempts (drop + corrupt, each resent after the live sender's
//    backoff floor) plus its expected delay-spike mass whenever the
//    quorum cannot dodge the affected edges — the analytic twin of the
//    cluster's bounded retry layer, zero outside the fault window.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "sim/cost_model.h"
#include "sim/model_spec.h"

namespace garfield::sim {

/// A live config plus the projection fields it lacks (`d` onward). The
/// sim parses two of the config's specs itself: `network`, whose node ids
/// follow the live layout (the plan's spans), and `codec`, which shrinks
/// gradient payloads by the codec's wire ratio and model payloads (model
/// distribution and the model stage) by int8's whenever the codec is lossy
/// (config.h `codec`).
struct SimSetup {
  core::DeploymentConfig config;
  /// Model dimension (ResNet-50 default); the live plane's comes from its
  /// model.
  std::size_t d = 23539850;
  DeviceProfile device = cpu_profile();
  /// The fast edge class; a hetero clause derives the slow class via
  /// degraded(link, factor).
  LinkProfile link{};
  /// Native-runtime baseline (vanilla TF / PyTorch): optimized collectives,
  /// no per-message protobuf serialization, streaming aggregation.
  bool native_runtime = false;
  /// PyTorch-backend Garfield (§4.2): per-layer pipelining overlaps
  /// communication with aggregation.
  bool pipelined = false;
  /// Switch-fabric capacity in units of link bandwidth.
  double fabric_links = 8.0;
  /// Iteration the breakdown is computed for — straggler phases, partition
  /// windows and windowed wan phases (latency/jitter/bandwidth) are
  /// iteration-scheduled, so the breakdown is a function of *when* you
  /// look.
  std::uint64_t iteration = 0;
};

struct IterationBreakdown {
  double computation = 0.0;
  double communication = 0.0;
  double aggregation = 0.0;

  [[nodiscard]] double total() const {
    return computation + communication + aggregation;
  }
};

/// Latency composition of one iteration at the reporting server/peer.
[[nodiscard]] IterationBreakdown simulate_iteration(const SimSetup& setup);

/// Model updates per second (1 / iteration latency).
[[nodiscard]] double updates_per_sec(const SimSetup& setup);

/// Mini-batches processed per second (nw per iteration — employing more
/// workers grows the effective batch, Fig 8's metric).
[[nodiscard]] double batches_per_sec(const SimSetup& setup);

/// Communication component only (Fig 9's metric).
[[nodiscard]] double communication_time(const SimSetup& setup);

/// Slowdown of `setup` relative to the native vanilla baseline on the same
/// device/model (Fig 6/15's metric). The native runtime has no Garfield
/// codec, so the baseline always ships dense payloads.
[[nodiscard]] double slowdown_vs_vanilla(const SimSetup& setup);

}  // namespace garfield::sim
