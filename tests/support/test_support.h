// Shared test support for garfield's gtest suites.
//
// Centralizes what every Byzantine-resilience test needs: seeded gradient
// clouds, attack-scenario fixtures that model garfield's server ingress
// (finite-payload filtering, silent nodes shrinking the quorum), tolerance
// helpers, and a ScenarioMatrix runner that sweeps GAR x attack x (n, f)
// cells of the paper's robustness claim.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "gars/gar.h"
#include "net/conditions.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/vecops.h"

namespace garfield::testsupport {

using tensor::FlatVector;
using tensor::Rng;

// ------------------------------------------------------- cloud generation

/// Parameters of a synthetic "honest" gradient cloud: every coordinate is
/// i.i.d. N(center, spread), mirroring the concentrated honest gradients
/// the paper's resilience proofs assume.
struct CloudSpec {
  std::size_t n = 0;
  std::size_t d = 32;
  float center = 1.0F;
  float spread = 0.1F;
};

/// Draw spec.n vectors from the spec's distribution using rng.
[[nodiscard]] std::vector<FlatVector> honest_cloud(const CloudSpec& spec,
                                                   Rng& rng);

// ------------------------------------------------------ tolerance helpers

/// Coordinate-wise mean. Precondition: !inputs.empty().
[[nodiscard]] FlatVector mean_of(std::span<const FlatVector> inputs);

/// Root-mean-square per-coordinate difference: ||a - b||_2 / sqrt(d).
/// Dimension-free, so one tolerance works across every d in a sweep.
[[nodiscard]] double rms_diff(const FlatVector& a, const FlatVector& b);

/// Largest absolute coordinate difference.
[[nodiscard]] double max_abs_diff(const FlatVector& a, const FlatVector& b);

// ------------------------------------------------------------ aggregation

/// Rows viewing `vectors`, for the calls that take gars::Rows. The rows
/// borrow: `vectors` must outlive every use of them.
[[nodiscard]] std::vector<gars::Row> rows(
    const std::vector<FlatVector>& vectors);
std::vector<gars::Row> rows(std::vector<FlatVector>&&) = delete;

/// `gar` over `inputs` with a fresh AggregationContext (a server keeps one
/// context across iterations; a test aggregates once).
[[nodiscard]] FlatVector aggregate(const gars::Gar& gar,
                                   const std::vector<FlatVector>& inputs);

/// Krum's pick among `inputs`, over a fresh distance cache of them.
[[nodiscard]] std::size_t krum_select(const gars::Krum& krum,
                                      const std::vector<FlatVector>& inputs);

// ------------------------------------------------------- attack scenarios

/// One GAR x attack x (n, f) cell. n counts expected inputs (honest plus
/// Byzantine); the fixture crafts the f Byzantine payloads from the attack
/// *plan* (attacks/registry.h grammar: a GAR-style spec like
/// "little_is_enough:z=2.5" applied to the whole cohort, or a ';'-separated
/// per-rank assignment like "little_is_enough:z=1.5;2*sign_flip"), giving
/// omniscient attacks the honest vectors as required. `gar` is a GAR spec
/// string; `iteration` feeds time-varying attacks' AttackContext.
struct Scenario {
  std::string gar;
  std::string attack;
  std::size_t n = 0;
  std::size_t f = 0;
  std::size_t d = 32;
  float center = 1.0F;
  float spread = 0.1F;
  std::uint64_t seed = 42;
  std::uint64_t iteration = 0;
  /// NetworkConditions spec (net/conditions.h grammar) the cell's inputs
  /// traverse; "" = ideal. Input nodes occupy ids [0, n) with the
  /// aggregating server colocated with partition group `a`: a node
  /// straggling at `iteration`, or cut off in group `b` during an active
  /// partition window, misses the quorum — its payload (honest or
  /// Byzantine) never reaches the GAR. Cells must stay sized so the
  /// surviving quorum satisfies gar_min_n(gar, f).
  std::string network;
  /// `fault:` clause (net/conditions.h grammar) composed onto `network`;
  /// "" = none. The ingress model mirrors the live cluster's bounded
  /// retry layer: a node's payload misses the quorum only when every
  /// attempt in the retry budget draws a losing fault verdict (drop or
  /// corrupt) — the give-up case — so modest loss rates leave the quorum
  /// whole and only near-certain loss silences a node, deterministically
  /// per (seed, edge, iteration).
  std::string fault;
  /// Transport backend a deployment-level consumer should run this cell
  /// under ("inproc" | "tcp", the DeploymentConfig::transport values).
  /// run_scenario() itself models server ingress above the transport seam
  /// and is backend-independent; the axis exists so deployment suites
  /// (transport_backend_test) sweep identical cells across backends.
  std::string transport = "inproc";
};

struct ScenarioResult {
  FlatVector aggregate;
  FlatVector honest_mean;   ///< mean of the n-f honest vectors
  double rms_deviation = 0; ///< rms_diff(aggregate, honest_mean)
  std::size_t received = 0; ///< inputs that survived ingress filtering
};

/// Run one cell. Models garfield's server ingress: non-finite payloads are
/// rejected and silent ("dropped") nodes contribute nothing, so the rule is
/// built for the received quorum with the same Byzantine budget f. The
/// caller must size n so that n - f >= gar_min_n(gar, f) — ScenarioMatrix
/// guarantees this by construction.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& scenario);

/// RMS tolerance under which `scenario`'s aggregate must stay of the honest
/// mean. A few honest spreads for resilient cells; deliberately loose for
/// the known-weak cells (e.g. norm-filtering CGE against the zero attack,
/// which pulls the aggregate toward the origin without looking like an
/// outlier) where only boundedness is guaranteed.
[[nodiscard]] double robustness_tolerance(const Scenario& scenario);

// --------------------------------------------------------- matrix runner

/// Sweep generator for the scenario matrix. For every (gar, f, slack)
/// combination it emits n = gar_min_n(gar, f) + f + slack expected inputs —
/// the +f keeps the quorum valid even when the whole Byzantine cohort goes
/// silent — crossed with every attack. The non-resilient "average" baseline
/// runs with f = 0 (it tolerates none) as a sanity row.
struct ScenarioMatrix {
  std::vector<std::string> gars;         ///< empty = gar_names()
  std::vector<std::string> attacks;      ///< empty = attack_names()
  std::vector<std::size_t> byzantine_fs = {1, 2};
  std::vector<std::size_t> quorum_slacks = {0, 2};
  /// Network-conditions axis crossed over every (gar, attack, f, slack)
  /// cell; the default single ideal network preserves the classic matrix.
  /// Non-ideal entries must only degrade nodes the cell sizes can spare
  /// (see Scenario::network).
  std::vector<std::string> networks = {""};
  /// `fault:` clause axis crossed inside the network axis (Scenario::fault
  /// semantics); the default single empty entry preserves the classic
  /// matrix's cell count and per-cell seeds.
  std::vector<std::string> faults = {""};
  /// Transport-backend axis, innermost so the default single entry leaves
  /// every existing matrix's cell count and per-cell seeds untouched.
  std::vector<std::string> transports = {"inproc"};
  std::size_t d = 32;
  std::uint64_t seed = 42;

  /// Invoke fn on every cell. Returns the number of cells visited.
  std::size_t for_each(const std::function<void(const Scenario&)>& fn) const;
};

// ------------------------------------------------------- parallel kernels

/// Sets the parallel_for shard count (tensor::set_parallel_threads) for one
/// scope and restores the default (0) on exit, so a failed assertion cannot
/// leak an override into later tests.
class ShardCount {
 public:
  explicit ShardCount(std::size_t threads) {
    tensor::set_parallel_threads(threads);
  }
  ~ShardCount() { tensor::set_parallel_threads(0); }
  ShardCount(const ShardCount&) = delete;
  ShardCount& operator=(const ShardCount&) = delete;
};

}  // namespace garfield::testsupport
