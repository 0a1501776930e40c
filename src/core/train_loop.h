// Internal trainer machinery, shared between the single-process train()
// driver and the multi-process node runner (core/node_runner.h).
//
// train() owns the whole deployment in one process: it builds the Runtime,
// spawns one driving thread per server/peer and harvests the result. Under
// the TCP transport every rank is its own OS process running run_node(),
// which needs the *same* build/loop/harvest pieces — each process builds
// the full deterministic object graph (datasets and replicas are pure
// functions of the config seed, so every process constructs bitwise
// identical state) but drives only its own rank's loop; requests addressed
// to other ranks leave the process through the transport.
//
// Every deployment runs the same round loop. A small plan built from the
// config (core/round_plan.h) says which rule aggregates each stage, how
// many replies each stage awaits, how many contract() gossip rounds follow
// the gradient step (gossip is always step-tagged) and whether replicas
// exchange models.
// One replica, the *reporting replica*, evaluates, probes alignment,
// checkpoints and records gradient counts; it is a pure function of the
// config, so every rank and both backends agree on it without a message.
//
// Nothing here is public API: the header exists so node_runner.cpp can see
// the declarations. Definitions live in trainer.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/server.h"
#include "core/trainer.h"
#include "core/worker.h"
#include "data/dataset.h"
#include "net/cluster.h"
#include "net/conditions.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::core::detail {

/// Everything a deployment run needs to keep alive while threads execute.
struct Runtime {
  DeploymentConfig config;
  /// Parsed once at build time; the loops query its churn schedule every
  /// iteration (the cluster holds its own copy for delivery decisions).
  net::NetworkConditions conditions;
  /// Backend override for the cluster: null selects the in-process
  /// transport; run_node() installs the process's TcpTransport here before
  /// build_runtime(). Declared before `cluster`, so the cluster is
  /// destroyed first: ~Cluster shuts the transport down and drains its
  /// pool before ~TcpTransport closes the sockets.
  std::shared_ptr<net::Transport> transport;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<Worker>> workers;
  data::Batch test;
  /// The reporting replica (reporting_replica(config)) and its curve,
  /// written by that replica's loop thread only — no lock needed.
  std::size_t reporter = 0;
  std::vector<EvalPoint> curve;
  util::Mutex alignment_mutex;
  std::vector<AlignmentSample> alignment GARFIELD_GUARDED_BY(alignment_mutex);
  /// Reporting replica's per-iteration gradient reply counts (its loop
  /// thread only).
  std::vector<std::size_t> reporting_gradient_counts;
  /// Byzantine-recovery state transfer outcomes: peer checkpoint blobs
  /// adopted after digest verification, and blobs rejected by it (a
  /// corrupt_recovery peer, a torn carrier, a dimension mismatch).
  std::atomic<std::uint64_t> state_transfers{0};
  std::atomic<std::uint64_t> state_transfer_rejects{0};
  // Run abort: the first loop that sees the churn schedule drop a cohort
  // under its GAR floor, or (in process) whose body throws, records why
  // and flips the flag; every loop exits at its next gate and the driver
  // rethrows after the join.
  std::atomic<bool> abort{false};
  util::Mutex abort_mutex;
  std::string abort_reason GARFIELD_GUARDED_BY(abort_mutex);
  // Declared last so it is destroyed FIRST: tearing down the cluster joins
  // its thread pool, draining in-flight RPC handler invocations (replies
  // beyond the awaited quorum may still be executing) before the servers
  // and workers those handlers reference are freed.
  std::unique_ptr<net::Cluster> cluster;
};

[[nodiscard]] inline bool is_decentralized(const DeploymentConfig& cfg) {
  return cfg.deployment == Deployment::kDecentralized;
}

/// Number of ranks that run a driving loop: every peer when decentralized,
/// the server replicas otherwise (workers are passive RPC handlers).
[[nodiscard]] inline std::size_t driver_count(const DeploymentConfig& cfg) {
  return is_decentralized(cfg) ? cfg.nw : cfg.nps;
}

/// The replica that evaluates, checkpoints and reports: the lowest id in
/// [0, replicas - f) the churn schedule keeps up at the last iteration, or
/// 0 when there is none. Byzantine replicas (the last f) never report.
[[nodiscard]] std::size_t reporting_replica(const DeploymentConfig& cfg);

/// Build cluster, datasets, servers and workers for rt.config, and pick
/// the reporting replica. Uses rt.transport when set.
void build_runtime(Runtime& rt);

/// Wire the churn schedule's recovery hooks. `only_node` restricts
/// registration to one node id — a multi-process rank registers only its
/// own hook, since foreign object copies in this process never serve.
void register_recovery_hooks(
    Runtime& rt, std::optional<net::NodeId> only_node = std::nullopt);

/// Resume support: overwrite every local replica's state with the
/// checkpoint named by config.resume_from (no-op when unset).
void resume_replicas(Runtime& rt);

/// Run replica/peer `s`'s round loop under the deployment's plan.
void run_loop(Runtime& rt, std::size_t s);

/// Assemble the TrainResult from the reporting replica after every driving
/// loop has joined. Throws std::runtime_error when the run aborted
/// (below-floor churn schedule, or a loop that threw).
[[nodiscard]] TrainResult harvest(Runtime& rt);

}  // namespace garfield::core::detail
