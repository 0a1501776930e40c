// Deployment configuration shared by the Controller and the trainers.
//
// Mirrors the knobs of the paper's experiments: cluster shape (n_w, f_w,
// n_ps, f_ps), GAR choice for gradients and for models, attack selection,
// synchrony assumption (quorum sizes), data distribution (iid or not) and
// the contraction depth of decentralized learning.
#pragma once

#include <cstdint>
#include <string>

#include "nn/optimizer.h"

namespace garfield::core {

/// Which application (§5) to run.
enum class Deployment {
  kVanilla,         ///< single trusted server, plain averaging
  kCrashTolerant,   ///< replicated servers, averaging, primary/backup
  kSsmw,            ///< single server, robust GAR on gradients
  kMsmw,            ///< replicated servers, GARs on gradients and models
  kDecentralized,   ///< peer-to-peer, every node is Server+Worker
};

[[nodiscard]] std::string to_string(Deployment d);
[[nodiscard]] Deployment deployment_from_string(const std::string& s);

struct DeploymentConfig {
  Deployment deployment = Deployment::kSsmw;

  // --- learning task -----------------------------------------------------
  std::string model = "tiny_mlp";
  std::string dataset = "cluster";     ///< "cluster" | "teacher"
  float dataset_noise = 1.0F;          ///< cluster dataset difficulty
  std::size_t train_size = 2048;
  std::size_t test_size = 512;
  std::size_t batch_size = 16;         ///< per-worker mini-batch (paper: b/n)
  nn::SgdOptimizer::Options optimizer{};
  /// Worker-side (distributed) momentum — the §8 variance-reduction hook.
  float worker_momentum = 0.0F;

  // --- cluster shape ------------------------------------------------------
  std::size_t nw = 5;    ///< workers
  std::size_t fw = 0;    ///< declared Byzantine workers
  std::size_t nps = 1;   ///< parameter-server replicas
  std::size_t fps = 0;   ///< declared Byzantine servers

  // --- resilience ---------------------------------------------------------
  /// GAR spec strings (gars/registry.h grammar): a bare registry name
  /// ("krum") or a name with typed options
  /// ("centered_clip:tau=0.5,iterations=20"). validate() rejects unknown
  /// rules, unknown/malformed options and violated resilience inequalities.
  std::string gradient_gar = "average";  ///< GAR applied to worker gradients
  std::string model_gar = "median";      ///< GAR applied to server models
  /// Quorum of SSMW/MSMW pulls: synchronous runs await all n replies,
  /// asynchronous ones n - f. Vanilla and crash_tolerant always await nw,
  /// decentralized always nw - fw (core/round_plan.h has every stage).
  bool asynchronous = false;

  // --- adversary ----------------------------------------------------------
  /// Attack *plans* (attacks/registry.h grammar) the last fw workers / last
  /// fps servers actually mount ("" = declared-only, everyone behaves — the
  /// paper's throughput mode). A plan is one spec applied to the whole
  /// cohort ("reversed", "little_is_enough:z=2.5") or a ';'-separated
  /// per-rank assignment ("little_is_enough:z=1.5;2*sign_flip" = one LIE
  /// attacker plus two sign-flippers). validate() rejects unknown attacks,
  /// unknown/malformed options and plans whose counts don't match fw/fps.
  std::string worker_attack;
  std::string server_attack;

  // --- data distribution --------------------------------------------------
  /// Shard training data by class (strongly non-iid) instead of iid.
  bool non_iid = false;
  /// Decentralized contract() rounds per iteration (0 disables; Listing 3
  /// uses it when data is non-iid).
  std::size_t contraction_steps = 0;

  // --- persistence ----------------------------------------------------------
  /// The reporting replica (core/train_loop.h: the lowest-id correct
  /// replica the churn schedule keeps up at the last iteration) writes a
  /// wire-format checkpoint here every checkpoint_every iterations and at
  /// the last one, in every deployment ("" disables).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 0;
  /// Start from a saved checkpoint instead of fresh initialization; every
  /// replica is seeded with the loaded parameters.
  std::string resume_from;

  // --- run control ----------------------------------------------------------
  std::size_t iterations = 200;
  std::size_t eval_every = 20;          ///< accuracy probe period (0 = never)
  std::size_t alignment_every = 0;      ///< Table-2 probe period (0 = off)
  std::uint64_t seed = 1;

  // --- simulated network --------------------------------------------------
  /// NetworkConditions spec (net/conditions.h grammar) driving both the
  /// live cluster and the analytic simulator:
  ///   "wan:latency=5ms,jitter=2ms;straggler:nodes=2,lag=50ms,from_iter=100"
  /// "" = ideal network. validate() rejects unknown clauses/options,
  /// negative or malformed durations, and node references outside the
  /// deployment.
  std::string network;
  /// RPC handler threads (0 = hardware concurrency). Pool threads only run
  /// handler compute — simulated latency lives on the cluster's timer
  /// wheel — so this is the real-contention knob bench_fig8 sweeps.
  std::size_t pool_threads = 0;
  /// Transport backend under the cluster: "inproc" (threads in one
  /// process, the default) or "tcp" (one OS process per node on localhost,
  /// framed streams — the paper's actual one-process-per-machine topology,
  /// see core/node_runner.h). Sync runs are bitwise identical across the
  /// two. validate() rejects anything else, and rejects tcp combined with
  /// alignment_every, which reads every replica in one address space. A
  /// primary fail-stops on either backend through
  /// `network = churn:crash=0,at_iter=N`.
  std::string transport = "inproc";
  /// Gradient-compression wire codec (net/codec.h grammar): "none" (the
  /// default), "int8", or "topk:k=0.01". Lossy codecs compress gradient
  /// exchanges with the configured codec and degrade model/state payloads
  /// to int8; both transport backends honour it identically, so sync runs
  /// stay bitwise reproducible per codec choice (though a lossy codec's
  /// trajectory differs from codec=none — see README). validate() rejects
  /// unknown codecs and malformed options.
  std::string codec = "none";

  /// Total node count of the deployment.
  [[nodiscard]] std::size_t total_nodes() const;
  /// Validate shape invariants (resilience inequalities, byzantine counts);
  /// throws std::invalid_argument on violation.
  void validate() const;
};

}  // namespace garfield::core
