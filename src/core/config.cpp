#include "core/config.h"

#include <stdexcept>

#include "attacks/registry.h"
#include "core/round_plan.h"
#include "net/codec.h"
#include "net/conditions.h"

namespace garfield::core {

std::string to_string(Deployment d) {
  switch (d) {
    case Deployment::kVanilla: return "vanilla";
    case Deployment::kCrashTolerant: return "crash_tolerant";
    case Deployment::kSsmw: return "ssmw";
    case Deployment::kMsmw: return "msmw";
    case Deployment::kDecentralized: return "decentralized";
  }
  return "unknown";
}

Deployment deployment_from_string(const std::string& s) {
  if (s == "vanilla") return Deployment::kVanilla;
  if (s == "crash_tolerant") return Deployment::kCrashTolerant;
  if (s == "ssmw") return Deployment::kSsmw;
  if (s == "msmw") return Deployment::kMsmw;
  if (s == "decentralized") return Deployment::kDecentralized;
  throw std::invalid_argument("unknown deployment '" + s + "'");
}

std::size_t DeploymentConfig::total_nodes() const {
  // Decentralized deployments have nw peers and no separate servers.
  if (deployment == Deployment::kDecentralized) return nw;
  return nps + nw;
}

void DeploymentConfig::validate() const {
  if (nw == 0) throw std::invalid_argument("config: nw must be >= 1");
  if (fw >= nw) throw std::invalid_argument("config: fw must be < nw");
  if (deployment != Deployment::kDecentralized) {
    if (nps == 0) throw std::invalid_argument("config: nps must be >= 1");
    if (fps >= nps) throw std::invalid_argument("config: fps must be < nps");
  }
  if (batch_size == 0) throw std::invalid_argument("config: batch_size >= 1");
  if (transport != "inproc" && transport != "tcp") {
    throw std::invalid_argument("config: unknown transport '" + transport +
                                "' (expected inproc or tcp)");
  }
  // Codec spec: unknown names, out-of-range k and stray options must fail
  // here, never run silently uncompressed (same contract as the network
  // spec below).
  (void)net::CodecSpec::parse(codec);
  // The alignment probe walks every correct replica's parameter vector
  // from the reporting rank — impossible once every node is its own
  // process.
  if (transport == "tcp" && alignment_every != 0) {
    throw std::invalid_argument(
        "config: alignment_every requires transport=inproc (the probe "
        "reads every replica's parameters in one address space)");
  }
  // Every aggregation stage of the round plan (core/round_plan.h) must
  // meet its rule's option-aware resilience floor at the input count the
  // loop hands the GAR. Probing the registry with a throwaway construction
  // then surfaces a bad spec at config time instead of mid-training.
  const RoundPlan plan = plan_round(*this);
  for (const Stage* stage :
       {&plan.grad, plan.model ? &*plan.model : nullptr}) {
    if (stage == nullptr) continue;
    if (stage->inputs < stage->min_n) {
      throw std::invalid_argument(
          "config: the " + std::string(stage->span) + " stage's '" +
          stage->spec.name + "' rule needs >= " +
          std::to_string(stage->min_n) + " inputs to tolerate f=" +
          std::to_string(stage->f) + ", but the plan gives it " +
          std::to_string(stage->inputs));
    }
    (void)gars::make_gar(stage->spec, stage->inputs, stage->f);
  }
  // Adversary plans: grammar, attack existence, option types and plan shape
  // against the declared Byzantine cohorts — a typo'd attack spec must fail
  // here with a pointed message, not as an unknown-name throw when the
  // trainer builds the Byzantine cohort mid-run. Decentralized deployments
  // have no separate server cohort: both plans cover the fw peers (the
  // trainer falls back to the worker plan when server_attack is empty).
  const std::size_t server_cohort_f =
      deployment == Deployment::kDecentralized ? fw : fps;
  (void)attacks::validate_attack_plan(worker_attack, fw, "worker_attack");
  (void)attacks::validate_attack_plan(server_attack, server_cohort_f,
                                      "server_attack");
  // Network conditions: grammar, clause/option existence, duration sanity
  // (negative or unit-less garbage is rejected by the parser) and node
  // references against the deployment's actual node count — a scenario
  // naming nodes that don't exist must fail here, not run quietly ideal.
  const net::NetworkConditions conditions =
      net::NetworkConditions::parse(network);
  conditions.validate(total_nodes());
  // A churn schedule that recovers a server replica needs a checkpoint to
  // state-transfer from — without one the replica would rejoin with its
  // stale pre-crash parameters and quietly drag the cohort backwards.
  // Decentralized peers are exempt: they re-sync through the step-tagged
  // model exchange instead.
  if (deployment != Deployment::kDecentralized) {
    for (const net::NetworkConditions::ChurnEvent& e : conditions.churn()) {
      const bool recovers = e.join || e.recover_after > 0;
      if (!recovers || e.nodes.lo >= nps) continue;
      if (checkpoint_path.empty() || checkpoint_every == 0) {
        throw std::invalid_argument(
            "config: churn schedule recovers server replica " +
            std::to_string(e.nodes.lo) +
            " but checkpointing is off — set checkpoint_path and "
            "checkpoint_every so the recovering replica has state to "
            "transfer");
      }
    }
  }
}

}  // namespace garfield::core
