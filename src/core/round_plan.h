// A deployment as data: the one place that decides a round's shape.
//
// Every §5 application is the same round (pull gradients, aggregate,
// optionally gossip the aggregate, step, optionally exchange models),
// differing only in the values plan_round() derives from the config.
// Three readers walk the same plan:
//  - the live round loop (core/trainer.cpp) runs it;
//  - DeploymentConfig::validate() checks every stage's resilience floor
//    against it;
//  - the analytic simulator (sim/deployment_sim.h) prices it.
// README "Node lifecycle & churn" tabulates the plan per deployment.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/config.h"
#include "gars/registry.h"

namespace garfield::core {

/// One aggregation stage of a round, resolved once per loop instead of
/// once per iteration: the rule, its resilience floor, the replies the pull
/// awaits and the id span whose scheduled availability the churn floor
/// check counts. min_n is the option-aware floor (gar_min_n over the parsed
/// spec), so a quorum that satisfies the rule but not its options (e.g.
/// multi_krum:m=8 at a degraded q) skips the stage instead of throwing out
/// of the loop thread.
struct Stage {
  gars::GarSpec spec;
  std::size_t f = 0;
  std::size_t min_n = 0;
  std::size_t awaited = 0;
  /// What the GAR sees when every awaited reply arrives: `awaited` for the
  /// gradient stage, `awaited + 1` for the model stage, which appends the
  /// replica's own state.
  std::size_t inputs = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  const char* span = "";
};

/// A stage with its option-aware floor resolved from the parsed rule.
inline Stage make_stage(const std::string& rule, std::size_t f,
                        std::size_t awaited, std::size_t inputs,
                        std::size_t lo, std::size_t hi, const char* span) {
  Stage stage{gars::parse_gar_spec(rule), f, 0, awaited, inputs, lo, hi,
              span};
  stage.min_n = gars::gar_min_n(stage.spec, f);
  return stage;
}

struct RoundPlan {
  /// The gradient pull and aggregation; gossip rounds reuse its rule.
  Stage grad;
  /// Decentralized contract() rounds over the gradient rule.
  std::size_t gossip_rounds = 0;
  /// Replicated deployments' model exchange; peers awaited exclude self.
  std::optional<Stage> model;
  /// Correct replicas [0, aligned) the alignment probe spans.
  std::size_t aligned = 0;
};

inline RoundPlan plan_round(const DeploymentConfig& cfg) {
  const bool async = cfg.asynchronous;
  const std::size_t workers_end = cfg.nps + cfg.nw;
  RoundPlan plan;
  switch (cfg.deployment) {
    case Deployment::kVanilla:
    case Deployment::kCrashTolerant:
      plan.grad = make_stage("average", 0, cfg.nw, cfg.nw, cfg.nps,
                             workers_end, "worker");
      break;
    case Deployment::kSsmw:
    case Deployment::kMsmw: {
      const std::size_t qw = async ? cfg.nw - cfg.fw : cfg.nw;
      plan.grad = make_stage(cfg.gradient_gar, cfg.fw, qw, qw, cfg.nps,
                             workers_end, "worker");
      if (cfg.deployment == Deployment::kMsmw) {
        const std::size_t qps = async ? cfg.nps - cfg.fps : cfg.nps;
        plan.model = make_stage(cfg.model_gar, cfg.fps, qps - 1, qps, 0,
                                cfg.nps, "server");
        plan.aligned = cfg.nps - cfg.fps;
      }
      break;
    }
    case Deployment::kDecentralized: {
      // n - f throughout (Listing 3).
      const std::size_t q = cfg.nw - cfg.fw;
      plan.grad = make_stage(cfg.gradient_gar, cfg.fw, q, q, 0, cfg.nw, "peer");
      plan.gossip_rounds = cfg.contraction_steps;
      plan.model =
          make_stage(cfg.model_gar, cfg.fw, q - 1, q, 0, cfg.nw, "peer");
      plan.aligned = q;
      break;
    }
  }
  return plan;
}

}  // namespace garfield::core
