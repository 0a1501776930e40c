// Figure 11 (appendix) — convergence over wall-clock time.
//
// Combines the two planes of this reproduction: accuracy curves come from
// real training on the threaded cluster (as Fig 4), and the time axis
// comes from the calibrated per-iteration latency of the config each row
// trains, priced on the CPU profile (as Fig 7).
// time(iteration k) = k * iteration_latency.
//
// Paper shapes: vanilla converges fastest in time, then crash-tolerant,
// then the Byzantine-resilient systems; the crash-tolerant protocol needs
// ~3x vanilla's time to reach the same accuracy; Byzantine resilience
// costs moderately more than crash resilience.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.h"
#include "core/trainer.h"
#include "sim/deployment_sim.h"
#include "sim/model_spec.h"

namespace {

using namespace garfield::core;
namespace gs = garfield::sim;

/// Seconds per iteration of the config a row trains, priced at CifarNet
/// scale on the CPU profile (the native runtime for vanilla).
double iteration_latency(const DeploymentConfig& trained) {
  gs::SimSetup s;
  s.config = trained;
  s.config.batch_size = 32;
  s.d = gs::model_spec("CifarNet").parameters;
  s.device = gs::cpu_profile();
  s.native_runtime = trained.deployment == Deployment::kVanilla;
  return gs::simulate_iteration(s).total();
}

}  // namespace

int main() {
  DeploymentConfig cfg;
  cfg.model = "tiny_mlp";
  cfg.batch_size = 16;
  cfg.train_size = 2048;
  cfg.test_size = 512;
  cfg.dataset_noise = 1.2F;
  cfg.optimizer.lr.gamma0 = 0.08F;
  cfg.iterations = 300;
  cfg.eval_every = 30;
  cfg.seed = 21;
  cfg.nw = 9;

  struct Row {
    std::string name;
    TrainResult result;
    double latency;
  };
  std::vector<Row> rows;
  const auto run = [&rows](const char* name, const DeploymentConfig& c) {
    rows.push_back(
        {name, train(garfield::bench::smoke(c)), iteration_latency(c)});
  };

  {
    DeploymentConfig c = cfg;
    c.deployment = Deployment::kVanilla;
    run("vanilla", c);
  }
  {
    DeploymentConfig c = cfg;
    c.deployment = Deployment::kCrashTolerant;
    c.nps = 3;
    run("crash_tolerant", c);
  }
  {
    DeploymentConfig c = cfg;
    c.deployment = Deployment::kSsmw;
    c.fw = 1;
    c.gradient_gar = "multi_krum";
    run("garfield_ssmw", c);
  }
  {
    DeploymentConfig c = cfg;
    c.deployment = Deployment::kMsmw;
    c.fw = 1;
    c.nps = 3;
    c.fps = 0;
    c.gradient_gar = "multi_krum";
    c.model_gar = "median";
    run("garfield_msmw", c);
  }

  std::printf("Fig 11 — convergence over time, CifarNet-class task, CPU "
              "profile\n\n");
  for (const Row& row : rows) {
    std::printf("%s (%.2f s/iteration):\n", row.name.c_str(), row.latency);
    std::printf("  %-12s %-10s\n", "time (s)", "accuracy");
    for (const EvalPoint& p : row.result.curve) {
      std::printf("  %-12.1f %-10.3f\n", double(p.iteration) * row.latency,
                  p.accuracy);
    }
  }

  // Time-to-60% comparison (the paper's headline Fig 12b-style numbers).
  std::printf("time to reach accuracy 0.60:\n");
  for (const Row& row : rows) {
    double t = -1.0;
    for (const EvalPoint& p : row.result.curve) {
      if (p.accuracy >= 0.60) {
        t = double(p.iteration) * row.latency;
        break;
      }
    }
    if (t >= 0.0) {
      std::printf("  %-16s %.1f s\n", row.name.c_str(), t);
    } else {
      std::printf("  %-16s (not reached)\n", row.name.c_str());
    }
  }
  return 0;
}
