// Figure 9 — communication time of decentralized learning vs the vanilla
// baseline (GPU profile), with the number of nodes (a) and the model
// dimension (b).
//
// Paper shapes: decentralized communication grows quadratically with n
// (O(n^2) messages per round) while vanilla grows linearly; both grow
// linearly with d.
//
// Extension (Fig 9c): the throughput panels hold the adversary benign;
// this trained sweep pushes attack intensities and mixed AttackPlans
// through the *decentralized* trainer's contraction rounds and reports
// final accuracy per (plan, contraction_steps) cell — does contract()
// still force the correct peers together as the declared adversary grows
// stronger?
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.h"
#include "core/trainer.h"
#include "sim/deployment_sim.h"

namespace {

void contraction_plan_sweep() {
  using namespace garfield::core;
  const std::vector<std::string> plans = {
      "little_is_enough:z=0.5",
      "little_is_enough:z=1.5",
      "little_is_enough:z=3",
      "sign_flip;little_is_enough:z=1.5",  // mixed cohort (fw = 2)
      "2*reversed",
  };
  std::printf("\nFig 9c (extension) — decentralized final accuracy vs "
              "attack plan and contraction rounds\n(median on gradients "
              "and models, n = 8, fw = 2, non-iid shards)\n%-36s", "plan");
  for (std::size_t steps = 0; steps <= 2; ++steps) {
    std::printf("contract=%-7zu", steps);
  }
  std::printf("\n");
  for (const std::string& plan : plans) {
    std::printf("%-36s", plan.c_str());
    for (std::size_t steps = 0; steps <= 2; ++steps) {
      DeploymentConfig cfg;
      cfg.deployment = Deployment::kDecentralized;
      cfg.model = "tiny_mlp";
      cfg.nw = 8;
      cfg.fw = 2;
      cfg.worker_attack = plan;
      cfg.gradient_gar = "median";
      cfg.model_gar = "median";
      cfg.non_iid = true;  // the regime contract() exists for (Listing 3)
      cfg.contraction_steps = steps;
      cfg.batch_size = 16;
      cfg.train_size = 2048;
      cfg.test_size = 512;
      cfg.optimizer.lr.gamma0 = 0.1F;
      cfg.iterations = 100;
      cfg.eval_every = 0;  // final accuracy only
      cfg.seed = 41;
      const TrainResult r = train(garfield::bench::smoke(cfg));
      std::printf("%-16.3f", r.final_accuracy);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace garfield::sim;
  using garfield::core::Deployment;

  auto setup = [](Deployment dep, std::size_t n, std::size_t d) {
    SimSetup s;
    s.config.deployment = dep;
    s.d = d;
    s.config.batch_size = 100;
    s.config.nw = n;
    s.config.gradient_gar = "median";
    s.config.model_gar = "median";
    s.device = gpu_profile();
    s.link = gpu_link();
    s.native_runtime = dep == Deployment::kVanilla;
    return s;
  };

  std::printf("Fig 9a — communication time vs n (d = 1e6)\n");
  std::printf("%-6s %-18s %-14s\n", "n", "decentralized (s)", "vanilla (s)");
  for (std::size_t n = 2; n <= 6; ++n) {
    std::printf("%-6zu %-18.4f %-14.4f\n", n,
                communication_time(setup(Deployment::kDecentralized, n,
                                         1'000'000)),
                communication_time(setup(Deployment::kVanilla, n,
                                         1'000'000)));
  }

  std::printf("\nFig 9b — communication time vs d (n = 6)\n");
  std::printf("%-10s %-18s %-14s\n", "d", "decentralized (s)", "vanilla (s)");
  for (std::size_t d : {10'000UL, 100'000UL, 1'000'000UL, 10'000'000UL,
                        100'000'000UL}) {
    std::printf("%-10zu %-18.4f %-14.4f\n", d,
                communication_time(setup(Deployment::kDecentralized, 6, d)),
                communication_time(setup(Deployment::kVanilla, 6, d)));
  }
  contraction_plan_sweep();

  std::printf("\nPaper shapes: panel (a) quadratic growth for decentralized, "
              "linear for vanilla;\npanel (b) linear in d for both. "
              "Extension shape: contraction rounds keep the\nnon-iid "
              "accuracy from collapsing as plan intensity grows.\n");
  return 0;
}
