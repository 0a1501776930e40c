// Ablation — gradient-quorum size (synchrony spectrum).
//
// The paper's get_gradients(t, q) spans synchronous (q = nw) to
// asynchronous (q = nw - fw) collection. This sweep measures, with live
// training plus the cost model, what q buys and costs:
//  - accuracy: larger quorums average more honest gradients (less noise);
//  - latency: larger quorums wait deeper into the straggler tail.
#include <cstdio>

#include "bench_support.h"
#include "core/trainer.h"
#include "sim/deployment_sim.h"
#include "sim/model_spec.h"

int main() {
  using namespace garfield::core;
  namespace gs = garfield::sim;

  const std::size_t nw = 12, fw = 3;
  std::printf("Ablation — quorum sweep, SSMW with median, nw=%zu fw=%zu\n\n",
              nw, fw);
  std::printf("%-6s %-16s %-22s %-22s\n", "q", "final accuracy",
              "messages (live run)", "iteration latency (sim)");

  for (std::size_t q = nw - fw; q <= nw; ++q) {
    DeploymentConfig cfg;
    cfg.deployment = Deployment::kSsmw;
    cfg.model = "tiny_mlp";
    cfg.nw = nw;
    // Declared-Byzantine count implied by the quorum: q = nw - fw.
    cfg.fw = nw - q;
    cfg.asynchronous = true;
    cfg.gradient_gar = "median";
    cfg.batch_size = 16;
    cfg.train_size = 1536;
    cfg.test_size = 384;
    cfg.optimizer.lr.gamma0 = 0.1F;
    cfg.iterations = 150;
    cfg.eval_every = 0;
    cfg.seed = 17;
    const TrainResult result = train(garfield::bench::smoke(cfg));

    gs::SimSetup sim;
    sim.config = cfg;
    sim.config.batch_size = 32;
    sim.d = gs::model_spec("ResNet-50").parameters;
    sim.device = gs::cpu_profile();
    const double latency = gs::simulate_iteration(sim).total();

    std::printf("%-6zu %-16.3f %-22llu %-22.2f\n", q, result.final_accuracy,
                static_cast<unsigned long long>(
                    result.net_stats.requests_sent),
                latency);
  }
  std::printf("\nShape: accuracy roughly flat to slightly rising with q "
              "(more honest gradients);\nlatency rising with q (deeper "
              "straggler tail) — the availability/accuracy dial.\n");
  return 0;
}
