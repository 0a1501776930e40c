// Figure 6 — slowdown of fault-tolerant systems normalized to the vanilla
// baseline, across the Table-1 models, on the CPU (a) and GPU (b) testbed
// profiles. Regenerated from the calibrated cost model (see DESIGN.md).
//
// Paper shapes: slowdown grows with model size then saturates; SSMW <
// crash-tolerant < MSMW < decentralized; CPU slowdowns exceed GPU ones.
#include <cstdio>

#include "sim/deployment_sim.h"

namespace {

using namespace garfield::sim;
using garfield::core::Deployment;

void panel(const char* title, const DeviceProfile& device,
           const LinkProfile& link, std::size_t nw, std::size_t nps,
           std::size_t batch) {
  std::printf("\n%s\n%-12s %-16s %-10s %-10s %-16s\n", title, "Model",
              "Crash-tolerant", "SSMW", "MSMW", "Decentralized");
  for (const auto& m : table1_models()) {
    SimSetup s;
    s.d = m.parameters;
    s.config.batch_size = batch;
    s.config.nw = nw;
    s.config.fw = 3;
    s.config.nps = nps;
    s.config.fps = 1;
    s.config.gradient_gar = "multi_krum";
    s.config.model_gar = "median";
    s.config.asynchronous = true;
    s.device = device;
    s.link = link;

    s.config.deployment = Deployment::kCrashTolerant;
    const double crash = slowdown_vs_vanilla(s);
    s.config.deployment = Deployment::kSsmw;
    const double ssmw = slowdown_vs_vanilla(s);
    s.config.deployment = Deployment::kMsmw;
    const double msmw = slowdown_vs_vanilla(s);
    s.config.deployment = Deployment::kDecentralized;
    const double dec = slowdown_vs_vanilla(s);
    std::printf("%-12s %-16.2f %-10.2f %-10.2f %-16.2f\n", m.name.c_str(),
                crash, ssmw, msmw, dec);
  }
}

}  // namespace

int main() {
  panel("Fig 6a — slowdown vs vanilla, CPU cluster (nw=18, nps=6, b=32)",
        cpu_profile(), cpu_link(), 18, 6, 32);
  panel("Fig 6b — slowdown vs vanilla, GPU cluster (nw=10, nps=3, b=100)",
        gpu_profile(), gpu_link(), 10, 3, 100);
  std::printf("\nPaper shapes: SSMW < crash-tolerant < MSMW < decentralized; "
              "slowdown\ngrows with d then saturates; CPU slowdowns > GPU "
              "slowdowns.\n");
  return 0;
}
