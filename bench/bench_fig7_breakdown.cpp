// Figure 7 — overhead breakdown in the CPU-based experiment.
//
// Per-iteration latency of each deployment training ResNet-50 (d = 23.5M)
// on the CPU-cluster profile, split into computation / communication /
// aggregation, as in the paper's stacked bars. The TF (vanilla) bar uses
// the native runtime, whose computation and communication the paper cannot
// separate either — we print them anyway.
//
// Paper shapes: computation ~constant (~1.6 s) across systems;
// communication dominates (75-86% of the fault-tolerance overhead);
// aggregation contributes ~11% or less; decentralized aggregation is about
// twice SSMW's (extra model-aggregation step).
// A live section quantifies the *overshoot* cost of fastest-q pulls:
// replies that were crafted and transferred but arrived after the quorum
// was already met (NetStats::wasted_replies) — traffic the asynchronous
// protocol pays for and throws away.
#include <cstdio>

#include "bench_support.h"
#include "core/config.h"
#include "core/trainer.h"
#include "sim/deployment_sim.h"
#include "sim/model_spec.h"

namespace {

/// Live asynchronous run: every pull keeps the fastest q < n replies, so
/// the slowest nodes' replies are wasted work. Returns the measured stats.
void overshoot_row(const char* name, garfield::core::DeploymentConfig cfg) {
  cfg = garfield::bench::smoke(cfg);
  const garfield::core::TrainResult r = garfield::core::train(cfg);
  const garfield::net::NetStats s = r.net_stats;
  const double pct =
      s.replies_received > 0
          ? 100.0 * double(s.wasted_replies) / double(s.replies_received)
          : 0.0;
  // bytes_* charge the transport's framing model (payload floats plus the
  // frame envelope), so wasted replies show up here as real traffic: the
  // communication share of Fig 7's bars, measured instead of simulated.
  std::printf("%-22s %-10llu %-10llu %7.1f%% %-8llu %-11llu %-11llu\n", name,
              (unsigned long long)s.replies_received,
              (unsigned long long)s.wasted_replies, pct,
              (unsigned long long)s.quorum_misses,
              (unsigned long long)s.bytes_sent,
              (unsigned long long)s.bytes_received);
}

void overshoot_section() {
  std::printf("\nLive fastest-q overshoot (in-process trainer, tiny_mlp):\n"
              "%-22s %-10s %-10s %8s %-8s %-11s %-11s\n", "system", "replies",
              "wasted", "wasted%", "misses", "bytes_out", "bytes_in");
  garfield::core::DeploymentConfig base;
  base.model = "tiny_mlp";
  base.dataset = "cluster";
  base.train_size = 1024;
  base.test_size = 128;
  base.batch_size = 16;
  base.iterations = 40;
  base.eval_every = 0;
  base.seed = 11;
  base.gradient_gar = "multi_krum";
  base.model_gar = "median";

  {
    garfield::core::DeploymentConfig cfg = base;
    cfg.deployment = garfield::core::Deployment::kSsmw;
    cfg.nw = 8;
    cfg.fw = 1;
    cfg.asynchronous = true;  // qw = nw - fw: one reply per pull overshoots
    overshoot_row("SSMW async", cfg);
  }
  {
    garfield::core::DeploymentConfig cfg = base;
    cfg.deployment = garfield::core::Deployment::kMsmw;
    cfg.nps = 4;
    cfg.fps = 1;
    cfg.nw = 8;
    cfg.fw = 1;
    cfg.asynchronous = true;
    overshoot_row("MSMW async", cfg);
  }
  {
    garfield::core::DeploymentConfig cfg = base;
    cfg.deployment = garfield::core::Deployment::kDecentralized;
    cfg.nw = 8;
    cfg.fw = 1;  // q = nw - fw out of nw reachable peers
    overshoot_row("Decentralized", cfg);
  }
  {
    garfield::core::DeploymentConfig cfg = base;
    cfg.deployment = garfield::core::Deployment::kSsmw;
    cfg.nw = 8;
    cfg.fw = 1;
    cfg.asynchronous = false;  // q = nw: every crash-window pull runs short
    cfg.network = "churn:crash=8,at_iter=2,recover_after=2";
    overshoot_row("SSMW sync + churn", cfg);
  }
  std::printf("Synchronous deployments pull q = n and waste nothing; the "
              "wasted%% column is\nthe price of asynchrony's liveness. The "
              "misses column counts pulls that\nreturned short of their "
              "quorum — zero outside churn/straggler windows.\n");
}

}  // namespace

int main() {
  using namespace garfield::sim;
  namespace gc = garfield::core;

  std::printf("Fig 7 — per-iteration latency breakdown, ResNet-50, CPU "
              "cluster (nw=18, fw=3, nps=6, fps=1)\n\n");
  std::printf("%-16s %-14s %-16s %-14s %-10s\n", "System", "Computation",
              "Communication", "Aggregation", "Total");

  const struct {
    const char* name;
    gc::Deployment dep;
    bool native;
  } systems[] = {
      {"TF (vanilla)", gc::Deployment::kVanilla, true},
      {"Crash-tolerant", gc::Deployment::kCrashTolerant, false},
      {"SSMW", gc::Deployment::kSsmw, false},
      {"MSMW", gc::Deployment::kMsmw, false},
      {"Dec. Learn.", gc::Deployment::kDecentralized, false},
  };

  IterationBreakdown vanilla{};
  IterationBreakdown mb{};
  for (const auto& sys : systems) {
    SimSetup s;
    s.config.deployment = sys.dep;
    s.d = model_spec("ResNet-50").parameters;
    s.config.batch_size = 32;
    s.config.nw = 18;
    s.config.fw = 3;
    s.config.nps = 6;
    s.config.fps = 1;
    s.config.gradient_gar = "multi_krum";
    s.config.model_gar = "median";
    s.config.asynchronous = true;
    s.device = cpu_profile();
    s.native_runtime = sys.native;
    const IterationBreakdown b = simulate_iteration(s);
    if (sys.native) vanilla = b;
    if (sys.dep == gc::Deployment::kMsmw) mb = b;
    std::printf("%-16s %-14.2f %-16.2f %-14.3f %-10.2f\n", sys.name,
                b.computation, b.communication, b.aggregation, b.total());
  }

  // Overhead attribution for the headline numbers of §6.6.
  const double overhead = mb.total() - vanilla.total();
  std::printf("\nMSMW overhead vs vanilla: %.2f s/iteration, of which "
              "communication %.0f%%, aggregation %.0f%%\n",
              overhead,
              100.0 * (mb.communication - vanilla.communication) / overhead,
              100.0 * (mb.aggregation - vanilla.aggregation) / overhead);
  overshoot_section();
  return 0;
}
