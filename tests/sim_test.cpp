// Tests for garfield::sim — model specs (Table 1), the GAR cost model
// (Fig 3 shapes) and the deployment simulator (Fig 6-10 shapes). These
// tests pin down the *qualitative* claims of the paper's evaluation; the
// benches print the quantitative sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "core/config.h"
#include "sim/cost_model.h"
#include "sim/deployment_sim.h"
#include "sim/model_spec.h"

namespace gc = garfield::core;
namespace gs = garfield::sim;

// ---------------------------------------------------------------- Table 1

TEST(ModelSpec, Table1RowsPresent) {
  const auto& models = gs::table1_models();
  ASSERT_EQ(models.size(), 6u);
  EXPECT_EQ(models.front().name, "MNIST_CNN");
  EXPECT_EQ(models.front().parameters, 79510u);
  EXPECT_EQ(models.back().name, "VGG");
  EXPECT_EQ(models.back().parameters, 128807306u);
}

TEST(ModelSpec, SizesConsistentWithFloat32) {
  for (const auto& m : gs::table1_models()) {
    // Table 1 reports MB; allow rounding slack.
    EXPECT_NEAR(m.size_mb, m.size_bytes() / 1e6, m.size_mb * 0.12) << m.name;
  }
}

TEST(ModelSpec, LookupAndUnknown) {
  EXPECT_EQ(gs::model_spec("ResNet-50").parameters, 23539850u);
  EXPECT_EQ(gs::model_spec("ResNet-152").parameters, 60192808u);
  EXPECT_THROW((void)gs::model_spec("GPT-7"), std::invalid_argument);
}

// ------------------------------------------------------------- cost model

TEST(CostModel, BinomialBasics) {
  EXPECT_DOUBLE_EQ(gs::binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(gs::binomial(7, 0), 1.0);
  EXPECT_DOUBLE_EQ(gs::binomial(4, 5), 0.0);
  EXPECT_DOUBLE_EQ(gs::binomial(20, 10), 184756.0);
}

TEST(CostModel, GarTimeLinearInDimension) {
  const gs::DeviceProfile gpu = gs::gpu_profile();
  for (const char* gar : {"average", "median", "multi_krum",
                          "bulyan", "mda"}) {
    const double t1 = gs::gar_time(gar, 17, 3, 1'000'000, gpu);
    const double t10 = gs::gar_time(gar, 17, 3, 10'000'000, gpu);
    EXPECT_GT(t10, 5.0 * t1) << gar;   // ~linear growth in d
    EXPECT_LT(t10, 15.0 * t1) << gar;
  }
}

TEST(CostModel, KrumQuadraticMedianLinearInN) {
  const gs::DeviceProfile gpu = gs::gpu_profile();
  const std::size_t d = 10'000'000;
  const double krum_7 = gs::gar_time("multi_krum", 7, 1, d, gpu);
  const double krum_21 = gs::gar_time("multi_krum", 21, 4, d, gpu);
  EXPECT_GT(krum_21 / krum_7, 6.0);  // ~(21/7)^2 = 9
  const double med_7 = gs::gar_time("median", 7, 1, d, gpu);
  const double med_21 = gs::gar_time("median", 21, 4, d, gpu);
  EXPECT_LT(med_21 / med_7, 4.0);    // ~3
}

TEST(CostModel, Fig3OrderingAtPaperPoint) {
  // At n = 17, d = 1e7 on GPU the paper's Fig 3 ordering is
  // Bulyan > MDA ~ Multi-Krum > Median > Average.
  const gs::DeviceProfile gpu = gs::gpu_profile();
  const std::size_t n = 17, f = 3, d = 10'000'000;
  const double avg = gs::gar_time("average", n, 0, d, gpu);
  const double med = gs::gar_time("median", n, f, d, gpu);
  const double krum = gs::gar_time("multi_krum", n, f, d, gpu);
  const double bul = gs::gar_time("bulyan", n, f, d, gpu);
  EXPECT_LT(avg, med);
  EXPECT_LT(med, krum);
  EXPECT_LT(krum, bul);
}

TEST(CostModel, MdaSubsetTermExplodesWithF) {
  const gs::DeviceProfile cpu = gs::cpu_profile();
  const double f1 = gs::gar_time("mda", 25, 1, 1000, cpu);
  const double f12 = gs::gar_time("mda", 25, 12, 1000, cpu);
  EXPECT_GT(f12, 100.0 * f1);  // exponential when f = Theta(n)
}

TEST(CostModel, GpuFasterThanCpu) {
  for (const char* gar : {"average", "median", "multi_krum"}) {
    EXPECT_LT(gs::gar_time(gar, 17, 3, 10'000'000, gs::gpu_profile()),
              gs::gar_time(gar, 17, 3, 10'000'000, gs::cpu_profile()));
  }
}

TEST(CostModel, UnknownGarThrows) {
  EXPECT_THROW((void)gs::gar_time("nope", 5, 1, 10, gs::cpu_profile()),
               std::invalid_argument);
}

// ------------------------------------------------------ deployment model

namespace {

gs::SimSetup paper_cpu_setup(gc::Deployment dep) {
  gs::SimSetup s;
  s.config.deployment = dep;
  s.d = gs::model_spec("ResNet-50").parameters;
  s.config.batch_size = 32;
  s.config.nw = 18;
  s.config.fw = 3;
  s.config.nps = 6;
  s.config.fps = 1;
  s.config.gradient_gar = "multi_krum";
  s.config.model_gar = "median";
  s.config.asynchronous = true;
  s.device = gs::cpu_profile();
  return s;
}

}  // namespace

TEST(DeploymentSim, BreakdownComponentsPositive) {
  for (gc::Deployment dep :
       {gc::Deployment::kVanilla, gc::Deployment::kCrashTolerant,
        gc::Deployment::kSsmw, gc::Deployment::kMsmw,
        gc::Deployment::kDecentralized}) {
    const auto b = gs::simulate_iteration(paper_cpu_setup(dep));
    EXPECT_GT(b.computation, 0.0) << gc::to_string(dep);
    EXPECT_GT(b.communication, 0.0) << gc::to_string(dep);
    EXPECT_GE(b.aggregation, 0.0) << gc::to_string(dep);
    EXPECT_NEAR(b.total(),
                b.computation + b.communication + b.aggregation, 1e-12);
  }
}

TEST(DeploymentSim, CommunicationDominatesOverhead) {
  // §6.6: "communication accounts for more than 75% of the overhead while
  // robust aggregation contributes to only 11%".
  const auto vanilla = gs::simulate_iteration([] {
    auto s = paper_cpu_setup(gc::Deployment::kVanilla);
    s.native_runtime = true;
    return s;
  }());
  const auto msmw =
      gs::simulate_iteration(paper_cpu_setup(gc::Deployment::kMsmw));
  const double overhead = msmw.total() - vanilla.total();
  const double comm_overhead = msmw.communication - vanilla.communication;
  const double agg_overhead = msmw.aggregation - vanilla.aggregation;
  EXPECT_GT(comm_overhead / overhead, 0.70);
  EXPECT_LT(agg_overhead / overhead, 0.15);
}

TEST(DeploymentSim, ServersCostMoreThanWorkers) {
  // Headline finding: tolerating Byzantine servers (MSMW) costs more than
  // tolerating Byzantine workers (SSMW), which costs less than crash
  // tolerance; decentralized is the most expensive.
  const double ssmw =
      gs::slowdown_vs_vanilla(paper_cpu_setup(gc::Deployment::kSsmw));
  const double crash = gs::slowdown_vs_vanilla(
      paper_cpu_setup(gc::Deployment::kCrashTolerant));
  const double msmw =
      gs::slowdown_vs_vanilla(paper_cpu_setup(gc::Deployment::kMsmw));
  const double dec = gs::slowdown_vs_vanilla(
      paper_cpu_setup(gc::Deployment::kDecentralized));
  EXPECT_GT(ssmw, 1.0);
  EXPECT_LT(ssmw, crash);
  EXPECT_LT(crash, msmw);
  EXPECT_LT(msmw, dec);
}

TEST(DeploymentSim, GpuAboutAnOrderOfMagnitudeFaster) {
  auto cpu = paper_cpu_setup(gc::Deployment::kMsmw);
  auto gpu = cpu;
  gpu.device = gs::gpu_profile();
  gpu.link = gs::gpu_link();
  const double speedup =
      gs::updates_per_sec(gpu) / gs::updates_per_sec(cpu);
  EXPECT_GT(speedup, 4.0);
  EXPECT_LT(speedup, 40.0);
  // With the paper's GPU cluster shape (10 workers, 3 servers) and the
  // pipelined PyTorch backend, the gap reaches the reported "one order of
  // magnitude".
  gpu.pipelined = true;
  gpu.config.nw = 10;
  gpu.config.nps = 3;
  gpu.config.batch_size = 100;
  EXPECT_GT(gs::updates_per_sec(gpu) / gs::updates_per_sec(cpu), 8.0);
}

TEST(DeploymentSim, SlowdownGrowsThenSaturatesWithModelSize) {
  // §6.6: overhead grows with d only up to a point, then stays roughly
  // constant because everything is O(d).
  auto setup = paper_cpu_setup(gc::Deployment::kMsmw);
  setup.d = gs::model_spec("MNIST_CNN").parameters;
  const double small = gs::slowdown_vs_vanilla(setup);
  setup.d = gs::model_spec("ResNet-50").parameters;
  const double mid = gs::slowdown_vs_vanilla(setup);
  setup.d = gs::model_spec("VGG").parameters;
  const double big = gs::slowdown_vs_vanilla(setup);
  EXPECT_GT(mid, small * 0.9);
  EXPECT_NEAR(big / mid, 1.0, 0.35);  // saturation
}

TEST(DeploymentSim, ThroughputScalesWithWorkers) {
  // Fig 8: batches/sec grows with nw for parameter-server systems.
  auto setup = paper_cpu_setup(gc::Deployment::kSsmw);
  setup.d = gs::model_spec("CifarNet").parameters;
  setup.config.nw = 5;
  const double small = gs::batches_per_sec(setup);
  setup.config.nw = 20;
  setup.config.fw = 3;
  const double large = gs::batches_per_sec(setup);
  EXPECT_GT(large, 1.5 * small);
}

TEST(DeploymentSim, DecentralizedDoesNotScale) {
  // Fig 8/9: decentralized batches/sec flattens or degrades with n, and its
  // communication time grows super-linearly.
  auto setup = paper_cpu_setup(gc::Deployment::kDecentralized);
  setup.d = 10'000'000;  // transfer-bound regime, where the claim bites
  setup.config.fw = 0;
  setup.config.gradient_gar = "median";
  setup.config.nw = 2;
  const double comm2 = gs::communication_time(setup);
  setup.config.nw = 6;
  const double comm6 = gs::communication_time(setup);
  EXPECT_GT(comm6 / comm2, 4.0);  // super-linear (3x nodes -> >4x time)

  auto vanilla = setup;
  vanilla.config.deployment = gc::Deployment::kVanilla;
  vanilla.native_runtime = true;
  vanilla.config.nw = 2;
  const double v2 = gs::communication_time(vanilla);
  vanilla.config.nw = 6;
  const double v6 = gs::communication_time(vanilla);
  EXPECT_LT(v6 / v2, 4.0);  // ~linear for the parameter server
}

TEST(DeploymentSim, ThroughputFlatInFw) {
  // Fig 10a: with nw fixed, declaring more Byzantine workers barely moves
  // throughput (same links, same batch).
  auto setup = paper_cpu_setup(gc::Deployment::kMsmw);
  setup.config.fw = 0;
  const double t0 = gs::updates_per_sec(setup);
  setup.config.fw = 3;
  const double t3 = gs::updates_per_sec(setup);
  EXPECT_NEAR(t3 / t0, 1.0, 0.15);
}

TEST(DeploymentSim, ThroughputDropsWithFps) {
  // Fig 10b: more Byzantine servers force more replicas (nps = 3fps+1),
  // adding links and dropping throughput, but by less than ~50%.
  auto setup = paper_cpu_setup(gc::Deployment::kMsmw);
  setup.config.fps = 0;
  setup.config.nps = 1;
  const double t0 = gs::updates_per_sec(setup);
  setup.config.fps = 1;
  setup.config.nps = 4;
  const double t1 = gs::updates_per_sec(setup);
  setup.config.fps = 3;
  setup.config.nps = 10;
  const double t3 = gs::updates_per_sec(setup);
  EXPECT_LT(t1, t0);
  EXPECT_LT(t3, t1);
  EXPECT_GT(t3 / t0, 0.4);  // drop bounded (paper: < 50%)
}

TEST(DeploymentSim, PipeliningHelps) {
  // §4.2: the PyTorch backend overlaps communication with aggregation.
  auto setup = paper_cpu_setup(gc::Deployment::kMsmw);
  setup.device = gs::gpu_profile();
  const double plain = gs::updates_per_sec(setup);
  setup.pipelined = true;
  const double pipelined = gs::updates_per_sec(setup);
  EXPECT_GT(pipelined, plain);
}

TEST(DeploymentSim, ContractionRoundsCostCommunication) {
  auto setup = paper_cpu_setup(gc::Deployment::kDecentralized);
  setup.config.contraction_steps = 0;
  const double base = gs::communication_time(setup);
  setup.config.contraction_steps = 3;
  const double contracted = gs::communication_time(setup);
  EXPECT_GT(contracted, 1.5 * base);
}

TEST(DeploymentSim, VanillaAndCrashTolerantIgnoreAsynchrony) {
  // The plan awaits nw for both whatever `asynchronous` says, so the two
  // breakdowns are the same numbers.
  for (gc::Deployment dep :
       {gc::Deployment::kVanilla, gc::Deployment::kCrashTolerant}) {
    gs::SimSetup sync = paper_cpu_setup(dep);
    sync.config.asynchronous = false;
    const gs::IterationBreakdown a =
        gs::simulate_iteration(paper_cpu_setup(dep));
    const gs::IterationBreakdown b = gs::simulate_iteration(sync);
    EXPECT_EQ(a.computation, b.computation) << gc::to_string(dep);
    EXPECT_EQ(a.communication, b.communication) << gc::to_string(dep);
    EXPECT_EQ(a.aggregation, b.aggregation) << gc::to_string(dep);
  }
}

TEST(DeploymentSim, CodecShrinksOnlyCommunication) {
  // Gradient payloads ride the configured codec, model payloads int8 for
  // any lossy codec, so topk < int8 < none on the wire; computation and
  // aggregation never see the codec. The native vanilla baseline has no
  // Garfield codec, so slowdown_vs_vanilla's denominator stays put.
  gs::SimSetup setup = paper_cpu_setup(gc::Deployment::kMsmw);
  setup.d = 1'000'000;
  gs::SimSetup baseline = setup;
  baseline.config.deployment = gc::Deployment::kVanilla;
  baseline.config.nps = 1;
  baseline.native_runtime = true;
  const double native = gs::simulate_iteration(baseline).total();
  std::vector<gs::IterationBreakdown> runs;
  for (const char* codec : {"topk:k=0.01", "int8", "none"}) {
    setup.config.codec = codec;
    runs.push_back(gs::simulate_iteration(setup));
    EXPECT_DOUBLE_EQ(runs.back().total() / gs::slowdown_vs_vanilla(setup),
                     native)
        << codec;
  }
  EXPECT_LT(runs[0].communication, runs[1].communication);
  EXPECT_LT(runs[1].communication, runs[2].communication);
  for (const gs::IterationBreakdown& b : runs) {
    EXPECT_DOUBLE_EQ(b.computation, runs[2].computation);
    EXPECT_DOUBLE_EQ(b.aggregation, runs[2].aggregation);
  }
}
