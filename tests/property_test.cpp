// Cross-module property tests:
//  - GAR algebraic properties (translation/scaling equivariance) swept over
//    rules and shapes;
//  - cost-model monotonicity swept over deployments, devices and sizes;
//  - end-to-end training determinism;
//  - cluster behaviour under randomized concurrent load with crashes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/trainer.h"
#include "gars/gar.h"
#include "net/cluster.h"
#include "sim/deployment_sim.h"
#include "support/test_support.h"
#include "tensor/rng.h"

namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace gs = garfield::sim;
namespace gc = garfield::core;
namespace gn = garfield::net;
namespace ts = garfield::testsupport;

using gt::FlatVector;

namespace {

std::vector<FlatVector> random_cloud(std::size_t n, std::size_t d,
                                     std::uint64_t seed) {
  gt::Rng rng(seed);
  std::vector<FlatVector> out(n, FlatVector(d));
  for (auto& v : out) {
    for (float& x : v) x = rng.normal();
  }
  return out;
}

}  // namespace

// ------------------------------------------- GAR algebraic properties

struct GarShape {
  std::string gar;
  std::size_t n;
  std::size_t f;
};

class GarAlgebra : public ::testing::TestWithParam<GarShape> {};

/// Positive scaling equivariance: GAR(a*x) == a*GAR(x). Holds for every
/// rule in the library (they are all built from distances, order statistics
/// and averages, which scale homogeneously).
TEST_P(GarAlgebra, ScalingEquivariant) {
  const GarShape& p = GetParam();
  auto in = random_cloud(p.n, 24, 11);
  gg::GarPtr gar = gg::make_gar(p.gar, p.n, p.f);
  const FlatVector base = ts::aggregate(*gar, in);
  const float a = 2.5F;
  for (auto& v : in) gt::scale(v, a);
  const FlatVector scaled = ts::aggregate(*gar, in);
  for (std::size_t j = 0; j < base.size(); ++j) {
    EXPECT_NEAR(scaled[j], a * base[j], 3e-3F * std::abs(base[j]) + 2e-3F)
        << p.gar;
  }
}

/// Translation equivariance: GAR(x + c) == GAR(x) + c. Holds for every
/// rule except CGE, whose norm filter is origin-dependent (tested
/// separately as its documented limitation).
TEST_P(GarAlgebra, TranslationEquivariant) {
  const GarShape& p = GetParam();
  if (p.gar == "cge") GTEST_SKIP() << "cge is origin-dependent by design";
  auto in = random_cloud(p.n, 24, 12);
  gg::GarPtr gar = gg::make_gar(p.gar, p.n, p.f);
  const FlatVector base = ts::aggregate(*gar, in);
  const float c = 3.0F;
  for (auto& v : in) {
    for (float& x : v) x += c;
  }
  const FlatVector shifted = ts::aggregate(*gar, in);
  for (std::size_t j = 0; j < base.size(); ++j) {
    EXPECT_NEAR(shifted[j], base[j] + c, 5e-3F) << p.gar;
  }
}

/// Output lies in the per-coordinate range of the inputs (a weak but
/// universal sanity envelope: no rule extrapolates).
TEST_P(GarAlgebra, OutputInsideCoordinateEnvelope) {
  const GarShape& p = GetParam();
  auto in = random_cloud(p.n, 16, 13);
  gg::GarPtr gar = gg::make_gar(p.gar, p.n, p.f);
  const FlatVector out = ts::aggregate(*gar, in);
  for (std::size_t j = 0; j < out.size(); ++j) {
    float lo = in[0][j], hi = in[0][j];
    for (const auto& v : in) {
      lo = std::min(lo, v[j]);
      hi = std::max(hi, v[j]);
    }
    EXPECT_GE(out[j], lo - 1e-4F) << p.gar;
    EXPECT_LE(out[j], hi + 1e-4F) << p.gar;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GarAlgebra,
    ::testing::Values(GarShape{"average", 7, 0}, GarShape{"median", 7, 2},
                      GarShape{"median", 8, 2},  // even input count
                      GarShape{"trimmed_mean", 9, 3},
                      GarShape{"krum", 9, 2}, GarShape{"multi_krum", 9, 2},
                      GarShape{"mda", 7, 2}, GarShape{"bulyan", 11, 2},
                      GarShape{"geometric_median", 7, 2},
                      GarShape{"centered_clip", 7, 2}, GarShape{"cge", 7, 2}),
    [](const ::testing::TestParamInfo<GarShape>& info) {
      return info.param.gar + "_n" + std::to_string(info.param.n) + "_f" +
             std::to_string(info.param.f);
    });

// ------------------------------------------- cost-model monotonicity

class SimMonotonic
    : public ::testing::TestWithParam<gc::Deployment> {};

TEST_P(SimMonotonic, IterationTimeGrowsWithDimension) {
  gs::SimSetup s;
  s.config.deployment = GetParam();
  s.config.batch_size = 32;
  s.config.asynchronous = true;
  s.config.nw = 12;
  s.config.fw = 2;
  s.config.nps = 4;
  s.config.fps = 1;
  s.config.gradient_gar = "multi_krum";
  double prev = 0.0;
  for (std::size_t d : {100'000UL, 1'000'000UL, 10'000'000UL}) {
    s.d = d;
    const double t = gs::simulate_iteration(s).total();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_P(SimMonotonic, IterationTimeGrowsWithWorkers) {
  gs::SimSetup s;
  s.config.deployment = GetParam();
  s.config.batch_size = 32;
  s.config.asynchronous = true;
  s.d = 10'000'000;
  s.config.fw = 1;
  s.config.nps = 4;
  s.config.fps = 1;
  s.config.gradient_gar = "median";
  double prev = 0.0;
  for (std::size_t nw : {4UL, 8UL, 16UL}) {
    s.config.nw = nw;
    const double t = gs::simulate_iteration(s).total();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_P(SimMonotonic, FaultTolerantSlowdownAtLeastOne) {
  if (GetParam() == gc::Deployment::kVanilla) GTEST_SKIP();
  for (const char* model : {"CifarNet", "ResNet-50", "VGG"}) {
    for (bool gpu : {false, true}) {
      gs::SimSetup s;
      s.config.deployment = GetParam();
      s.config.batch_size = 32;
      s.config.asynchronous = true;
      s.d = gs::model_spec(model).parameters;
      s.config.nw = 12;
      s.config.fw = 2;
      s.config.nps = 4;
      s.config.fps = 1;
      s.config.gradient_gar = "multi_krum";
      s.device = gpu ? gs::gpu_profile() : gs::cpu_profile();
      s.link = gpu ? gs::gpu_link() : gs::cpu_link();
      EXPECT_GT(gs::slowdown_vs_vanilla(s), 1.0)
          << model << (gpu ? " gpu" : " cpu");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDeployments, SimMonotonic,
    ::testing::Values(gc::Deployment::kVanilla,
                      gc::Deployment::kCrashTolerant,
                      gc::Deployment::kSsmw, gc::Deployment::kMsmw,
                      gc::Deployment::kDecentralized),
    [](const ::testing::TestParamInfo<gc::Deployment>& info) {
      return gc::to_string(info.param);
    });

// ------------------------------------------- end-to-end determinism

TEST(Determinism, VanillaRunsAreBitReproducible) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.model = "tiny_mlp";
  cfg.nw = 4;
  cfg.train_size = 512;
  cfg.test_size = 128;
  cfg.batch_size = 16;
  cfg.iterations = 60;
  cfg.eval_every = 20;
  cfg.seed = 77;
  const gc::TrainResult a = gc::train(cfg);
  const gc::TrainResult b = gc::train(cfg);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].accuracy, b.curve[i].accuracy);
    EXPECT_EQ(a.curve[i].loss, b.curve[i].loss);
  }
}

TEST(Determinism, SsmwRunsAreBitReproducible) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.model = "tiny_mlp";
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.train_size = 512;
  cfg.test_size = 128;
  cfg.batch_size = 16;
  cfg.iterations = 60;
  cfg.eval_every = 60;
  cfg.seed = 78;
  const gc::TrainResult a = gc::train(cfg);
  const gc::TrainResult b = gc::train(cfg);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
}

TEST(Determinism, DifferentSeedsDiverge) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.model = "tiny_mlp";
  cfg.nw = 4;
  cfg.train_size = 512;
  cfg.test_size = 128;
  cfg.iterations = 40;
  cfg.eval_every = 0;
  cfg.seed = 1;
  const double a = gc::train(cfg).final_loss;
  cfg.seed = 2;
  const double b = gc::train(cfg).final_loss;
  EXPECT_NE(a, b);
}

// ------------------------------------------- cluster stress

TEST(ClusterStress, RandomizedLoadWithCrashes) {
  gn::Cluster::Options opts;
  opts.nodes = 12;
  opts.pool_threads = 16;
  gn::Cluster cluster(opts);
  for (gn::NodeId i = 0; i < 12; ++i) {
    cluster.register_handler(i, "echo", [i](const gn::Request& req) {
      gn::Payload p(8, float(i));
      p[0] = float(req.iteration);
      return gn::HandlerResult::reply(std::move(p));
    });
  }
  cluster.crash(3);
  cluster.crash(7);
  std::vector<gn::NodeId> peers;
  for (gn::NodeId i = 0; i < 12; ++i) peers.push_back(i);

  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&cluster, &peers, &total, t] {
      gt::Rng rng{std::uint64_t(t)};
      for (int k = 0; k < 30; ++k) {
        const std::size_t q = 1 + rng.index(9);  // 1..9 <= 10 live nodes
        auto replies = cluster.collect(gn::NodeId(t), peers, "echo",
                                       std::uint64_t(k), nullptr, q);
        EXPECT_GE(replies.size(), q);  // 10 live nodes can always fill q
        for (const auto& r : replies) {
          EXPECT_NE(r.from, 3u);
          EXPECT_NE(r.from, 7u);
          EXPECT_EQ((*r.payload)[0], float(k));
        }
        total.fetch_add(int(replies.size()));
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_GT(total.load(), 0);
  const gn::NetStats stats = cluster.stats();
  EXPECT_EQ(stats.requests_sent, 6u * 30u * 12u);
}
