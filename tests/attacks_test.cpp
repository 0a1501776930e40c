// Unit tests for garfield::attacks plus the GAR-vs-attack robustness
// matrix: every Byzantine-resilient GAR against every implemented attack,
// including the omniscient ones (little-is-enough, fall-of-empires,
// adaptive_z). Registry/spec/plan behaviour lives in attack_registry_test;
// adaptive-attack determinism in adaptive_attacks_test.
#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attack.h"
#include "gars/gar.h"
#include "support/test_support.h"
#include "tensor/vecops.h"

namespace ga = garfield::attacks;
namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using gt::FlatVector;

namespace {

std::vector<FlatVector> honest_gradients(std::size_t n, std::size_t d,
                                         gt::Rng& rng) {
  std::vector<FlatVector> out(n, FlatVector(d));
  for (auto& g : out) {
    for (std::size_t j = 0; j < d; ++j)
      g[j] = 1.0F + 0.1F * float(j % 3) + rng.normal(0.0F, 0.15F);
  }
  return out;
}

/// Context for a lone attacker with no cohort view.
ga::AttackContext blind_context(gt::Rng& rng) {
  return ga::AttackContext(rng);
}

/// Context for an omniscient attacker seeing `view`.
ga::AttackContext seeing_context(gt::Rng& rng,
                                 std::span<const FlatVector> view) {
  ga::AttackContext ctx(rng);
  ctx.honest = view;
  ctx.n = view.size() + 1;
  ctx.f = 1;
  return ctx;
}

}  // namespace

TEST(AttackFactory, KnowsAllNames) {
  for (const std::string& name : ga::attack_names()) {
    ga::AttackPtr attack = ga::make_attack(name);
    EXPECT_EQ(attack->name(), name);
  }
}

TEST(AttackFactory, UnknownNameThrows) {
  EXPECT_THROW((void)ga::make_attack("nuke"), std::invalid_argument);
}

TEST(RandomAttack, ReplacesWithNoiseOfRightSize) {
  gt::Rng rng(1);
  ga::RandomAttack attack(2.0F);
  FlatVector honest(100, 1.0F);
  ga::AttackContext ctx = blind_context(rng);
  auto out = attack.craft(honest, ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), honest.size());
  // The crafted vector should look nothing like the honest one.
  EXPECT_GT(gt::squared_distance(*out, honest), 10.0);
}

TEST(ReversedAttack, MultipliesByMinusFactor) {
  gt::Rng rng(2);
  ga::ReversedAttack attack(100.0F);
  FlatVector honest{1.0F, -2.0F};
  ga::AttackContext ctx = blind_context(rng);
  auto out = attack.craft(honest, ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_FLOAT_EQ((*out)[0], -100.0F);
  EXPECT_FLOAT_EQ((*out)[1], 200.0F);
}

TEST(DroppedAttack, SendsNothing) {
  gt::Rng rng(3);
  ga::DroppedAttack attack;
  FlatVector honest{1.0F};
  ga::AttackContext ctx = blind_context(rng);
  EXPECT_FALSE(attack.craft(honest, ctx).has_value());
}

TEST(SignFlipAttack, NegatesVector) {
  gt::Rng rng(4);
  ga::SignFlipAttack attack;
  FlatVector honest{3.0F, -4.0F};
  ga::AttackContext ctx = blind_context(rng);
  auto out = attack.craft(honest, ctx);
  EXPECT_FLOAT_EQ((*out)[0], -3.0F);
  EXPECT_FLOAT_EQ((*out)[1], 4.0F);
}

TEST(ZeroAttack, AllZeros) {
  gt::Rng rng(5);
  ga::ZeroAttack attack;
  FlatVector honest{3.0F, -4.0F};
  ga::AttackContext ctx = blind_context(rng);
  auto out = attack.craft(honest, ctx);
  EXPECT_FLOAT_EQ((*out)[0], 0.0F);
  EXPECT_FLOAT_EQ((*out)[1], 0.0F);
}

TEST(LittleIsEnough, StaysWithinFewSigmaOfMean) {
  gt::Rng rng(6);
  auto others = honest_gradients(8, 16, rng);
  ga::LittleIsEnoughAttack attack(1.5F);
  ga::AttackContext ctx = seeing_context(rng, others);
  auto out = attack.craft(others[0], ctx);
  ASSERT_TRUE(out.has_value());
  const FlatVector mu = gt::mean(others);
  // Crafted vector deviates from the mean but by a bounded amount
  // (that is the point: hide inside the variance).
  const double dist = std::sqrt(gt::squared_distance(*out, mu));
  EXPECT_GT(dist, 0.0);
  EXPECT_LT(dist, 8.0);
}

TEST(LittleIsEnough, DegradesGracefullyWithoutOthers) {
  gt::Rng rng(7);
  ga::LittleIsEnoughAttack attack;
  FlatVector honest{1.0F, 2.0F};
  ga::AttackContext ctx = blind_context(rng);
  auto out = attack.craft(honest, ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, honest);
}

TEST(LittleIsEnough, IntensityScalesTheDeviation) {
  gt::Rng rng(9);
  auto others = honest_gradients(8, 16, rng);
  const FlatVector mu = gt::mean(others);
  double previous = 0.0;
  for (float z : {0.5F, 1.5F, 3.0F}) {
    ga::LittleIsEnoughAttack attack(z);
    ga::AttackContext ctx = seeing_context(rng, others);
    auto out = attack.craft(others[0], ctx);
    ASSERT_TRUE(out.has_value());
    const double dist = std::sqrt(gt::squared_distance(*out, mu));
    EXPECT_GT(dist, previous) << "z=" << z;
    previous = dist;
  }
}

TEST(FallOfEmpires, OpposesHonestMean) {
  gt::Rng rng(8);
  auto others = honest_gradients(8, 16, rng);
  ga::FallOfEmpiresAttack attack(1.1F);
  ga::AttackContext ctx = seeing_context(rng, others);
  auto out = attack.craft(others[0], ctx);
  ASSERT_TRUE(out.has_value());
  const FlatVector mu = gt::mean(others);
  EXPECT_LT(gt::cosine(*out, mu), -0.99);
}

TEST(Alternating, SwitchesSubAttackOnThePeriod) {
  gt::Rng rng(10);
  ga::AttackPtr attack = ga::make_attack("alternating:period=2");
  FlatVector honest{3.0F, -4.0F};
  // period=2 with defaults: iterations 0,1 sign_flip; 2,3 zero; 4 flips
  // back.
  for (std::uint64_t it : {0u, 1u, 4u, 5u}) {
    ga::AttackContext ctx = blind_context(rng);
    ctx.iteration = it;
    auto out = attack->craft(honest, ctx);
    ASSERT_TRUE(out.has_value());
    EXPECT_FLOAT_EQ((*out)[0], -3.0F) << "iteration " << it;
  }
  for (std::uint64_t it : {2u, 3u, 6u, 7u}) {
    ga::AttackContext ctx = blind_context(rng);
    ctx.iteration = it;
    auto out = attack->craft(honest, ctx);
    ASSERT_TRUE(out.has_value());
    EXPECT_FLOAT_EQ((*out)[0], 0.0F) << "iteration " << it;
  }
}

TEST(AdaptiveZ, TunesIntensityAgainstTheProbe) {
  gt::Rng rng(11);
  auto others = honest_gradients(9, 32, rng);
  ga::AdaptiveZAttack attack;  // probe=krum, z_max=8
  ga::AttackContext ctx = seeing_context(rng, others);
  ctx.f = 2;
  auto out = attack.craft(others[0], ctx);
  ASSERT_TRUE(out.has_value());
  // The attack found a strictly positive intensity that still hides from
  // Krum — but well below the unconstrained maximum (Krum filters z_max).
  EXPECT_GT(attack.last_z(), 0.0);
  EXPECT_LT(attack.last_z(), 8.0);
  // Against a defenseless probe the same attacker goes full throttle.
  ga::AdaptiveZAttack::Options greedy;
  greedy.probe = "average";
  ga::AdaptiveZAttack unopposed(greedy);
  ga::AttackContext ctx2 = seeing_context(rng, others);
  ctx2.f = 2;
  ASSERT_TRUE(unopposed.craft(others[0], ctx2).has_value());
  EXPECT_DOUBLE_EQ(unopposed.last_z(), greedy.z_max);
  EXPECT_GT(unopposed.last_z(), attack.last_z());
}

// --------------------------------------------------- robustness matrix

struct MatrixCase {
  std::string gar;
  std::string attack;
};

class GarVsAttack : public ::testing::TestWithParam<MatrixCase> {};

/// For each (GAR, attack) pair: n = 11, f = 2 omniscient attackers. The
/// aggregated output must stay positively aligned with the honest mean —
/// the defining property of Byzantine resilience (the aggregate never
/// points away from the descent direction).
TEST_P(GarVsAttack, AggregateStaysAlignedWithHonestMean) {
  const MatrixCase& c = GetParam();
  gt::Rng rng(42);
  const std::size_t n = 11, f = 2, d = 32;
  auto inputs = honest_gradients(n, d, rng);
  std::vector<FlatVector> honest(inputs.begin(), inputs.end() - f);
  const FlatVector honest_mean = gt::mean(honest);

  ga::AttackPtr attack = ga::make_attack(c.attack);
  std::size_t byzantine_count = 0;
  std::vector<FlatVector> delivered = honest;
  for (std::size_t k = 0; k < f; ++k) {
    ga::AttackContext ctx(rng);
    ctx.attacker_id = n - 1 - k;
    ctx.n = n;
    ctx.f = f;
    ctx.honest = honest;
    auto crafted = attack->craft(inputs[n - 1 - k], ctx);
    if (crafted) {
      delivered.push_back(std::move(*crafted));
      ++byzantine_count;
    }
  }
  // Dropped vectors never reach the GAR (fastest-q semantics); aggregate
  // whatever arrived.
  gg::GarPtr gar = gg::make_gar(c.gar, delivered.size(), byzantine_count);
  const FlatVector out = ts::aggregate(*gar, delivered);

  EXPECT_TRUE(gt::all_finite(out)) << c.gar << " vs " << c.attack;
  EXPECT_GT(gt::cosine(out, honest_mean), 0.5)
      << c.gar << " vs " << c.attack;
  // And the magnitude stays commensurate with honest gradients.
  EXPECT_LT(gt::norm(out), 3.0 * gt::norm(honest_mean))
      << c.gar << " vs " << c.attack;
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const char* gar :
       {"median", "trimmed_mean", "krum", "multi_krum", "mda", "bulyan"}) {
    for (const char* attack :
         {"random", "reversed", "dropped", "sign_flip", "zero",
          "little_is_enough", "fall_of_empires", "alternating",
          "adaptive_z"}) {
      cases.push_back({gar, attack});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GarVsAttack, ::testing::ValuesIn(matrix_cases()),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return info.param.gar + "_vs_" + info.param.attack;
    });

/// Negative control: plain averaging is NOT resilient — the same attacks
/// must break it (otherwise the matrix above proves nothing).
TEST(AverageIsFragile, ReversedAttackFlipsTheMean) {
  gt::Rng rng(43);
  const std::size_t n = 11, f = 2, d = 32;
  auto inputs = honest_gradients(n, d, rng);
  std::vector<FlatVector> honest(inputs.begin(), inputs.end() - f);
  const FlatVector honest_mean = gt::mean(honest);
  ga::ReversedAttack attack(100.0F);
  std::vector<FlatVector> delivered = honest;
  for (std::size_t k = 0; k < f; ++k) {
    ga::AttackContext ctx(rng);
    ctx.honest = honest;
    delivered.push_back(*attack.craft(inputs[n - 1 - k], ctx));
  }
  gg::GarPtr avg = gg::make_gar("average", delivered.size(), 0);
  EXPECT_LT(gt::cosine(ts::aggregate(*avg, delivered), honest_mean), 0.0);
}
