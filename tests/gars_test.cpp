// Unit and property tests for garfield::gars — every GAR's correctness on
// hand-checkable inputs, the resilience preconditions, permutation
// invariance, and the central robustness property: with at most f
// adversarial inputs the aggregate stays near the honest gradients.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "gars/gar.h"
#include "gars/median3.h"
#include "support/test_support.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/vecops.h"

namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using gt::FlatVector;

namespace {

std::vector<FlatVector> honest_cloud(std::size_t n, std::size_t d,
                                     gt::Rng& rng, float center = 1.0F,
                                     float spread = 0.1F) {
  std::vector<FlatVector> out(n, FlatVector(d));
  for (auto& v : out) {
    for (float& x : v) x = center + rng.normal(0.0F, spread);
  }
  return out;
}

double distance_to_center(const FlatVector& v, float center) {
  FlatVector ref(v.size(), center);
  return std::sqrt(gt::squared_distance(v, ref));
}

}  // namespace

// ---------------------------------------------------------------- factory

TEST(GarFactory, KnowsAllNames) {
  for (const std::string& name : gg::gar_names()) {
    const std::size_t f = name == "average" ? 0 : 1;
    gg::GarPtr gar = gg::make_gar(name, gg::gar_min_n(name, f), f);
    EXPECT_EQ(gar->name(), name);
  }
}

TEST(GarFactory, UnknownNameThrows) {
  EXPECT_THROW((void)gg::make_gar("resilient_mean_9000", 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::gar_min_n("nope", 1), std::invalid_argument);
}

TEST(GarFactory, EnforcesResiliencePreconditions) {
  EXPECT_THROW((void)gg::make_gar("median", 2, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)gg::make_gar("median", 3, 1));
  EXPECT_THROW((void)gg::make_gar("krum", 4, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)gg::make_gar("krum", 5, 1));
  EXPECT_THROW((void)gg::make_gar("bulyan", 6, 1), std::invalid_argument);
  EXPECT_NO_THROW((void)gg::make_gar("bulyan", 7, 1));
  EXPECT_THROW((void)gg::make_gar("mda", 2, 1), std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("trimmed_mean", 2, 1),
               std::invalid_argument);
}

TEST(Gar, RejectsWrongInputCountAndRaggedDimensions) {
  gg::GarPtr avg = gg::make_gar("average", 3, 0);
  std::vector<FlatVector> two = {{1, 2}, {3, 4}};
  EXPECT_THROW((void)ts::aggregate(*avg, two), std::invalid_argument);
  std::vector<FlatVector> ragged = {{1, 2}, {3, 4}, {5}};
  EXPECT_THROW((void)ts::aggregate(*avg, ragged), std::invalid_argument);
  std::vector<FlatVector> empty = {{}, {}, {}};
  EXPECT_THROW((void)ts::aggregate(*avg, empty), std::invalid_argument);
}

TEST(Gar, AggregateIntoMatchesAggregateForEveryRule) {
  // Owned vectors through one shared context reused across rules and
  // rounds (the steady-state server pattern), with an `out` that arrives
  // dirty and wrongly sized, must agree bitwise with a fresh context, for
  // every rule. So must borrowed rows viewing separate storage, the way a
  // server's rows view the payloads it pulled.
  gt::Rng rng(4242);
  gg::AggregationContext ctx;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& name : gg::gar_names()) {
      const std::size_t f = name == "average" ? 0 : 1;
      const std::size_t n = gg::gar_min_n(name, f) + 1;
      const std::size_t d = 24 + std::size_t(round) * 9;
      const auto inputs = honest_cloud(n, d, rng);
      gg::GarPtr gar = gg::make_gar(name, n, f);
      FlatVector out(3, -123.0F);  // wrong size, garbage contents
      gar->aggregate_into(inputs, ctx, out);
      EXPECT_EQ(out.size(), d) << name;
      EXPECT_EQ(out, ts::aggregate(*gar, inputs)) << name << " round " << round;
      FlatVector flat;
      for (const FlatVector& v : inputs)
        flat.insert(flat.end(), v.begin(), v.end());
      std::vector<gg::Row> rows;
      for (std::size_t i = 0; i < n; ++i)
        rows.emplace_back(flat.data() + i * d, d);
      FlatVector borrowed(3, -123.0F);
      gar->aggregate_into(rows, ctx, borrowed);
      ASSERT_EQ(borrowed.size(), d) << name;
      EXPECT_EQ(std::memcmp(borrowed.data(), out.data(), d * sizeof(float)), 0)
          << name << " round " << round;
    }
  }
}

// ------------------------------------------------------------- average

TEST(AverageGar, ComputesMean) {
  gg::GarPtr gar = gg::make_gar("average", 3, 0);
  std::vector<FlatVector> in = {{0, 3}, {3, 3}, {6, 3}};
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_FLOAT_EQ(out[0], 3.0F);
  EXPECT_FLOAT_EQ(out[1], 3.0F);
}

// -------------------------------------------------------------- median

TEST(MedianGar, OddCountExactMedian) {
  gg::GarPtr gar = gg::make_gar("median", 5, 2);
  std::vector<FlatVector> in = {{1}, {9}, {5}, {3}, {7}};
  EXPECT_FLOAT_EQ(ts::aggregate(*gar, in)[0], 5.0F);
}

TEST(MedianGar, EvenCountAveragesMiddles) {
  gg::GarPtr gar = gg::make_gar("median", 4, 1);
  std::vector<FlatVector> in = {{1}, {2}, {3}, {10}};
  EXPECT_FLOAT_EQ(ts::aggregate(*gar, in)[0], 2.5F);
}

TEST(MedianGar, ThreeInputsUsesBranchlessPath) {
  gg::GarPtr gar = gg::make_gar("median", 3, 1);
  std::vector<FlatVector> in = {{5, -1}, {1, 0}, {3, 7}};
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_FLOAT_EQ(out[0], 3.0F);
  EXPECT_FLOAT_EQ(out[1], 0.0F);
}

TEST(MedianGar, CoordinateWiseIndependence) {
  gg::GarPtr gar = gg::make_gar("median", 3, 1);
  std::vector<FlatVector> in = {{1, 100}, {2, 50}, {3, 0}};
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_FLOAT_EQ(out[0], 2.0F);
  EXPECT_FLOAT_EQ(out[1], 50.0F);
}

TEST(MedianGar, IgnoresFExtremes) {
  gg::GarPtr gar = gg::make_gar("median", 5, 2);
  std::vector<FlatVector> in = {{1.0F}, {1.1F}, {0.9F}, {1e9F}, {-1e9F}};
  EXPECT_NEAR(ts::aggregate(*gar, in)[0], 1.0F, 0.2F);
}

namespace {

// The median before the comparator network: introselect per coordinate
// (the former Median::do_aggregate loop, run serially).
FlatVector introselect_median(const std::vector<FlatVector>& inputs) {
  const std::size_t n = inputs.size();
  const std::size_t d = inputs.front().size();
  FlatVector out(d);
  std::vector<float> column(n);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = inputs[i][j];
    const std::size_t mid = n / 2;
    std::nth_element(column.begin(), column.begin() + long(mid),
                     column.end());
    if (n % 2 == 1) {
      out[j] = column[mid];
    } else {
      const float hi = column[mid];
      const float lo =
          *std::max_element(column.begin(), column.begin() + long(mid));
      out[j] = 0.5F * (lo + hi);
    }
  }
  return out;
}

// n inputs of dimension d whose coordinates are draw(rng).
template <typename Draw>
std::vector<FlatVector> cloud_of(std::size_t n, std::size_t d,
                                 std::uint64_t seed, Draw draw) {
  gt::Rng rng(seed);
  std::vector<FlatVector> out(n, FlatVector(d));
  for (FlatVector& v : out) {
    for (float& x : v) x = draw(rng);
  }
  return out;
}

FlatVector median_of(const std::vector<FlatVector>& inputs) {
  const gg::Median gar(inputs.size(), (inputs.size() - 1) / 2);
  gg::AggregationContext ctx;
  FlatVector out;
  gar.aggregate_into(inputs, ctx, out);
  return out;
}

bool same_bits(const FlatVector& a, const FlatVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const std::size_t kNetworkSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                     10, 11, 12, 13, 14, 15, 16, 17, 23,
                                     31, 64};

}  // namespace

TEST(MedianGar, NetworkMatchesIntroselectBitwise) {
  for (const std::size_t threads : {0U, 1U, 5U}) {
    const ts::ShardCount shards(threads);
    for (const std::size_t n : kNetworkSizes) {
      for (const std::size_t d : {1U, 3U, 4U, 5U, 874U, 17226U}) {
        const auto inputs = cloud_of(n, d, 1000 * n + d, [](gt::Rng& rng) {
          return rng.normal(0.0F, 1.0F);
        });
        EXPECT_TRUE(same_bits(median_of(inputs), introselect_median(inputs)))
            << "n=" << n << " d=" << d << " threads=" << threads;
      }
    }
  }
}

TEST(MedianGar, NetworkMatchesIntroselectAcrossShards) {
  // Above two coordinate grains, so the shards split blocks unevenly.
  const std::size_t d = 2 * gt::kParallelForGrain + 37;
  for (const std::size_t threads : {1U, 2U, 5U}) {
    const ts::ShardCount shards(threads);
    for (const std::size_t n : {4U, 5U, 8U}) {
      const auto inputs = cloud_of(n, d, n, [](gt::Rng& rng) {
        return rng.normal(0.0F, 1.0F);
      });
      EXPECT_TRUE(same_bits(median_of(inputs), introselect_median(inputs)))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(MedianGar, NetworkMatchesIntroselectOnTiesAndInfinities) {
  // Few distinct values, so most ranks tie, plus both infinities: an even
  // n then averages -inf and +inf at some coordinates, giving NaN in both.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float values[] = {-kInf, -2.0F, -0.5F, 1.0F, 1.0F, 3.0F, kInf};
  for (const std::size_t n : kNetworkSizes) {
    const auto inputs = cloud_of(n, 301, n, [&](gt::Rng& rng) {
      return values[rng.index(std::size(values))];
    });
    EXPECT_TRUE(same_bits(median_of(inputs), introselect_median(inputs)))
        << "n=" << n;
  }
}

TEST(MedianGar, SignedZeroTiesCompareByValue) {
  // -0 and +0 tie at the median rank; only the zero's sign may differ.
  const float values[] = {-0.0F, 0.0F, -0.0F, 0.0F, -1.0F, 1.0F};
  for (const std::size_t n : kNetworkSizes) {
    const auto inputs = cloud_of(n, 257, 7 * n, [&](gt::Rng& rng) {
      return values[rng.index(std::size(values))];
    });
    const FlatVector got = median_of(inputs);
    const FlatVector want = introselect_median(inputs);
    for (std::size_t j = 0; j < got.size(); ++j)
      EXPECT_EQ(got[j], want[j]) << "n=" << n << " j=" << j;
  }
}

// --------------------------------------------------------- trimmed mean

TEST(TrimmedMeanGar, DropsExtremes) {
  gg::GarPtr gar = gg::make_gar("trimmed_mean", 5, 1);
  std::vector<FlatVector> in = {{2}, {4}, {6}, {100}, {-100}};
  EXPECT_FLOAT_EQ(ts::aggregate(*gar, in)[0], 4.0F);  // mean of {2,4,6}
}

TEST(TrimmedMeanGar, FZeroIsPlainMean) {
  gg::GarPtr gar = gg::make_gar("trimmed_mean", 3, 0);
  std::vector<FlatVector> in = {{1}, {2}, {9}};
  EXPECT_FLOAT_EQ(ts::aggregate(*gar, in)[0], 4.0F);
}

// ------------------------------------------------------------------ krum

TEST(KrumGar, ReturnsOneOfTheInputs) {
  gt::Rng rng(1);
  auto in = honest_cloud(7, 5, rng);
  gg::GarPtr gar = gg::make_gar("krum", 7, 2);
  FlatVector out = ts::aggregate(*gar, in);
  bool is_input = false;
  for (const auto& v : in) {
    if (v == out) is_input = true;
  }
  EXPECT_TRUE(is_input);
}

TEST(KrumGar, PicksFromTheDenseCluster) {
  // 5 vectors near 0, 2 outliers far away: Krum must select a cluster one.
  std::vector<FlatVector> in = {{0.0F, 0.1F}, {0.1F, 0.0F},  {-0.1F, 0.0F},
                                {0.0F, -0.1F}, {0.05F, 0.05F}, {50.0F, 50.0F},
                                {-50.0F, 50.0F}};
  gg::GarPtr gar = gg::make_gar("krum", 7, 2);
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_LT(std::abs(out[0]), 1.0F);
  EXPECT_LT(std::abs(out[1]), 1.0F);
}

TEST(MultiKrumGar, AveragesSelectionSet) {
  gt::Rng rng(2);
  auto in = honest_cloud(9, 4, rng, 2.0F, 0.05F);
  // Two adversarial inputs far away.
  in[7].assign(4, 1000.0F);
  in[8].assign(4, -1000.0F);
  gg::GarPtr gar = gg::make_gar("multi_krum", 9, 2);
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_LT(distance_to_center(out, 2.0F), 0.5);
}

TEST(MultiKrumGar, MatchesManualSelectionSize) {
  gg::MultiKrum mk(9, 2);
  EXPECT_EQ(mk.m(), 5u);  // n - f - 2
}

// ------------------------------------------------------------------- mda

TEST(MdaGar, AveragesMinimumDiameterSubset) {
  // 3 tight vectors + 1 outlier, f = 1: subset of size 3 with min diameter
  // is the tight cluster, so the aggregate is its mean.
  std::vector<FlatVector> in = {{1.0F}, {1.2F}, {0.8F}, {100.0F}};
  gg::GarPtr gar = gg::make_gar("mda", 4, 1);
  EXPECT_NEAR(ts::aggregate(*gar, in)[0], 1.0F, 1e-5F);
}

TEST(MdaGar, ExactSubsetChoice) {
  // Constructed so the minimum-diameter 2-subset is {10.0, 10.4}, not the
  // pair containing 9.0.
  std::vector<FlatVector> in = {{9.0F}, {10.0F}, {10.4F}};
  gg::GarPtr gar = gg::make_gar("mda", 3, 1);
  EXPECT_NEAR(ts::aggregate(*gar, in)[0], 10.2F, 1e-5F);
}

TEST(MdaGar, FZeroAveragesEverything) {
  std::vector<FlatVector> in = {{2.0F}, {4.0F}, {9.0F}};
  gg::GarPtr gar = gg::make_gar("mda", 3, 0);
  EXPECT_FLOAT_EQ(ts::aggregate(*gar, in)[0], 5.0F);
}

// ---------------------------------------------------------------- bulyan

TEST(BulyanGar, SurvivesCoordinateAttack) {
  // 7 inputs, f = 1. Adversary poisons a single coordinate massively (the
  // attack Bulyan was designed against).
  gt::Rng rng(3);
  auto in = honest_cloud(7, 6, rng, 1.0F, 0.05F);
  in[6] = FlatVector(6, 1.0F);
  in[6][3] = 1e6F;  // hidden single-coordinate poison
  gg::GarPtr gar = gg::make_gar("bulyan", 7, 1);
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_LT(std::abs(out[3] - 1.0F), 0.5F);
}

TEST(BulyanGar, CleanInputsStayNearMean) {
  gt::Rng rng(4);
  auto in = honest_cloud(7, 8, rng, -3.0F, 0.02F);
  gg::GarPtr gar = gg::make_gar("bulyan", 7, 1);
  EXPECT_LT(distance_to_center(ts::aggregate(*gar, in), -3.0F), 0.3);
}

// --------------------------------------------------------- median3 (§4.3)

TEST(Median3, ExhaustiveOverPermutations) {
  const float vals[3] = {-2.5F, 0.0F, 7.25F};
  int perm[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                    {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (auto& p : perm) {
    auto sorted =
        gg::sort3_branchless(vals[p[0]], vals[p[1]], vals[p[2]]);
    EXPECT_FLOAT_EQ(sorted[0], -2.5F);
    EXPECT_FLOAT_EQ(sorted[1], 0.0F);
    EXPECT_FLOAT_EQ(sorted[2], 7.25F);
    EXPECT_FLOAT_EQ(
        gg::median3_branchless(vals[p[0]], vals[p[1]], vals[p[2]]), 0.0F);
  }
}

TEST(Median3, HandlesTies) {
  EXPECT_FLOAT_EQ(gg::median3_branchless(1.0F, 1.0F, 5.0F), 1.0F);
  EXPECT_FLOAT_EQ(gg::median3_branchless(5.0F, 1.0F, 1.0F), 1.0F);
  EXPECT_FLOAT_EQ(gg::median3_branchless(2.0F, 2.0F, 2.0F), 2.0F);
}

TEST(Median3, RandomAgreesWithSort) {
  gt::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    float a = rng.normal(), b = rng.normal(), c = rng.normal();
    std::array<float, 3> v{a, b, c};
    std::sort(v.begin(), v.end());
    EXPECT_EQ(gg::median3_branchless(a, b, c), v[1]);
  }
}

// -------------------------------------------------- property: robustness

struct RobustCase {
  std::string gar;
  std::size_t n;
  std::size_t f;
};

class GarRobustness : public ::testing::TestWithParam<RobustCase> {};

/// With f adversarial vectors at +/-10^4 and honest vectors near `center`,
/// every Byzantine-resilient GAR must output something near `center`.
TEST_P(GarRobustness, BoundedDeviationUnderOutliers) {
  const RobustCase& c = GetParam();
  gt::Rng rng(7);
  const std::size_t d = 24;
  auto in = honest_cloud(c.n, d, rng, 1.0F, 0.1F);
  for (std::size_t k = 0; k < c.f; ++k) {
    const float sign = (k % 2 == 0) ? 1.0F : -1.0F;
    in[c.n - 1 - k].assign(d, sign * 1e4F);
  }
  gg::GarPtr gar = gg::make_gar(c.gar, c.n, c.f);
  FlatVector out = ts::aggregate(*gar, in);
  EXPECT_LT(distance_to_center(out, 1.0F), 1.0)
      << c.gar << " n=" << c.n << " f=" << c.f;
}

/// GARs must be invariant to the order in which replies arrive (the paper's
/// collect keeps the *fastest* q — arrival order is adversarial).
TEST_P(GarRobustness, PermutationInvariant) {
  const RobustCase& c = GetParam();
  gt::Rng rng(8);
  const std::size_t d = 12;
  auto in = honest_cloud(c.n, d, rng, 0.0F, 1.0F);
  gg::GarPtr gar = gg::make_gar(c.gar, c.n, c.f);
  FlatVector base = ts::aggregate(*gar, in);
  std::reverse(in.begin(), in.end());
  FlatVector reversed = ts::aggregate(*gar, in);
  for (std::size_t j = 0; j < d; ++j) EXPECT_FLOAT_EQ(base[j], reversed[j]);
}

/// Aggregating n identical vectors must return that vector (idempotence).
TEST_P(GarRobustness, IdempotentOnIdenticalInputs) {
  const RobustCase& c = GetParam();
  const std::size_t d = 9;
  FlatVector v(d);
  for (std::size_t j = 0; j < d; ++j) v[j] = float(j) - 4.0F;
  std::vector<FlatVector> in(c.n, v);
  gg::GarPtr gar = gg::make_gar(c.gar, c.n, c.f);
  FlatVector out = ts::aggregate(*gar, in);
  for (std::size_t j = 0; j < d; ++j) EXPECT_NEAR(out[j], v[j], 1e-5F);
}

INSTANTIATE_TEST_SUITE_P(
    AllGars, GarRobustness,
    ::testing::Values(RobustCase{"median", 5, 2}, RobustCase{"median", 9, 3},
                      RobustCase{"trimmed_mean", 7, 2},
                      RobustCase{"krum", 7, 2}, RobustCase{"krum", 9, 3},
                      RobustCase{"multi_krum", 7, 2},
                      RobustCase{"multi_krum", 11, 4},
                      RobustCase{"mda", 7, 2}, RobustCase{"mda", 9, 3},
                      RobustCase{"bulyan", 7, 1}, RobustCase{"bulyan", 11, 2}),
    [](const ::testing::TestParamInfo<RobustCase>& info) {
      return info.param.gar + "_n" + std::to_string(info.param.n) + "_f" +
             std::to_string(info.param.f);
    });

// --------------------------------------- property: dimension scalability

class GarDimensions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GarDimensions, AllGarsHandleDimension) {
  const std::size_t d = GetParam();
  gt::Rng rng(9);
  const std::size_t n = 7, f = 1;
  auto in = honest_cloud(n, d, rng, 0.5F, 0.1F);
  for (const std::string& name : gg::gar_names()) {
    gg::GarPtr gar = gg::make_gar(name, n, name == "average" ? 0 : f);
    FlatVector out = ts::aggregate(*gar, in);
    ASSERT_EQ(out.size(), d) << name;
    EXPECT_TRUE(gt::all_finite(out)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GarDimensions,
                         ::testing::Values(1, 2, 63, 64, 65, 1000, 100000));
