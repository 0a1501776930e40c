// Tests for the §4.4 distance cache and Bulyan's cached iterated-Krum
// phase, including equivalence with a naive (recomputing) reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "gars/gar.h"
#include "support/test_support.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using gt::FlatVector;

namespace {

std::vector<FlatVector> random_inputs(std::size_t n, std::size_t d,
                                      std::uint64_t seed) {
  gt::Rng rng(seed);
  std::vector<FlatVector> out(n, FlatVector(d));
  for (auto& v : out) {
    for (float& x : v) x = rng.normal();
  }
  return out;
}

/// Finite rows that stress the exactness of a squared distance: about one
/// coordinate in ten is +-0, a subnormal, a huge or a tiny value (whose
/// difference with a normal one rounds in double), and every third row
/// repeats an earlier one with a few coordinates nudged by one ulp, so
/// most of its differences cancel to zero.
std::vector<FlatVector> finite_rows(std::size_t n, std::size_t d,
                                    std::uint64_t seed) {
  const float specials[] = {0.0F,
                            -0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40F,
                            3e38F,
                            -3e38F,
                            1e-30F,
                            -1e30F};
  std::vector<FlatVector> out = random_inputs(n, d, seed);
  gt::Rng rng(seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      out[i] = out[rng.index(i)];
      for (float& x : out[i])
        if (rng.bernoulli(0.05)) x = std::nextafter(x, 1e38F);
      continue;
    }
    for (float& x : out[i])
      if (rng.bernoulli(0.1)) x = specials[rng.index(std::size(specials))];
  }
  return out;
}

/// finite_rows with about 1% of the coordinates +inf, -inf or NaN.
std::vector<FlatVector> non_finite_rows(std::size_t n, std::size_t d,
                                        std::uint64_t seed) {
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  std::vector<FlatVector> out = finite_rows(n, d, seed);
  gt::Rng rng(seed + 2);
  for (FlatVector& row : out)
    for (float& x : row)
      if (rng.bernoulli(0.01)) x = specials[rng.index(3)];
  return out;
}

/// Reference Bulyan phase-1: iterate plain Krum on a physically shrinking
/// pool (the pre-cache implementation).
std::vector<FlatVector> naive_selection(std::vector<FlatVector> pool,
                                        std::size_t n, std::size_t f) {
  const std::size_t theta = n - 2 * f;
  const gg::Krum krum(n, f);
  std::vector<FlatVector> selected;
  for (std::size_t k = 0; k < theta; ++k) {
    const std::size_t pick = ts::krum_select(krum, pool);
    selected.push_back(pool[pick]);
    pool.erase(pool.begin() + long(pick));
  }
  return selected;
}

}  // namespace

TEST(DistanceCache, MatrixIsSymmetricWithZeroDiagonal) {
  auto in = random_inputs(6, 10, 1);
  gg::DistanceCache cache;
  cache.reset(ts::rows(in));
  EXPECT_EQ(cache.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(cache.squared_distance(i, i), 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(cache.squared_distance(i, j),
                       cache.squared_distance(j, i));
      EXPECT_EQ(cache.squared_distance(i, j),
                gt::squared_distance(in[i], in[j]));
    }
  }
}

TEST(DistanceCache, RemoveTracksActiveSet) {
  auto in = random_inputs(5, 4, 2);
  gg::DistanceCache cache;
  cache.reset(ts::rows(in));
  EXPECT_EQ(cache.active_count(), 5u);
  cache.remove(2);
  cache.remove(4);
  EXPECT_EQ(cache.active_count(), 3u);
  EXPECT_FALSE(cache.is_active(2));
  EXPECT_TRUE(cache.is_active(0));
}

TEST(DistanceCache, SelectCachedMatchesSelectOnFullSet) {
  for (std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    auto in = random_inputs(9, 16, seed);
    gg::Krum krum(9, 2);
    gg::DistanceCache cache;
    cache.reset(ts::rows(in));
    EXPECT_EQ(krum.select_cached(cache, ts::rows(in)),
              ts::krum_select(krum, in))
        << seed;
  }
}

TEST(DistanceCache, CachedBulyanSelectionMatchesNaive) {
  // The cached phase-1 must produce the same selection sequence as the
  // naive recomputing version — value-for-value.
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const std::size_t n = 11, f = 2;
    auto in = random_inputs(n, 12, seed);
    const auto naive = naive_selection(in, n, f);

    gg::DistanceCache cache;
    cache.reset(ts::rows(in));
    gg::Krum krum(n, f);
    std::vector<FlatVector> cached;
    for (std::size_t k = 0; k < n - 2 * f; ++k) {
      const std::size_t pick = krum.select_cached(cache, ts::rows(in));
      cached.push_back(in[pick]);
      cache.remove(pick);
    }
    ASSERT_EQ(naive.size(), cached.size()) << seed;
    for (std::size_t k = 0; k < naive.size(); ++k) {
      EXPECT_EQ(naive[k], cached[k]) << "seed " << seed << " round " << k;
    }
  }
}

TEST(DistanceCache, BulyanEndToEndUnchangedByCaching) {
  // Bulyan's aggregate (which now uses the cache internally) must still
  // average beta values around the median of the naive selection set.
  const std::size_t n = 7, f = 1, d = 8;
  auto in = random_inputs(n, d, 10);
  gg::GarPtr bulyan = gg::make_gar("bulyan", n, f);
  const FlatVector out = ts::aggregate(*bulyan, in);

  const auto selected = naive_selection(in, n, f);
  // Recompute phase 2 by hand for coordinate 0.
  std::vector<float> col;
  for (const auto& v : selected) col.push_back(v[0]);
  std::sort(col.begin(), col.end());
  const float med = col[col.size() / 2];
  std::sort(col.begin(), col.end(), [med](float a, float b) {
    const float da = std::abs(a - med), db = std::abs(b - med);
    if (da != db) return da < db;
    return a < b;
  });
  const std::size_t beta = selected.size() - 2 * f;
  double acc = 0.0;
  for (std::size_t i = 0; i < beta; ++i) acc += col[i];
  EXPECT_NEAR(out[0], float(acc / double(beta)), 1e-6F);
}

// ------------------------------------------------- edge cases (bring-up PR)

TEST(DistanceCache, RemoveUntilMinimumActiveKeepsSelectionValid) {
  // select_cached supports shrinking the active set down to its documented
  // minimum of 3; at every stage the pick must be an active index and must
  // agree with plain select() over the physically compacted survivors.
  const std::size_t n = 10, f = 2, d = 8;
  auto in = random_inputs(n, d, 21);
  gg::DistanceCache cache;
  cache.reset(ts::rows(in));
  gg::Krum krum(n, f);

  std::vector<std::size_t> alive(n);
  std::iota(alive.begin(), alive.end(), std::size_t{0});
  gt::Rng removal_rng(22);
  while (alive.size() > 3) {
    // Compact the active inputs and cross-check the cached selection.
    std::vector<FlatVector> pool;
    for (std::size_t i : alive) pool.push_back(in[i]);
    const std::size_t cached_pick = krum.select_cached(cache, ts::rows(in));
    ASSERT_TRUE(cache.is_active(cached_pick));
    EXPECT_EQ(in[cached_pick], pool[ts::krum_select(krum, pool)])
        << "active=" << alive.size();

    // Remove a random survivor (not necessarily the pick) and re-check
    // the book-keeping.
    const std::size_t victim = removal_rng.index(alive.size());
    cache.remove(alive[victim]);
    EXPECT_FALSE(cache.is_active(alive[victim]));
    alive.erase(alive.begin() + long(victim));
    EXPECT_EQ(cache.active_count(), alive.size());
  }

  // At exactly 3 active inputs the neighbourhood clamps to 1 and selection
  // still works.
  ASSERT_EQ(cache.active_count(), 3u);
  const std::size_t last_pick = krum.select_cached(cache, ts::rows(in));
  EXPECT_TRUE(cache.is_active(last_pick));
}

TEST(DistanceCache, RemoveIsIdempotent) {
  auto in = random_inputs(6, 4, 23);
  gg::DistanceCache cache;
  cache.reset(ts::rows(in));
  cache.remove(1);
  cache.remove(1);  // double removal must not underflow the active count
  EXPECT_EQ(cache.active_count(), 5u);
  EXPECT_FALSE(cache.is_active(1));
}

// ------------------------------------------- API v2 (registry/context PR)

TEST(DistanceCache, ActiveCountIsMaintainedNotRecounted) {
  // active_count() is a maintained O(1) counter; it must track any
  // interleaving of removals (including repeats) exactly.
  auto in = random_inputs(12, 6, 24);
  gg::DistanceCache cache;
  cache.reset(ts::rows(in));
  gt::Rng rng(25);
  std::size_t expected = 12;
  for (int step = 0; step < 64; ++step) {
    const std::size_t victim = rng.index(12);
    if (cache.is_active(victim)) --expected;
    cache.remove(victim);
    ASSERT_EQ(cache.active_count(), expected);
  }
}

TEST(DistanceCache, ResetReusesStorageAcrossInputSets) {
  // AggregationContext keeps one cache alive across aggregations; reset()
  // must fully reinitialize — new size, all-active, fresh distances —
  // regardless of the previous set's size or removal state.
  auto first = random_inputs(9, 8, 26);
  gg::DistanceCache cache;
  cache.reset(ts::rows(first));
  cache.remove(0);
  cache.remove(5);

  auto second = random_inputs(5, 12, 27);
  cache.reset(ts::rows(second));
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.active_count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(cache.is_active(i));
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(cache.squared_distance(i, j),
                gt::squared_distance(second[i], second[j]));
    }
  }

  // Growing again after shrinking also works (no stale-capacity reads).
  auto third = random_inputs(11, 4, 28);
  cache.reset(ts::rows(third));
  EXPECT_EQ(cache.size(), 11u);
  EXPECT_EQ(cache.active_count(), 11u);
  EXPECT_EQ(cache.squared_distance(10, 3),
            gt::squared_distance(third[10], third[3]));
}

TEST(DistanceCache, MatrixEqualsSquaredDistanceAtAnyThreadCount) {
  // From d = 20000 up a tile of pairs is a whole shard, so the tiles of 8
  // to 17 inputs split into as many shards as the thread count allows, run
  // on the pool. Each entry must still be exactly the serial squared
  // distance, on the path the host picks, also for rows of extreme values.
  for (const auto& in :
       {random_inputs(9, 20000, 29), finite_rows(8, 20000, 33),
        finite_rows(17, 20000, 34), finite_rows(11, 874, 35)}) {
    for (const std::size_t threads : {1U, 2U, 5U}) {
      const ts::ShardCount shards(threads);
      gg::DistanceCache cache;
      cache.reset(ts::rows(in));
      for (std::size_t i = 0; i < in.size(); ++i) {
        for (std::size_t j = 0; j < in.size(); ++j) {
          EXPECT_EQ(cache.squared_distance(i, j),
                    gt::squared_distance(in[i], in[j]))
              << i << "," << j << " threads=" << threads;
        }
      }
    }
  }
}

/// The distance matrix on each path the build has, whichever one the host
/// picks: a host that picks avx2 still runs the baseline here.
class SquaredDistancePath
    : public ::testing::TestWithParam<gt::detail::SimdPath> {
 protected:
  void SetUp() override {
    if (!gt::detail::can_run(GetParam())) {
      GTEST_SKIP() << "this build or CPU lacks "
                   << gt::detail::path_name(GetParam());
    }
  }

  /// The path's matrix of `in` at 1, 2 and 5 shards against
  /// tensor::squared_distance off the diagonal and 0 on it, entry by entry:
  /// memcmp-equal, except that where the reference is NaN any NaN will do.
  void check(const std::vector<FlatVector>& in) const {
    const std::size_t n = in.size();
    const std::string what =
        "n=" + std::to_string(n) + " d=" + std::to_string(in.front().size());
    std::vector<double> want(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        want[i * n + j] = i == j ? 0.0 : gt::squared_distance(in[i], in[j]);
    for (const std::size_t threads : {1U, 2U, 5U}) {
      const ts::ShardCount shards(threads);
      std::vector<double> got(n * n, -1.0);
      gt::detail::squared_distance_matrix(ts::rows(in), got, GetParam());
      for (std::size_t e = 0; e < n * n; ++e) {
        if (std::isnan(want[e])) {
          EXPECT_TRUE(std::isnan(got[e]))
              << what << " entry " << e << " threads=" << threads;
        } else {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[e]),
                    std::bit_cast<std::uint64_t>(want[e]))
              << what << " entry " << e << " threads=" << threads;
        }
      }
    }
  }
};

/// Short rows, 511 to 513 (around a power of two), and the benchmark
/// workloads' tiny_mlp and small_mlp dimensions.
const std::size_t kDims[] = {1, 2, 3, 5, 511, 512, 513, 874, 17226};

TEST_P(SquaredDistancePath, MatchesSquaredDistanceBitwise) {
  std::uint64_t seed = 100;
  for (std::size_t n = 2; n <= 17; ++n)
    for (const std::size_t d : kDims) check(finite_rows(n, d, seed++));
}

TEST_P(SquaredDistancePath, MatchesSquaredDistanceOnNonFiniteRows) {
  std::uint64_t seed = 200;
  for (std::size_t n = 2; n <= 17; ++n)
    for (const std::size_t d : kDims) check(non_finite_rows(n, d, seed++));
}

INSTANTIATE_TEST_SUITE_P(
    Paths, SquaredDistancePath,
    ::testing::Values(gt::detail::SimdPath::baseline,
                      gt::detail::SimdPath::avx2),
    [](const ::testing::TestParamInfo<gt::detail::SimdPath>& info) {
      return std::string(gt::detail::path_name(info.param));
    });

TEST(DistanceCache, ContextReusedAcrossCallsYieldsSameAggregates) {
  // One AggregationContext reused across many aggregate_into calls (the
  // steady-state server pattern) must agree bitwise with fresh-context
  // calls, across shrinking and growing quorums.
  gg::AggregationContext ctx;
  const std::size_t f = 1;
  for (std::uint64_t seed : {30u, 31u, 32u}) {
    for (std::size_t n : {11u, 7u, 9u}) {
      auto in = random_inputs(n, 16, seed * 100 + n);
      gg::GarPtr bulyan = gg::make_gar("bulyan", n, f);
      gt::FlatVector reused;
      bulyan->aggregate_into(in, ctx, reused);
      EXPECT_EQ(reused, ts::aggregate(*bulyan, in)) << "n=" << n;
    }
  }
}

TEST(DistanceCache, SelectCachedAgreesWithSelectOnRandomClouds) {
  // Property check over random clouds and random removal patterns: the
  // cached O(q^2) path must always agree with the uncached select() on the
  // compacted active subset — same winning vector, not just same score.
  for (std::uint64_t seed = 31; seed < 43; ++seed) {
    const std::size_t n = 12, f = 2;
    auto in = random_inputs(n, 10, seed);
    gg::DistanceCache cache;
    cache.reset(ts::rows(in));
    gg::Krum krum(n, f);
    gt::Rng removal_rng(seed * 7919);

    std::vector<std::size_t> alive(n);
    std::iota(alive.begin(), alive.end(), std::size_t{0});
    const std::size_t removals = 1 + removal_rng.index(n - 4);
    for (std::size_t r = 0; r < removals; ++r) {
      const std::size_t victim = removal_rng.index(alive.size());
      cache.remove(alive[victim]);
      alive.erase(alive.begin() + long(victim));
    }

    std::vector<FlatVector> pool;
    for (std::size_t i : alive) pool.push_back(in[i]);
    const std::size_t cached_pick = krum.select_cached(cache, ts::rows(in));
    ASSERT_TRUE(cache.is_active(cached_pick)) << seed;
    EXPECT_EQ(in[cached_pick], pool[ts::krum_select(krum, pool)])
        << "seed " << seed;
  }
}
