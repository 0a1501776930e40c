// Determinism regression for the selection-based GARs.
//
// The selection_order contract (gars/gar.h): exact Krum-score ties are real
// — mutual nearest neighbours score identically — so ties break on the
// vectors' lexicographic order, keeping aggregation invariant to
// reply-arrival order, which is adversarial under asynchrony. These tests
// pin that contract: Krum, Multi-Krum and Bulyan must return bit-identical
// aggregates under any input permutation, including clouds engineered to
// contain exact score ties, with all randomness drawn from fixed
// tensor/rng.h seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/trainer.h"
#include "gars/gar.h"
#include "support/test_support.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using gt::FlatVector;

namespace {

constexpr std::uint64_t kSeed = 20260728;

/// Shuffle a copy of `inputs` with the given seed.
std::vector<FlatVector> shuffled(const std::vector<FlatVector>& inputs,
                                 std::uint64_t seed) {
  std::vector<FlatVector> out = inputs;
  gt::Rng rng(seed);
  std::shuffle(out.begin(), out.end(), rng.engine());
  return out;
}

/// Bitwise vector equality (== would treat NaN oddly; none expected here,
/// but a determinism test should compare representations, not values).
bool bit_equal(const FlatVector& a, const FlatVector& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

/// A cloud with deliberate exact ties: pairs of identical vectors are
/// mutual nearest neighbours with identical Krum scores, exercising the
/// lexicographic tie-break rather than leaving it to luck.
std::vector<FlatVector> tied_cloud(std::size_t pairs, std::size_t d,
                                   gt::Rng& rng) {
  std::vector<FlatVector> out;
  for (std::size_t p = 0; p < pairs; ++p) {
    FlatVector v(d);
    for (float& x : v) x = rng.normal();
    out.push_back(v);
    out.push_back(std::move(v));  // exact duplicate
  }
  return out;
}

struct Case {
  const char* gar;
  std::size_t n;
  std::size_t f;
};

const Case kCases[] = {
    {"krum", 9, 2},
    {"krum", 11, 3},
    {"multi_krum", 9, 2},
    {"multi_krum", 13, 4},
    {"bulyan", 7, 1},
    {"bulyan", 11, 2},
};

}  // namespace

TEST(Determinism, SelectionGarsAreBitwiseInvariantUnderPermutation) {
  for (const Case& c : kCases) {
    gt::Rng rng(kSeed);
    const ts::CloudSpec spec{c.n, 24, 0.0F, 1.0F};
    const std::vector<FlatVector> inputs = ts::honest_cloud(spec, rng);
    const gg::GarPtr gar = gg::make_gar(c.gar, c.n, c.f);
    const FlatVector base = ts::aggregate(*gar, inputs);

    for (std::uint64_t perm_seed = 1; perm_seed <= 8; ++perm_seed) {
      const FlatVector out = ts::aggregate(*gar, shuffled(inputs, perm_seed));
      EXPECT_TRUE(bit_equal(base, out))
          << c.gar << " n=" << c.n << " f=" << c.f
          << " diverged under permutation seed " << perm_seed;
    }
    std::vector<FlatVector> reversed = inputs;
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_TRUE(bit_equal(base, ts::aggregate(*gar, reversed)))
        << c.gar << " diverged under reversal";
  }
}

TEST(Determinism, ExactScoreTiesBreakOnLexicographicOrder) {
  // With exact duplicates in the cloud, scores tie exactly; the contract
  // says the winning *vector* is still permutation-independent.
  for (const Case& c : kCases) {
    gt::Rng rng(kSeed + c.n);
    std::vector<FlatVector> inputs = tied_cloud(c.n / 2, 16, rng);
    while (inputs.size() < c.n) {
      FlatVector v(16);
      for (float& x : v) x = rng.normal();
      inputs.push_back(std::move(v));
    }
    ASSERT_EQ(inputs.size(), c.n);

    const gg::GarPtr gar = gg::make_gar(c.gar, c.n, c.f);
    const FlatVector base = ts::aggregate(*gar, inputs);
    for (std::uint64_t perm_seed = 11; perm_seed <= 16; ++perm_seed) {
      EXPECT_TRUE(
          bit_equal(base, ts::aggregate(*gar, shuffled(inputs, perm_seed))))
          << c.gar << " n=" << c.n << " f=" << c.f
          << " tie-break diverged under permutation seed " << perm_seed;
    }
  }
}

TEST(Determinism, KrumSelectsTheSameVectorRegardlessOfIndexing) {
  // select() returns an index into the (permuted) span; the *vector* at
  // that index must be the same one every time.
  gt::Rng rng(kSeed);
  const ts::CloudSpec spec{11, 20, 0.0F, 1.0F};
  const std::vector<FlatVector> inputs = ts::honest_cloud(spec, rng);
  const gg::Krum krum(11, 3);
  const FlatVector winner = inputs[ts::krum_select(krum, inputs)];

  for (std::uint64_t perm_seed = 21; perm_seed <= 26; ++perm_seed) {
    const std::vector<FlatVector> p = shuffled(inputs, perm_seed);
    EXPECT_TRUE(bit_equal(winner, p[ts::krum_select(krum, p)])) << perm_seed;
  }
}

TEST(Determinism, SerialAndParallelKernelsAreBitwiseIdentical) {
  // §4.3 coordinate sharding and the sharded distance matrix must be pure
  // partitioning: every shard writes disjoint outputs with the same
  // per-element arithmetic, so any thread count yields the same bits. The
  // dimension exceeds the coordinate-shard grain (64k) so the parallel
  // path genuinely engages; set_parallel_threads forces real threads even
  // on single-core hosts. The CTest harness additionally reruns this whole
  // binary under GARFIELD_THREADS=1 (the *_serial variants).
  struct ThreadGuard {
    ~ThreadGuard() { garfield::tensor::set_parallel_threads(0); }
  } guard;

  const std::size_t d = (1 << 17) + 3;  // odd tail crosses shard boundaries
  for (const std::string& name : gg::gar_names()) {
    const std::size_t f = name == "average" ? 0 : 1;
    const std::size_t n = gg::gar_min_n(name, f) + 2;
    gt::Rng rng(kSeed + n);
    const ts::CloudSpec spec{n, d, 0.5F, 1.0F};
    const std::vector<FlatVector> inputs = ts::honest_cloud(spec, rng);
    const gg::GarPtr gar = gg::make_gar(name, n, f);

    garfield::tensor::set_parallel_threads(1);
    const FlatVector serial = ts::aggregate(*gar, inputs);
    for (std::size_t threads : {2u, 5u}) {
      garfield::tensor::set_parallel_threads(threads);
      gg::AggregationContext ctx;
      FlatVector parallel;
      gar->aggregate_into(inputs, ctx, parallel);
      EXPECT_TRUE(bit_equal(serial, parallel))
          << name << " diverged between 1 and " << threads << " threads";
    }
    garfield::tensor::set_parallel_threads(0);
  }
}

TEST(Determinism, FixedSeedsReproduceAcrossIndependentRuns) {
  // Two fully independent constructions from the same rng seed must agree
  // bit-for-bit end to end (cloud, rule, aggregate).
  for (const Case& c : kCases) {
    FlatVector first;
    for (int run = 0; run < 2; ++run) {
      gt::Rng rng(kSeed ^ c.f);
      const ts::CloudSpec spec{c.n, 24, 1.0F, 0.5F};
      const std::vector<FlatVector> inputs = ts::honest_cloud(spec, rng);
      const FlatVector out =
          ts::aggregate(*gg::make_gar(c.gar, c.n, c.f), inputs);
      if (run == 0) {
        first = out;
      } else {
        EXPECT_TRUE(bit_equal(first, out)) << c.gar << " not reproducible";
      }
    }
  }
}

TEST(Determinism, CraftingServerRepliesDoNotDependOnArrivalOrder) {
  // A Byzantine server answers every puller with its own crafted reply.
  // Each reply's draws must be a function of the run (requester,
  // iteration, channel), not of which pull the pool happened to serve
  // first. Under a codec the crafted frames reach the model GAR, so a
  // draw handed to another puller changes the final parameters.
  garfield::core::DeploymentConfig cfg;
  cfg.deployment = garfield::core::Deployment::kMsmw;
  cfg.model = "tiny_mlp";
  cfg.nps = 4;
  cfg.fps = 1;
  cfg.nw = 7;
  cfg.fw = 2;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.worker_attack = "sign_flip";
  cfg.server_attack = "random";
  cfg.iterations = 12;
  cfg.eval_every = 0;
  cfg.seed = 7;
  for (const char* codec : {"int8", "topk:k=0.1"}) {
    cfg.codec = codec;
    const FlatVector first = garfield::core::train(cfg).final_parameters;
    for (int run = 1; run < 4; ++run) {
      EXPECT_TRUE(
          bit_equal(first, garfield::core::train(cfg).final_parameters))
          << "codec=" << codec << ": run " << run << " differs from run 0";
    }
  }
}
