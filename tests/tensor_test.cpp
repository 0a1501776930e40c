// Unit tests for garfield::tensor — Tensor, vecops, Rng, parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/test_support.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/vecops.h"

namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(gt::shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(gt::shape_numel({7}), 7u);
  EXPECT_EQ(gt::shape_numel({}), 0u);
  EXPECT_EQ(gt::shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ZeroConstruction) {
  gt::Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, FillAndAt) {
  gt::Tensor t = gt::Tensor::full({2, 2}, 3.5F);
  EXPECT_EQ(t.at(1, 1), 3.5F);
  t.at(0, 1) = -1.0F;
  EXPECT_EQ(t[1], -1.0F);
}

TEST(Tensor, ValueConstructorChecksSize) {
  EXPECT_THROW(gt::Tensor({2, 2}, std::vector<float>{1.0F}),
               std::invalid_argument);
  gt::Tensor ok({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(ok.at(1, 0), 3.0F);
}

TEST(Tensor, ReshapePreservesData) {
  gt::Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  gt::Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticOps) {
  gt::Tensor a({3}, std::vector<float>{1, 2, 3});
  gt::Tensor b({3}, std::vector<float>{4, 5, 6});
  a += b;
  EXPECT_EQ(a[2], 9.0F);
  a -= b;
  EXPECT_EQ(a[0], 1.0F);
  a *= 2.0F;
  EXPECT_EQ(a[1], 4.0F);
}

TEST(Tensor, Reductions) {
  gt::Tensor t({4}, std::vector<float>{1, -2, 5, 0});
  EXPECT_DOUBLE_EQ(t.sum(), 4.0);
  EXPECT_DOUBLE_EQ(t.mean(), 1.0);
  EXPECT_EQ(t.max(), 5.0F);
  EXPECT_EQ(t.argmax(), 2u);
}

TEST(Tensor, RandnIsDeterministicInSeed) {
  gt::Rng rng1(7), rng2(7);
  gt::Tensor a = gt::Tensor::randn({16}, rng1);
  gt::Tensor b = gt::Tensor::randn({16}, rng2);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Matmul, MatchesHandComputation) {
  gt::Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  gt::Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  gt::Tensor c = gt::matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0F);
  EXPECT_EQ(c.at(0, 1), 64.0F);
  EXPECT_EQ(c.at(1, 0), 139.0F);
  EXPECT_EQ(c.at(1, 1), 154.0F);
}

// ------------------------------------------- matmul kernels, bit for bit
//
// The reference kernels are the plain loops the library kernels started
// from: every output sums its terms for p = 0, 1, ..., k-1 in order. A
// tiled or vectorized kernel must reproduce them bit for bit, which a
// tolerance cannot check: a reordered sum is off by a rounding error.

namespace {

gt::Tensor reference_matmul(const gt::Tensor& a, const gt::Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  gt::Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a.data()[i * k + p];
      if (av == 0.0F) continue;
      const float* brow = b.data().data() + p * n;
      float* orow = out.data().data() + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

gt::Tensor reference_matmul_nt(const gt::Tensor& a, const gt::Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  gt::Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data().data() + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data().data() + j * k;
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += double(arow[p]) * brow[p];
      out.at(i, j) = float(acc);
    }
  }
  return out;
}

gt::Tensor reference_matmul_tn(const gt::Tensor& a, const gt::Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  gt::Tensor out({m, n});
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data().data() + p * m;
    const float* brow = b.data().data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* orow = out.data().data() + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

/// One layer's GEMMs: forward {m,k} x {n,k}^T, input gradient
/// {m,n} x {n,k}, weight gradient {m,n}^T x {m,k}.
struct Gemm {
  std::size_t m, k, n;
};

/// Every GEMM the zoo models run at batch 16: Linear(in, out) is
/// {16, in, out}; Conv2d is {16*oh*ow, in_ch*kernel^2, out_ch}.
const std::vector<Gemm> kZooGemms = {
    {16, 16, 32},    {16, 32, 10},     {16, 64, 128},  {16, 128, 64},
    {16, 64, 10},    {4096, 9, 8},     {1024, 72, 16}, {16, 256, 64},
    {4096, 27, 16},  {1024, 144, 32},  {16, 512, 128}, {16, 128, 10},
    {4096, 27, 8},   {4096, 72, 8},    {1024, 72, 8},  {1024, 8, 4},
    {1024, 36, 8},   {1024, 8, 2},     {1024, 18, 4},  {1024, 36, 4},
    {16, 256, 10},   {1024, 144, 16},  {16, 256, 256}};

/// Random entries over 2^-8..2^8 in magnitude, so a float sum of their
/// products depends on the order of its additions; `zero_frac` of them 0.
gt::Tensor operand(std::size_t rows, std::size_t cols, gt::Rng& rng,
                   double zero_frac = 0.0) {
  gt::Tensor t({rows, cols});
  for (float& v : t.data()) {
    v = rng.bernoulli(zero_frac)
            ? 0.0F
            : std::ldexp(rng.normal(), int(rng.index(17)) - 8);
  }
  return t;
}

/// Makes the terms of a @ b^T cancel in pairs: for about half of the
/// p < k/2, term k-1-p is the negation of term p, and both are 2^40 times
/// larger than the rest. The terms added between such a pair are rounded
/// to the big partial sum's precision, so a kernel that adds in any other
/// order than p = 0, 1, ..., k-1 gets other bits.
void cancel_in_pairs(gt::Tensor& a, gt::Tensor& b, gt::Rng& rng) {
  const std::size_t k = a.dim(1);
  for (std::size_t p = 0; p < k / 2; ++p) {
    if (!rng.bernoulli(0.5)) continue;
    const std::size_t q = k - 1 - p;
    for (std::size_t i = 0; i < a.dim(0); ++i) {
      a.at(i, p) = std::ldexp(a.at(i, p), 40);
      a.at(i, q) = -a.at(i, p);
    }
    for (std::size_t j = 0; j < b.dim(0); ++j) b.at(j, q) = b.at(j, p);
  }
}

void expect_same_bytes(const gt::Tensor& got, const gt::Tensor& want,
                       const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.numel() * sizeof(float)),
            0)
      << what;
}

/// Equal bit for bit, except that where the reference holds a NaN, the
/// result may hold a NaN of any sign and payload.
void expect_same_up_to_nan(const gt::Tensor& got, const gt::Tensor& want,
                           const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << what << " entry " << i;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << what << " entry " << i;
    }
  }
}

/// An operand with about 1% of its entries +inf, -inf or NaN.
gt::Tensor poisoned(std::size_t rows, std::size_t cols, gt::Rng& rng) {
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  gt::Tensor t = operand(rows, cols, rng, 0.3);
  for (float& v : t.data())
    if (rng.bernoulli(0.01)) v = specials[rng.index(3)];
  return t;
}

/// Shapes of the non-finite cases: off-tile, zoo, and many rows.
const std::vector<Gemm> kNonFiniteGemms = {
    {7, 9, 5}, {16, 27, 16}, {33, 20, 10}, {1024, 36, 4}};

/// All three kernels against their references on one GEMM's operands.
void check_gemm(const Gemm& g, gt::Rng& rng, double zero_frac) {
  const std::string what = "m=" + std::to_string(g.m) + " k=" +
                           std::to_string(g.k) + " n=" + std::to_string(g.n);
  gt::Tensor x = operand(g.m, g.k, rng, zero_frac);         // input / cols
  gt::Tensor w = operand(g.n, g.k, rng);                     // weight
  const gt::Tensor dy = operand(g.m, g.n, rng, zero_frac);  // grad rows
  expect_same_bytes(gt::matmul_nt(x, w), reference_matmul_nt(x, w),
                    "matmul_nt " + what);
  expect_same_bytes(gt::matmul(dy, w), reference_matmul(dy, w),
                    "matmul " + what);
  expect_same_bytes(gt::matmul_tn(dy, x), reference_matmul_tn(dy, x),
                    "matmul_tn " + what);
  cancel_in_pairs(x, w, rng);
  expect_same_bytes(gt::matmul_nt(x, w), reference_matmul_nt(x, w),
                    "matmul_nt, cancelling terms, " + what);
}

}  // namespace

TEST(Matmul, KernelsMatchReferenceOnZooShapes) {
  gt::Rng rng(3);
  for (const Gemm& g : kZooGemms) check_gemm(g, rng, 0.0);
}

TEST(Matmul, KernelsMatchReferenceOffTileSizes) {
  gt::Rng rng(4);
  for (std::size_t m = 1; m <= 9; ++m)
    for (std::size_t k = 1; k <= 9; ++k)
      for (std::size_t n = 1; n <= 9; ++n) check_gemm({m, k, n}, rng, 0.0);
}

TEST(Matmul, KernelsMatchReferenceWithHalfZeroLeftOperands) {
  // Zero entries of the left operand are skipped by matmul and matmul_tn.
  gt::Rng rng(5);
  for (const Gemm& g : kZooGemms) check_gemm(g, rng, 0.5);
  for (std::size_t s = 1; s <= 9; ++s) check_gemm({s, 10 - s, s + 2}, rng, 0.5);
}

TEST(Matmul, KernelsMatchReferenceOnNonFiniteInputs) {
  // Vectorized adds may swap their operands, and the NaN a sum propagates
  // is the first operand's: NaN sign and payload may differ, NaN positions
  // and every other bit may not.
  gt::Rng rng(6);
  for (const Gemm& g : kNonFiniteGemms) {
    const gt::Tensor x = poisoned(g.m, g.k, rng), w = poisoned(g.n, g.k, rng),
                     dy = poisoned(g.m, g.n, rng);
    const std::string what = "m=" + std::to_string(g.m);
    expect_same_up_to_nan(gt::matmul_nt(x, w), reference_matmul_nt(x, w),
                          "matmul_nt " + what);
    expect_same_up_to_nan(gt::matmul(dy, w), reference_matmul(dy, w),
                          "matmul " + what);
    expect_same_up_to_nan(gt::matmul_tn(dy, x), reference_matmul_tn(dy, x),
                          "matmul_tn " + what);
  }
}

/// matmul_nt on each path the build has, whichever one the host picks:
/// a host that picks avx2 still runs the baseline here.
class MatmulNtPath : public ::testing::TestWithParam<gt::detail::SimdPath> {
 protected:
  void SetUp() override {
    if (!gt::detail::can_run(GetParam())) {
      GTEST_SKIP() << "this build or CPU lacks "
                   << gt::detail::path_name(GetParam());
    }
  }
};

TEST_P(MatmulNtPath, MatchesReferenceBitwise) {
  const gt::detail::SimdPath path = GetParam();
  std::vector<Gemm> shapes = kZooGemms;
  for (std::size_t m = 1; m <= 9; ++m)
    for (std::size_t k = 1; k <= 9; ++k)
      for (std::size_t n = 1; n <= 9; ++n) shapes.push_back({m, k, n});
  gt::Rng rng(7);
  for (const Gemm& g : shapes) {
    const std::string what = "m=" + std::to_string(g.m) + " k=" +
                             std::to_string(g.k) + " n=" + std::to_string(g.n);
    gt::Tensor x = operand(g.m, g.k, rng), w = operand(g.n, g.k, rng);
    expect_same_bytes(gt::detail::matmul_nt(x, w, path),
                      reference_matmul_nt(x, w), what);
    cancel_in_pairs(x, w, rng);
    expect_same_bytes(gt::detail::matmul_nt(x, w, path),
                      reference_matmul_nt(x, w), "cancelling terms, " + what);
  }
}

TEST_P(MatmulNtPath, MatchesReferenceOnNonFiniteInputs) {
  gt::Rng rng(8);
  for (const Gemm& g : kNonFiniteGemms) {
    const gt::Tensor x = poisoned(g.m, g.k, rng), w = poisoned(g.n, g.k, rng);
    expect_same_up_to_nan(gt::detail::matmul_nt(x, w, GetParam()),
                          reference_matmul_nt(x, w),
                          "m=" + std::to_string(g.m));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, MatmulNtPath,
    ::testing::Values(gt::detail::SimdPath::baseline, gt::detail::SimdPath::avx2),
    [](const ::testing::TestParamInfo<gt::detail::SimdPath>& info) {
      return std::string(gt::detail::path_name(info.param));
    });

TEST(VecOps, AxpyScaleDot) {
  gt::FlatVector x{1, 2, 3}, y{10, 20, 30};
  gt::axpy(2.0F, x, y);
  EXPECT_EQ(y[2], 36.0F);
  gt::scale(y, 0.5F);
  EXPECT_EQ(y[0], 6.0F);
  EXPECT_DOUBLE_EQ(gt::dot(x, x), 14.0);
}

TEST(VecOps, DistanceAndNorm) {
  gt::FlatVector a{0, 3}, b{4, 0};
  EXPECT_DOUBLE_EQ(gt::squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(gt::norm(a), 3.0);
}

TEST(VecOps, MeanOfVectors) {
  std::vector<gt::FlatVector> vs = {{1, 2}, {3, 4}, {5, 6}};
  gt::FlatVector m = gt::mean(vs);
  EXPECT_FLOAT_EQ(m[0], 3.0F);
  EXPECT_FLOAT_EQ(m[1], 4.0F);
}

TEST(VecOps, Cosine) {
  gt::FlatVector a{1, 0}, b{0, 1}, c{2, 0};
  EXPECT_NEAR(gt::cosine(a, b), 0.0, 1e-12);
  EXPECT_NEAR(gt::cosine(a, c), 1.0, 1e-12);
  gt::FlatVector zero{0, 0};
  EXPECT_EQ(gt::cosine(a, zero), 0.0);
}

TEST(VecOps, AllFinite) {
  gt::FlatVector ok{1.0F, -2.0F};
  EXPECT_TRUE(gt::all_finite(ok));
  gt::FlatVector bad{1.0F, std::nanf("")};
  EXPECT_FALSE(gt::all_finite(bad));
  gt::FlatVector inf{1.0F, INFINITY};
  EXPECT_FALSE(gt::all_finite(inf));

  using limits = std::numeric_limits<float>;
  EXPECT_TRUE(gt::all_finite(gt::FlatVector{}));
  for (float v : {limits::max(), -limits::max(), limits::denorm_min(),
                  -limits::denorm_min(), limits::min(), 0.0F, -0.0F}) {
    EXPECT_TRUE(gt::all_finite(gt::FlatVector{1.0F, v})) << v;
  }
  for (float v : {limits::infinity(), -limits::infinity(),
                  limits::quiet_NaN(), -limits::quiet_NaN(),
                  limits::signaling_NaN()}) {
    EXPECT_FALSE(gt::all_finite(gt::FlatVector{1.0F, v})) << v;
  }

  // One bad value at the first, a middle and the last index, for every
  // short length (the vector body and its scalar tail) and a model-sized
  // one.
  std::vector<std::size_t> lengths(67);
  std::iota(lengths.begin(), lengths.end(), std::size_t{1});
  lengths.push_back(17226);
  for (std::size_t n : lengths) {
    gt::FlatVector x(n, 0.5F);
    ASSERT_TRUE(gt::all_finite(x)) << n;
    for (std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
      for (float v : {limits::quiet_NaN(), limits::infinity(),
                      -limits::infinity()}) {
        x[at] = v;
        EXPECT_FALSE(gt::all_finite(x)) << "n=" << n << " at=" << at;
        x[at] = -limits::max();
        EXPECT_TRUE(gt::all_finite(x)) << "n=" << n << " at=" << at;
      }
    }
  }
}

TEST(VecOps, SubtractAndAdd) {
  gt::FlatVector a{5, 7}, b{2, 3}, out(2);
  gt::subtract(a, b, out);
  EXPECT_EQ(out[0], 3.0F);
  gt::add(out, b, out);
  EXPECT_EQ(out[1], 7.0F);
}

TEST(Rng, ForkProducesDecorrelatedStreams) {
  gt::Rng root(1);
  gt::Rng a = root.fork(1);
  gt::Rng b = root.fork(2);
  // Not a statistical test; just check the streams differ.
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    if (a.normal() != b.normal()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkIsDeterministic) {
  gt::Rng r1(9), r2(9);
  gt::Rng a = r1.fork(5);
  gt::Rng b = r2.fork(5);
  EXPECT_EQ(a.normal(), b.normal());
}

TEST(Rng, ForkDependsOnParentSeed) {
  // Regression: fork() once mixed only a constant, so every experiment
  // seed produced identical datasets and models.
  gt::Rng r1(1), r2(2);
  gt::Rng a = r1.fork(7);
  gt::Rng b = r2.fork(7);
  EXPECT_NE(a.normal(), b.normal());
}

TEST(Rng, IndexInRange) {
  gt::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.index(10), 10u);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 200000;  // above the inline threshold
  std::vector<int> hits(n, 0);
  gt::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), int(n));
}

TEST(ParallelFor, SmallRangeRunsInline) {
  std::vector<int> hits(10, 0);
  gt::parallel_for(10, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroIsNoop) {
  gt::parallel_for(0, [](std::size_t, std::size_t) { FAIL(); });
}

namespace {

using Shard = std::pair<std::size_t, std::size_t>;

// The shards parallel.h documents for [0, n): shards = min(threads,
// max(1, n / grain)) of chunk = ceil(n / shards) items, empty ones dropped.
std::vector<Shard> documented_shards(std::size_t n, std::size_t grain,
                                     std::size_t threads) {
  const std::size_t shards =
      std::min(threads, std::max<std::size_t>(1, n / grain));
  const std::size_t chunk = (n + shards - 1) / shards;
  std::vector<Shard> out;
  for (std::size_t begin = 0; begin < n; begin += chunk)
    out.emplace_back(begin, std::min(begin + chunk, n));
  return out;
}

// The (begin, end) pairs one parallel_for call ran, in ascending order.
std::vector<Shard> shards_run(std::size_t n, std::size_t grain) {
  std::mutex mu;
  std::vector<Shard> seen;
  gt::parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(begin, end);
  });
  std::sort(seen.begin(), seen.end());
  return seen;
}

}  // namespace

TEST(ParallelFor, ConcurrentCallersRunTheDocumentedShards) {
  // 8 threads make 200 calls each at once, sharing the process-wide pool.
  // Every call must run exactly the documented shards, each once, so it
  // covers [0, n) exactly once whichever threads ran its shards.
  constexpr int kCallers = 8;
  constexpr int kCalls = 200;
  for (const std::size_t threads : {2U, 5U}) {
    const ts::ShardCount count(threads);
    std::atomic<int> wrong{0};
    std::latch start(kCallers);
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int c = 0; c < kCalls; ++c) {
          const std::size_t n = 1 + std::size_t(t * kCalls + c) * 37 % 4999;
          const std::size_t grain = 1 + std::size_t(c % 3) * 50;
          if (shards_run(n, grain) != documented_shards(n, grain, threads))
            ++wrong;
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
    EXPECT_EQ(wrong.load(), 0) << "threads=" << threads;
  }
}

TEST(ParallelFor, LastShardsTheChunkLeavesEmptyAreNotRun) {
  const ts::ShardCount count(5);
  // chunk = ceil(6 / 5) = 2 leaves shards 3 and 4 empty.
  EXPECT_EQ(shards_run(6, 1), (std::vector<Shard>{{0, 2}, {2, 4}, {4, 6}}));
  EXPECT_EQ(shards_run(6, 1), documented_shards(6, 1, 5));
}

TEST(ParallelFor, NestedCallsComplete) {
  // Every shard calls parallel_for itself, from 4 callers at once and with
  // more shards than pool threads. A caller that waited for a queued helper
  // task instead of running the shard itself would hang here; the ctest
  // timeout catches that.
  const ts::ShardCount count(5);
  std::atomic<std::size_t> covered{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int c = 0; c < 20; ++c) {
        gt::parallel_for(10, 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            gt::parallel_for(1000, 1, [&](std::size_t b, std::size_t e) {
              covered += e - b;
            });
          }
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(covered.load(), std::size_t(4 * 20 * 10 * 1000));
}

TEST(ParallelFor, ThrowingShardRethrowsAfterTheOthersFinish) {
  const ts::ShardCount count(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(gt::parallel_for(4, 1,
                                [&](std::size_t begin, std::size_t) {
                                  if (begin == 0)
                                    throw std::runtime_error("shard 0");
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(20));
                                  ++finished;
                                }),
               std::runtime_error);
  // fn and `finished` must outlive every shard, so none may still run.
  EXPECT_EQ(finished.load(), 3);
}

TEST(ParallelFor, BackToBackCallsLeaveNoDanglingWork) {
  // Each call's fn and data die with the loop body, while helper tasks the
  // call submitted may still sit in the pool's queue. Those must find no
  // shard left and touch nothing (ASan flags a use after scope).
  const ts::ShardCount count(5);
  for (int call = 0; call < 2000; ++call) {
    std::vector<int> hits(64, 0);
    gt::parallel_for(hits.size(), 1, [&hits](std::size_t begin,
                                             std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), 64) << call;
  }
}
