#include "gars/gar.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "gars/median3.h"
#include "gars/registry.h"
#include "tensor/parallel.h"
#include "tensor/tensor.h"

namespace garfield::gars {

using tensor::parallel_for;

void Gar::check_inputs(Rows inputs) const {
  if (inputs.size() != n_) {
    throw std::invalid_argument(name() + ": expected " + std::to_string(n_) +
                                " inputs, got " +
                                std::to_string(inputs.size()));
  }
  const std::size_t d = inputs.front().size();
  if (d == 0) throw std::invalid_argument(name() + ": empty input vectors");
  for (const Row v : inputs) {
    if (v.size() != d) {
      throw std::invalid_argument(name() + ": ragged input dimensions");
    }
  }
}

void Gar::aggregate_into(Rows inputs, AggregationContext& ctx,
                         FlatVector& out) const {
  check_inputs(inputs);
  out.resize(inputs.front().size());
  do_aggregate(inputs, ctx, out);
}

namespace {

void require(bool cond, const std::string& message) {
  if (!cond) throw std::invalid_argument(message);
}

/// Scratch for one shard body of a coordinate-wise rule. A shard runs on
/// whichever thread claims it, so the caller's context cannot hand it a
/// buffer; each thread keeps one per element type instead, grown to the
/// largest request and then reused, so steady-state calls allocate
/// nothing. No shard body here runs another that takes the same type.
template <typename T>
std::span<T> shard_scratch(std::size_t size) {
  thread_local std::vector<T> buffer;
  if (buffer.size() < size) buffer.resize(size);
  return {buffer.data(), size};
}

}  // namespace

// ---------------------------------------------------------- DistanceCache

void DistanceCache::reset(Rows inputs) {
  n_ = inputs.size();
  active_count_ = n_;
  matrix_.resize(n_ * n_);
  active_.assign(n_, true);
  row_.reserve(n_);
  tensor::squared_distance_matrix(inputs, matrix_);
}

double DistanceCache::nearest_sum(std::size_t i, std::size_t k) {
  assert(is_active(i) && k >= 1 && k < active_count_);
  row_.clear();
  for (std::size_t j = 0; j < n_; ++j) {
    if (j != i && active_[j]) row_.push_back(matrix_[i * n_ + j]);
  }
  std::partial_sort(row_.begin(), row_.begin() + long(k), row_.end());
  double sum = 0.0;
  for (std::size_t m = 0; m < k; ++m) sum += row_[m];
  return sum;
}

// ----------------------------------------------------- registry descriptors

namespace detail {

void register_core_gars(GarRegistry& registry) {
  registry.add(
      {.name = "average",
       .min_n = [](std::size_t f) { return std::max<std::size_t>(1, f + 1); },
       .option_floor = {},
       .factory = [](std::size_t n, std::size_t f,
                     const GarOptions&) -> GarPtr {
         return std::make_unique<Average>(n, f);
       }});
  registry.add({.name = "median",
                .min_n = [](std::size_t f) { return 2 * f + 1; },
                .option_floor = {},
                .factory = [](std::size_t n, std::size_t f,
                              const GarOptions&) -> GarPtr {
                  return std::make_unique<Median>(n, f);
                }});
  registry.add(
      {.name = "trimmed_mean",
       .min_n = [](std::size_t f) { return 2 * f + 1; },
       // trim=K keeps n-2K values, so a spec'd trim raises the floor.
       .option_floor =
           [](std::size_t, const GarOptions& options) {
             return 2 * options.get_size("trim", 0) + 1;
           },
       .factory = [](std::size_t n, std::size_t f,
                     const GarOptions& options) -> GarPtr {
         return std::make_unique<TrimmedMean>(n, f,
                                              options.get_size("trim", f));
       }});
  registry.add({.name = "krum",
                .min_n = [](std::size_t f) { return 2 * f + 3; },
                .option_floor = {},
                .factory = [](std::size_t n, std::size_t f,
                              const GarOptions&) -> GarPtr {
                  return std::make_unique<Krum>(n, f);
                }});
  registry.add(
      {.name = "multi_krum",
       .min_n = [](std::size_t f) { return 2 * f + 3; },
       // m averaged vectors need m <= n-f-2, i.e. n >= m+f+2.
       .option_floor =
           [](std::size_t f, const GarOptions& options) {
             return options.get_size("m", 1) + f + 2;
           },
       .factory = [](std::size_t n, std::size_t f,
                     const GarOptions& options) -> GarPtr {
         return std::make_unique<MultiKrum>(n, f,
                                            options.get_size("m", n - f - 2));
       }});
  registry.add({.name = "mda",
                .min_n = [](std::size_t f) { return 2 * f + 1; },
                .option_floor = {},
                .factory = [](std::size_t n, std::size_t f,
                              const GarOptions&) -> GarPtr {
                  return std::make_unique<Mda>(n, f);
                }});
  registry.add({.name = "bulyan",
                .min_n = [](std::size_t f) { return 4 * f + 3; },
                .option_floor = {},
                .factory = [](std::size_t n, std::size_t f,
                              const GarOptions&) -> GarPtr {
                  return std::make_unique<Bulyan>(n, f);
                }});
}

}  // namespace detail

// ---------------------------------------------------------------- Average

Average::Average(std::size_t n, std::size_t f) : Gar(n, f) {
  // Matches gar_min_n("average", f): the mean tolerates no Byzantine input,
  // so it at least needs more inputs than declared adversaries.
  require(n >= std::max<std::size_t>(1, f + 1),
          "average: needs at least f+1 inputs");
}

void Average::do_aggregate(Rows inputs, AggregationContext&,
                           FlatVector& out) const {
  tensor::mean_into(inputs, out);
}

// ---------------------------------------------------------------- Median

namespace {

// Four floats: one SSE register on x86-64 (GCC/Clang vector extension),
// and the matching lane mask type of a comparison. Each lane performs
// exactly the scalar IEEE operation.
using Float4 = float __attribute__((vector_size(16)));
using Mask4 = std::int32_t __attribute__((vector_size(16)));

// The median network runs on blocks of kMedianGroups Float4 groups (64
// coordinates): each comparator handles the whole block, so consecutive
// comparators do not wait on each other's results.
constexpr std::size_t kMedianGroups = 16;
constexpr std::size_t kMedianBlock = 4 * kMedianGroups;

// Afterwards x holds the lane-wise smaller and y the larger of the two: the
// lanes where y < x swap their bits. The select is bitwise, so it never
// branches and needs no vector ternary.
inline void compare_exchange(Float4& x, Float4& y) {
  const Mask4 swap = ((Mask4)x ^ (Mask4)y) & (y < x);
  x = (Float4)((Mask4)x ^ swap);
  y = (Float4)((Mask4)y ^ swap);
}

// Batcher's odd-even merge sort over the next power of two >= n, without
// the comparators that touch an index >= n: those only ever meet +inf
// padding, so the rest still sorts n values ascending. A backward walk
// then drops every comparator whose outputs cannot reach the median ranks
// (n/2, and n/2-1 for even n).
std::vector<std::array<std::uint32_t, 2>> median_network(std::size_t n) {
  if (n < 2) return {};
  std::size_t width = 1;
  while (width < n) width <<= 1;
  std::vector<std::array<std::uint32_t, 2>> sorter;
  for (std::size_t p = 1; p < width; p <<= 1)
    for (std::size_t k = p; k >= 1; k >>= 1)
      for (std::size_t j = k % p; j + k < width; j += 2 * k)
        for (std::size_t i = 0; i < k && i + j + k < n; ++i)
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
            sorter.push_back({std::uint32_t(i + j), std::uint32_t(i + j + k)});
  std::vector<bool> needed(n, false);
  needed[n / 2] = true;
  if (n % 2 == 0) needed[n / 2 - 1] = true;
  std::vector<std::array<std::uint32_t, 2>> network;
  for (auto it = sorter.rbegin(); it != sorter.rend(); ++it) {
    const auto [lo, hi] = *it;
    if (needed[lo] || needed[hi]) {
      needed[lo] = needed[hi] = true;
      network.push_back(*it);
    }
  }
  std::reverse(network.begin(), network.end());
  return network;
}

}  // namespace

Median::Median(std::size_t n, std::size_t f)
    : Gar(n, f), network_(median_network(n)) {
  require(n >= 2 * f + 1,
          "median: requires n >= 2f+1 (got n=" + std::to_string(n) +
              ", f=" + std::to_string(f) + ")");
}

void Median::do_aggregate(Rows inputs, AggregationContext&,
                          FlatVector& out) const {
  const std::size_t n = inputs.size();
  const std::size_t d = inputs.front().size();
  if (n == 1) {
    std::copy(inputs.front().begin(), inputs.front().end(), out.begin());
    return;
  }
  if (n == 3) {
    // Fast path via the branchless SIMT primitive of §4.3.
    const float* a = inputs[0].data();
    const float* b = inputs[1].data();
    const float* c = inputs[2].data();
    parallel_for(d, [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j)
        out[j] = median3_branchless(a[j], b[j], c[j]);
    });
    return;
  }
  // Any other n: each core owns a contiguous share of coordinates (§4.3)
  // and runs the comparator network on one block of them at a time. Row i
  // of `lanes` holds input i's block; a short last block leaves stale lanes
  // behind, which are never stored.
  const std::size_t mid = n / 2;
  const Float4 half = {0.5F, 0.5F, 0.5F, 0.5F};
  parallel_for(d, [&](std::size_t begin, std::size_t end) {
    const std::span<Float4> lanes = shard_scratch<Float4>(n * kMedianGroups);
    for (std::size_t j = begin; j < end; j += kMedianBlock) {
      const std::size_t width = std::min(kMedianBlock, end - j);
      for (std::size_t i = 0; i < n; ++i) {
        Float4* row = &lanes[i * kMedianGroups];
        const float* src = inputs[i].data() + j;
        // A constant size on full blocks compiles to plain vector moves.
        if (width == kMedianBlock) {
          std::memcpy(row, src, sizeof(Float4) * kMedianGroups);
        } else {
          std::memcpy(row, src, sizeof(float) * width);
        }
      }
      for (const auto& [lo, hi] : network_) {
        Float4* x = &lanes[lo * kMedianGroups];
        Float4* y = &lanes[hi * kMedianGroups];
        for (std::size_t g = 0; g < kMedianGroups; ++g)
          compare_exchange(x[g], y[g]);
      }
      Float4 median[kMedianGroups];
      const Float4* upper = &lanes[mid * kMedianGroups];
      const Float4* lower = &lanes[(mid - 1) * kMedianGroups];
      for (std::size_t g = 0; g < kMedianGroups; ++g) {
        // Even count: average the two central order statistics.
        median[g] = n % 2 == 1 ? upper[g] : half * (lower[g] + upper[g]);
      }
      std::memcpy(out.data() + j, median, sizeof(float) * width);
    }
  });
}

// ---------------------------------------------------------------- TrimmedMean

TrimmedMean::TrimmedMean(std::size_t n, std::size_t f)
    : TrimmedMean(n, f, f) {}

TrimmedMean::TrimmedMean(std::size_t n, std::size_t f, std::size_t trim)
    : Gar(n, f), trim_(trim) {
  require(n >= 2 * f + 1, "trimmed_mean: requires n >= 2f+1");
  require(n > 2 * trim_,
          "trimmed_mean: trim=" + std::to_string(trim_) +
              " leaves no inputs (needs n > 2*trim, n=" + std::to_string(n) +
              ")");
}

void TrimmedMean::do_aggregate(Rows inputs, AggregationContext&,
                               FlatVector& out) const {
  const std::size_t n = inputs.size();
  const std::size_t d = inputs.front().size();
  const std::size_t keep = n - 2 * trim_;
  const std::size_t trim = trim_;
  parallel_for(d, [&](std::size_t begin, std::size_t end) {
    const std::span<float> column = shard_scratch<float>(n);
    for (std::size_t j = begin; j < end; ++j) {
      for (std::size_t i = 0; i < n; ++i) column[i] = inputs[i][j];
      std::sort(column.begin(), column.end());
      double acc = 0.0;
      for (std::size_t i = trim; i < trim + keep; ++i) acc += column[i];
      out[j] = float(acc / double(keep));
    }
  });
}

// ---------------------------------------------------------------- Krum

Krum::Krum(std::size_t n, std::size_t f) : Gar(n, f) {
  require(n >= 2 * f + 3,
          "krum: requires n >= 2f+3 (got n=" + std::to_string(n) +
              ", f=" + std::to_string(f) + ")");
}

std::size_t Krum::neighbours(std::size_t active) const {
  assert(active >= 3);
  return active > f_ + 2 ? active - f_ - 2 : std::size_t(1);
}

void Krum::scores_cached(DistanceCache& cache,
                         std::vector<double>& scores) const {
  const std::size_t k = neighbours(cache.active_count());
  scores.resize(cache.size());
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (cache.is_active(i)) scores[i] = cache.nearest_sum(i, k);
  }
}

void Krum::selection_order_cached(DistanceCache& cache, Rows inputs,
                                  std::vector<double>& scores,
                                  std::vector<std::size_t>& order) const {
  assert(cache.active_count() == inputs.size());
  scores_cached(cache, scores);
  order.resize(inputs.size());
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return std::lexicographical_compare(inputs[a].begin(), inputs[a].end(),
                                        inputs[b].begin(), inputs[b].end());
  });
}

std::size_t Krum::select_cached(DistanceCache& cache, Rows inputs) const {
  assert(cache.size() == inputs.size());
  const std::size_t k = neighbours(cache.active_count());
  double best_score = std::numeric_limits<double>::infinity();
  std::size_t best = cache.size();
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (!cache.is_active(i)) continue;
    const double score = cache.nearest_sum(i, k);
    const bool better =
        score < best_score ||
        (score == best_score && best < cache.size() &&
         std::lexicographical_compare(inputs[i].begin(), inputs[i].end(),
                                      inputs[best].begin(),
                                      inputs[best].end()));
    if (better) {
      best_score = score;
      best = i;
    }
  }
  assert(best < cache.size());
  return best;
}

void Krum::do_aggregate(Rows inputs, AggregationContext& ctx,
                        FlatVector& out) const {
  DistanceCache& cache = ctx.distance_cache(inputs);
  const Row winner = inputs[select_cached(cache, inputs)];
  std::copy(winner.begin(), winner.end(), out.begin());
}

// ---------------------------------------------------------------- MultiKrum

MultiKrum::MultiKrum(std::size_t n, std::size_t f)
    : MultiKrum(n, f, n > f + 2 ? n - f - 2 : std::size_t(1)) {}

MultiKrum::MultiKrum(std::size_t n, std::size_t f, std::size_t m)
    : Krum(n, f), m_(m) {
  const std::size_t max_m = n - f - 2;  // n >= 2f+3 holds via Krum's check
  require(m_ >= 1 && m_ <= max_m,
          "multi_krum: m must be in [1, n-f-2] = [1, " +
              std::to_string(max_m) + "] (got " + std::to_string(m_) + ")");
}

void MultiKrum::do_aggregate(Rows inputs, AggregationContext& ctx,
                             FlatVector& out) const {
  DistanceCache& cache = ctx.distance_cache(inputs);
  std::vector<double>& scores = ctx.score_scratch(inputs.size());
  std::vector<std::size_t>& order = ctx.index_scratch(inputs.size());
  selection_order_cached(cache, inputs, scores, order);
  std::fill(out.begin(), out.end(), 0.0F);
  for (std::size_t k = 0; k < m_; ++k)
    tensor::axpy(1.0F, inputs[order[k]], out);
  tensor::scale(out, 1.0F / float(m_));
}

// ---------------------------------------------------------------- MDA

Mda::Mda(std::size_t n, std::size_t f) : Gar(n, f) {
  require(n >= 2 * f + 1, "mda: requires n >= 2f+1");
}

void Mda::do_aggregate(Rows inputs, AggregationContext& ctx,
                       FlatVector& out) const {
  const std::size_t n = inputs.size();
  const std::size_t keep = n - f_;
  const DistanceCache& cache = ctx.distance_cache(inputs);

  // Enumerate all C(n, keep) subsets with the classic combination walk and
  // track the one with minimum diameter (max pairwise distance).
  std::vector<std::size_t>& scratch = ctx.index_scratch(2 * keep);
  const std::span<std::size_t> comb(scratch.data(), keep);
  const std::span<std::size_t> best(scratch.data() + keep, keep);
  std::iota(comb.begin(), comb.end(), std::size_t(0));
  std::copy(comb.begin(), comb.end(), best.begin());
  double best_diameter = std::numeric_limits<double>::infinity();
  while (true) {
    double diameter = 0.0;
    for (std::size_t a = 0; a < keep && diameter < best_diameter; ++a) {
      for (std::size_t b = a + 1; b < keep; ++b) {
        diameter =
            std::max(diameter, cache.squared_distance(comb[a], comb[b]));
        if (diameter >= best_diameter) break;
      }
    }
    if (diameter < best_diameter) {
      best_diameter = diameter;
      std::copy(comb.begin(), comb.end(), best.begin());
    }
    // Advance to the next combination.
    long i = long(keep) - 1;
    while (i >= 0 && comb[std::size_t(i)] == n - keep + std::size_t(i)) --i;
    if (i < 0) break;
    ++comb[std::size_t(i)];
    for (std::size_t j = std::size_t(i) + 1; j < keep; ++j)
      comb[j] = comb[j - 1] + 1;
  }

  std::fill(out.begin(), out.end(), 0.0F);
  for (std::size_t idx : best) tensor::axpy(1.0F, inputs[idx], out);
  tensor::scale(out, 1.0F / float(keep));
}

// ---------------------------------------------------------------- Bulyan

namespace {

/// Bulyan's n, once its precondition holds: checked before the Krum it
/// iterates is built, so a bad n names Bulyan's bound, not Krum's.
std::size_t bulyan_n(std::size_t n, std::size_t f) {
  require(n >= 4 * f + 3,
          "bulyan: requires n >= 4f+3 (got n=" + std::to_string(n) +
              ", f=" + std::to_string(f) + ")");
  return n;
}

}  // namespace

Bulyan::Bulyan(std::size_t n, std::size_t f)
    : Gar(n, f), krum_(bulyan_n(n, f), f) {}

void Bulyan::do_aggregate(Rows inputs, AggregationContext& ctx,
                          FlatVector& out) const {
  const std::size_t n = inputs.size();
  const std::size_t d = inputs.front().size();
  const std::size_t theta = n - 2 * f_;     // selection-set size
  const std::size_t beta = theta - 2 * f_;  // values averaged per coordinate

  // Phase 1: iterate Krum over a logically shrinking pool, harvesting
  // theta *indices*. The O(n^2 d) pairwise distances are computed once
  // (sharded across cores) and cached across rounds (§4.4); each selection
  // round is then O(n^2) and no input vector is ever copied.
  DistanceCache& cache = ctx.distance_cache(inputs);
  std::vector<std::size_t>& selected = ctx.index_scratch(theta);
  for (std::size_t k = 0; k < theta; ++k) {
    std::size_t pick;
    if (cache.active_count() >= 3) {
      pick = krum_.select_cached(cache, inputs);
    } else {
      // Degenerate tail (only reachable when f = 0): take the
      // lexicographically smallest remaining vector, deterministically.
      pick = cache.size();
      for (std::size_t i = 0; i < cache.size(); ++i) {
        if (!cache.is_active(i)) continue;
        if (pick == cache.size() ||
            std::lexicographical_compare(inputs[i].begin(), inputs[i].end(),
                                         inputs[pick].begin(),
                                         inputs[pick].end())) {
          pick = i;
        }
      }
    }
    selected[k] = pick;
    cache.remove(pick);
  }

  // Phase 2: per coordinate, average the beta values closest to the median
  // of the selected set — coordinate shards across cores per §4.3.
  parallel_for(d, [&](std::size_t begin, std::size_t end) {
    const std::span<float> column = shard_scratch<float>(theta);
    for (std::size_t j = begin; j < end; ++j) {
      for (std::size_t i = 0; i < theta; ++i)
        column[i] = inputs[selected[i]][j];
      const std::size_t mid = theta / 2;
      std::nth_element(column.begin(), column.begin() + long(mid),
                       column.end());
      const float med = column[mid];
      std::partial_sort(column.begin(), column.begin() + long(beta),
                        column.end(), [med](float a, float b) {
                          const float da = std::abs(a - med);
                          const float db = std::abs(b - med);
                          if (da != db) return da < db;
                          return a < b;  // deterministic on symmetric ties
                        });
      double acc = 0.0;
      for (std::size_t i = 0; i < beta; ++i) acc += column[i];
      out[j] = float(acc / double(beta));
    }
  });
}

}  // namespace garfield::gars
