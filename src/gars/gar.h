// Gradient Aggregation Rules (GARs) — the paper's §3.1.
//
// A GAR is a function (R^d)^q -> R^d aggregating q gradient (or model)
// vectors, of which up to f may be Byzantine. Garfield mirrors the paper's
// two-call interface: make_gar(spec, n, f) is init(), aggregation is
// aggregate_into(). Each rule validates its resilience precondition (the
// inequality relating q and f) at construction.
//
// The one aggregation entry point is
//
//   gar->aggregate_into(rows, ctx, out);
//
// where `rows` (Rows) are borrowed views of the q input vectors: a server
// hands its GARs the pulled payloads themselves, with no copy. Rows
// borrow, so the caller keeps every payload they view alive until the call
// returns. `ctx` is a caller-owned AggregationContext holding every scratch
// buffer a rule needs (distance matrix, score/index arrays, work vectors).
// Reusing one context across iterations makes a steady-state call that
// runs in one shard allocation-free — the §4.4 caching story generalized
// to all rule scratch state. (A multi-shard call still allocates its
// tensor::parallel_for fork-join and the helper tasks it queues.) A caller
// holding owned vectors (std::vector<FlatVector>) passes them as they are:
// the context views them as rows in a scratch it reuses, and the same
// kernel runs.
//
// Rule construction goes through the GarRegistry (gars/registry.h):
// make_gar accepts either a bare rule name ("krum") or a spec string with
// typed options ("centered_clip:tau=0.5,iterations=20").
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/vecops.h"

namespace garfield::gars {

using tensor::FlatVector;

/// One aggregation input: a borrowed view of a d-float vector.
using Row = std::span<const float>;
/// The q inputs of one aggregation call.
using Rows = std::span<const Row>;

/// Cache of pairwise squared distances over a fixed input set, with O(1)
/// logical removal and an O(1) maintained active count. §4.4: "aggregating
/// gradients may require multiple iterations, calculating some
/// distance-based scores ... we cache the results of each of these
/// iterations and hence remove redundant computations" — Bulyan's
/// iterated-Krum phase computes the O(n^2 d) distance matrix once and
/// reuses it across all selection rounds. The fill is
/// tensor::squared_distance_matrix: register tiles of 4 rows against 2 or
/// 4 partner rows (the host's SIMD path), sharded as whole tiles with
/// tensor::parallel_for (§4.3). Every entry is bit for bit
/// tensor::squared_distance of its pair, whatever the path or the shard
/// count. reset() recomputes in place, reusing the allocation —
/// AggregationContext keeps one instance alive across aggregation calls.
class DistanceCache {
 public:
  /// Recompute the matrix for a new input set, reusing storage. All inputs
  /// become active again.
  void reset(Rows inputs);

  [[nodiscard]] double squared_distance(std::size_t i, std::size_t j) const {
    assert(i < n_ && j < n_);
    return matrix_[i * n_ + j];
  }
  /// Logically remove an input from the active set (idempotent).
  void remove(std::size_t i) {
    assert(i < n_);
    if (active_[i]) {
      active_[i] = false;
      --active_count_;
    }
  }
  [[nodiscard]] bool is_active(std::size_t i) const {
    assert(i < n_);
    return active_[i];
  }
  [[nodiscard]] std::size_t active_count() const { return active_count_; }
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Sum of the k smallest squared distances from active input i to the
  /// other active inputs, added in ascending order: Krum's score of i. Not
  /// const: it sorts in a scratch row the cache keeps, sized by reset(),
  /// so it allocates nothing. Requires 1 <= k < active_count().
  [[nodiscard]] double nearest_sum(std::size_t i, std::size_t k);

 private:
  std::size_t n_ = 0;
  std::size_t active_count_ = 0;
  std::vector<double> matrix_;
  std::vector<bool> active_;
  std::vector<double> row_;
};

/// Reusable scratch state for aggregation. One context per aggregating
/// thread (a Server owns one for its loop); NOT thread-safe — the
/// parallelism lives inside the kernels, not across contexts. Buffers grow
/// to the high-water mark of (n, d) seen and are then reused, so a
/// steady-state one-shard call performs no heap allocation.
/// Lifetime rules: a context must outlive every aggregate_into call using
/// it, and buffers handed out are valid only until the next request for the
/// same buffer — rules own the context for the duration of one call.
class AggregationContext {
 public:
  AggregationContext() = default;
  AggregationContext(const AggregationContext&) = delete;
  AggregationContext& operator=(const AggregationContext&) = delete;

  /// Pairwise distances for `inputs`, recomputed in place on each call.
  [[nodiscard]] DistanceCache& distance_cache(Rows inputs) {
    cache_.reset(inputs);
    return cache_;
  }

  /// Rows viewing `vectors`, in a scratch reused across calls: what the
  /// owned-vector form of Gar::aggregate_into aggregates. Valid until the
  /// next rows_of call.
  [[nodiscard]] Rows rows_of(std::span<const FlatVector> vectors) {
    rows_.assign(vectors.begin(), vectors.end());
    return rows_;
  }

  /// Slot-indexed d-element work vector (contents unspecified). Slots let
  /// a rule hold several live vectors (e.g. Weiszfeld center + next).
  [[nodiscard]] FlatVector& vector_scratch(std::size_t slot, std::size_t d) {
    if (vectors_.size() <= slot) vectors_.resize(slot + 1);
    vectors_[slot].resize(d);
    return vectors_[slot];
  }

  /// n-element double scratch (scores, norms, per-input statistics).
  [[nodiscard]] std::vector<double>& score_scratch(std::size_t n) {
    scores_.resize(n);
    return scores_;
  }

  /// n-element index scratch (selection orders).
  [[nodiscard]] std::vector<std::size_t>& index_scratch(std::size_t n) {
    indices_.resize(n);
    return indices_;
  }

  /// Pool of n staged input vectors of dimension d (used by input-rewriting
  /// decorators such as pre_clip; one decorator level deep).
  [[nodiscard]] std::vector<FlatVector>& input_scratch(std::size_t n,
                                                       std::size_t d) {
    staged_.resize(n);
    for (FlatVector& v : staged_) v.resize(d);
    return staged_;
  }

 private:
  DistanceCache cache_;
  std::vector<Row> rows_;
  std::vector<FlatVector> vectors_;
  std::vector<double> scores_;
  std::vector<std::size_t> indices_;
  std::vector<FlatVector> staged_;
};

/// Interface of a gradient aggregation rule.
class Gar {
 public:
  virtual ~Gar() = default;

  Gar(const Gar&) = delete;
  Gar& operator=(const Gar&) = delete;

  /// The one entry point: aggregate exactly n() rows of equal dimension
  /// into `out` (resized to d), drawing all scratch from `ctx`. The rows
  /// borrow: the caller keeps what they view alive until the call returns.
  /// `out` must not alias any row or a ctx buffer.
  void aggregate_into(Rows inputs, AggregationContext& ctx,
                      FlatVector& out) const;

  /// The same call over owned vectors: `ctx` views them as rows in a
  /// scratch it reuses, then the same kernel runs.
  void aggregate_into(std::span<const FlatVector> inputs,
                      AggregationContext& ctx, FlatVector& out) const {
    aggregate_into(ctx.rows_of(inputs), ctx, out);
  }

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t f() const { return f_; }

 protected:
  Gar(std::size_t n, std::size_t f) : n_(n), f_(f) {}

  /// Rule kernel: inputs are validated and `out` is sized to d already.
  virtual void do_aggregate(Rows inputs, AggregationContext& ctx,
                            FlatVector& out) const = 0;

  /// Throws std::invalid_argument unless sizes match (n inputs, equal d>0).
  void check_inputs(Rows inputs) const;

  std::size_t n_;
  std::size_t f_;
};

using GarPtr = std::unique_ptr<Gar>;

/// Names registered in the GarRegistry, in registration order: "average",
/// "median", "trimmed_mean", "krum", "multi_krum", "mda", "bulyan", plus
/// the extended rules the paper's related-work section points at:
/// "geometric_median" (RFA), "centered_clip", "cge" (norm-based comparative
/// gradient elimination) — and anything registered at runtime.
[[nodiscard]] std::vector<std::string> gar_names();

/// Minimum number of inputs rule `spec` needs to tolerate f Byzantine ones
/// (spec may be a bare name or a full spec string; only the name matters).
/// average: 1 (tolerates none); median/trimmed_mean/mda: 2f+1;
/// krum/multi_krum: 2f+3; bulyan: 4f+3.
[[nodiscard]] std::size_t gar_min_n(const std::string& spec, std::size_t f);

/// The paper's init(): build a rule for n inputs with at most f Byzantine.
/// `spec` is either a bare registry name ("krum") or a spec string with
/// options ("centered_clip:tau=0.5,iterations=20") — see gars/registry.h
/// for the grammar. Throws std::invalid_argument for unknown names,
/// malformed or unknown options, or n < gar_min_n(name, f).
[[nodiscard]] GarPtr make_gar(const std::string& spec, std::size_t n,
                              std::size_t f);

// ------------------------------------------------------------------------
// Concrete rules. Exposed so callers can construct them directly; most code
// should go through make_gar / the registry.

/// Arithmetic mean — the vanilla (non-resilient) baseline.
class Average final : public Gar {
 public:
  Average(std::size_t n, std::size_t f);
  [[nodiscard]] std::string name() const override { return "average"; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;
};

/// Coordinate-wise median [Xie et al.]. Requires n >= 2f+1.
///
/// Per coordinate the output is sorted[n/2] for odd n and
/// 0.5F * (sorted[n/2-1] + sorted[n/2]) for even n. n = 1 copies and n = 3
/// runs the paper's median3_branchless (§4.3). Every other n generalizes
/// that branchless primitive: a comparator network (Batcher's odd-even
/// merge sort, cut to n inputs and to the comparators that reach the median
/// ranks; O(n log^2 n) compare-exchanges per coordinate) runs on 4
/// coordinates per SIMD register, with no data-dependent branch.
///
/// It selects the same order statistics as an introselect
/// (std::nth_element), so finite and infinite inputs give the same bits,
/// with one exception: when -0 and +0 tie at a median rank, the sign of a
/// zero median may differ. NaN inputs are not ordered (Server::validate
/// drops non-finite payloads before any GAR runs).
class Median final : public Gar {
 public:
  Median(std::size_t n, std::size_t f);
  [[nodiscard]] std::string name() const override { return "median"; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  /// Compare-exchanges (lower index, higher index), in order.
  std::vector<std::array<std::uint32_t, 2>> network_;
};

/// Coordinate-wise trimmed mean: drop the `trim` lowest and `trim` highest
/// values of every coordinate (default trim = f), average the rest.
/// Requires n >= 2f+1 and n > 2*trim. O(n log n · d).
class TrimmedMean final : public Gar {
 public:
  TrimmedMean(std::size_t n, std::size_t f);
  TrimmedMean(std::size_t n, std::size_t f, std::size_t trim);
  [[nodiscard]] std::string name() const override { return "trimmed_mean"; }
  [[nodiscard]] std::size_t trim() const { return trim_; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  std::size_t trim_;
};

/// Krum [Blanchard et al.]: score each vector by the sum of squared
/// distances to its n-f-2 nearest neighbours; return the argmin vector.
/// Requires n >= 2f+3. O(n^2 d), distance matrix sharded across cores.
class Krum : public Gar {
 public:
  Krum(std::size_t n, std::size_t f);
  [[nodiscard]] std::string name() const override { return "krum"; }

  /// Index of the Krum-selected input among the active subset of a
  /// distance cache of `inputs` — also the O(q^2) re-scoring path of
  /// Bulyan's iterations, with no O(d) work and no allocation. Score ties
  /// break on the rows' lexicographic order, then on the lowest index.
  [[nodiscard]] std::size_t select_cached(DistanceCache& cache,
                                          Rows inputs) const;

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

  /// The Krum score of every active input into `scores` (sized to the
  /// cache; inactive entries unspecified): its sum of squared distances to
  /// its q-f-2 nearest active neighbours, q being the active count (at
  /// least one neighbour).
  void scores_cached(DistanceCache& cache, std::vector<double>& scores) const;

  /// Indices of an all-active cache ordered by ascending score into
  /// `order`. Exact score ties are real (mutual nearest neighbours score
  /// identically), so ties break on the vectors' lexicographic order —
  /// this keeps aggregation invariant to reply-arrival order, which is
  /// adversarial under asynchrony.
  void selection_order_cached(DistanceCache& cache, Rows inputs,
                              std::vector<double>& scores,
                              std::vector<std::size_t>& order) const;

 private:
  /// Neighbours a score sums over when `active` inputs are left.
  [[nodiscard]] std::size_t neighbours(std::size_t active) const;
};

/// Multi-Krum: average the m smallest-scoring vectors (default m = n-f-2,
/// overridable via the registry option "m" in [1, n-f-2]).
class MultiKrum final : public Krum {
 public:
  MultiKrum(std::size_t n, std::size_t f);
  MultiKrum(std::size_t n, std::size_t f, std::size_t m);
  [[nodiscard]] std::string name() const override { return "multi_krum"; }

  [[nodiscard]] std::size_t m() const { return m_; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  std::size_t m_;
};

/// MDA (Minimum-Diameter Averaging) [Rousseeuw]: average the subset of
/// size n-f with the smallest diameter. Requires n >= 2f+1.
/// O(C(n,f) + n^2 d) — exponential when f = Θ(n).
class Mda final : public Gar {
 public:
  Mda(std::size_t n, std::size_t f);
  [[nodiscard]] std::string name() const override { return "mda"; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;
};

/// Bulyan [El Mhamdi et al.]: iterate Krum n-2f times to build a selection
/// set, then per coordinate average the n-4f values closest to the median
/// of the selected set. Requires n >= 4f+3. O(n^2 d).
class Bulyan final : public Gar {
 public:
  Bulyan(std::size_t n, std::size_t f);
  [[nodiscard]] std::string name() const override { return "bulyan"; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  /// The rule phase 1 iterates.
  Krum krum_;
};

// ------------------------------------------------------------------------
// Extended rules (beyond the four the paper ships; §7 notes Garfield "can
// straightforwardly include the other ones").

/// Geometric median via the smoothed Weiszfeld iteration (RFA, Pillutla et
/// al.). Minimizes the sum of Euclidean distances to the inputs — a
/// rotation-invariant robust center. Requires n >= 2f+1. O(k n d) for k
/// Weiszfeld rounds.
class GeometricMedian final : public Gar {
 public:
  struct Options {
    std::size_t max_iterations = 32;
    double tolerance = 1e-8;      ///< relative movement stopping criterion
    double smoothing = 1e-6;      ///< Weiszfeld denominator floor
  };

  GeometricMedian(std::size_t n, std::size_t f, Options options);
  GeometricMedian(std::size_t n, std::size_t f)
      : GeometricMedian(n, f, Options{}) {}
  [[nodiscard]] std::string name() const override {
    return "geometric_median";
  }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  Options options_;
};

/// Centered clipping (Karimireddy et al.): iteratively re-center on the
/// clipped mean — every input's deviation from the current center is
/// clipped to radius tau before averaging. Requires n >= 2f+1. O(k n d).
class CenteredClip final : public Gar {
 public:
  struct Options {
    /// Re-centering rounds. Each round shrinks a far outlier's leverage to
    /// at most tau/n, so ~10 rounds collapse even 1e4-scale outliers.
    std::size_t iterations = 10;
    double tau = 0.0;  ///< clipping radius; 0 = auto (median distance)
  };

  CenteredClip(std::size_t n, std::size_t f, Options options);
  CenteredClip(std::size_t n, std::size_t f)
      : CenteredClip(n, f, Options{}) {}
  [[nodiscard]] std::string name() const override { return "centered_clip"; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  Options options_;
};

/// Comparative gradient elimination (norm filtering): sort inputs by
/// Euclidean norm and average the `keep` smallest (default keep = n-f).
/// Cheap — O(n d) — but only robust against magnitude-based attacks.
/// Requires n >= 2f+1 and 1 <= keep <= n.
class Cge final : public Gar {
 public:
  Cge(std::size_t n, std::size_t f);
  Cge(std::size_t n, std::size_t f, std::size_t keep);
  [[nodiscard]] std::string name() const override { return "cge"; }
  [[nodiscard]] std::size_t keep() const { return keep_; }

 protected:
  void do_aggregate(Rows inputs, AggregationContext& ctx,
                    FlatVector& out) const override;

 private:
  std::size_t keep_;
};

}  // namespace garfield::gars
