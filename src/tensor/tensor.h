// Dense row-major float tensor.
//
// This is the compute representation used by garfield::nn for activations,
// weights and gradients. It deliberately stays small: contiguous storage,
// a shape, and the handful of BLAS-like kernels a CNN/MLP needs. The wire
// representation is tensor::FlatVector (see vecops.h); Module::gradient()
// flattens into it.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace garfield::tensor {

/// Shape of a tensor, e.g. {batch, channels, h, w}.
using Shape = std::vector<std::size_t>;

[[nodiscard]] std::size_t shape_numel(const Shape& shape);
[[nodiscard]] std::string shape_to_string(const Shape& shape);

/// Contiguous row-major dense tensor of float.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> values);

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// N(mean, stddev) entries.
  [[nodiscard]] static Tensor randn(Shape shape, Rng& rng, float mean = 0.0F,
                                    float stddev = 1.0F);
  /// U(lo, hi) entries.
  [[nodiscard]] static Tensor rand_uniform(Shape shape, Rng& rng, float lo,
                                           float hi);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D indexed access; tensor must have rank 2.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  /// A copy of the storage under a new shape of identical numel.
  [[nodiscard]] Tensor reshaped(Shape shape) const;

  void fill(float v);
  void zero() { fill(0.0F); }

  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float alpha);

  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] float max() const;
  /// Index of the maximum element (first on ties).
  [[nodiscard]] std::size_t argmax() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

// The three GEMM kernels fix each output's sequence of operations: out[i][j]
// sums its k terms for p = 0, 1, ..., k-1 in order. Tiling or vectorizing
// them may change their speed, never their bits (tests/tensor_test.cpp holds
// each one to a scalar reference by memcmp). The same holds for the distance
// matrix (tests/distance_cache_test.cpp).

/// out = a @ b for rank-2 tensors: (m,k) x (k,n) -> (m,n). Sums
/// a[i][p] * b[p][j] in float over p in order, skipping terms whose
/// a[i][p] is zero. The input-gradient kernel of Linear and Conv2d.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// out = a @ b^T: (m,k) x (n,k) -> (m,n). out[i][j] is float(acc), where
/// the double acc sums double(a[i][p]) * double(b[j][p]) over p in order.
/// The forward kernel of Linear and Conv2d. Runs the widest path the host
/// supports (detail::simd_path()); a product of two floats is exact in
/// double, so every path sums the same terms in the same order and rounds
/// the same way.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// The squared distance of every pair of the n `rows`, into `matrix`
/// (n x n, row-major): matrix[i*n+j] and matrix[j*n+i] are
/// squared_distance(rows[i], rows[j]) of tensor/vecops.h, bit for bit, for
/// i < j, and the diagonal is 0. The rows must share one size. The Krum
/// family's distance matrix: tiles of pairs run as parallel_for shards on
/// the widest path the host supports (detail::simd_path()). Each tile owns
/// whole pairs and each pair sums its terms in the reference's order, so
/// neither the shard count nor the path changes a bit. Allocates nothing
/// when it runs as one shard.
void squared_distance_matrix(std::span<const std::span<const float>> rows,
                             std::span<double> matrix);

namespace detail {

/// The builds of the double-lane kernels, matmul_nt's tile and the distance
/// tile: 2 lanes per instruction (baseline, any target) or 4 (avx2, x86-64
/// hosts that have it). A lane performs exactly the scalar IEEE operations
/// of its output's reference loop; the lane count decides only how many
/// outputs one instruction advances.
enum class SimdPath { baseline, avx2 };

[[nodiscard]] const char* path_name(SimdPath path);
/// Whether this build and host can run `path`.
[[nodiscard]] bool can_run(SimdPath path);
/// The path the kernels take: the widest one can_run(), read once per
/// process from CPUID.
[[nodiscard]] SimdPath simd_path();
/// matmul_nt on `path`, which the host must be able to run: lets tests
/// hold each path to the reference, whichever the host picks.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b,
                               SimdPath path);

/// squared_distance_matrix on `path`, which the host must be able to run.
void squared_distance_matrix(std::span<const std::span<const float>> rows,
                             std::span<double> matrix, SimdPath path);

}  // namespace detail

/// out = a^T @ b: (k,m) x (k,n) -> (m,n). Sums a[p][i] * b[p][j] in float
/// over p in order, skipping terms whose a[p][i] is zero. The
/// weight-gradient kernel of Linear and Conv2d.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Rank-2 transpose.
[[nodiscard]] Tensor transpose(const Tensor& a);

}  // namespace garfield::tensor
