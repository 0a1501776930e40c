#include "tensor/tensor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace garfield::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0F) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: values size " +
                                std::to_string(data_.size()) +
                                " does not match shape " +
                                shape_to_string(shape_));
  }
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  assert(rank() == 2);
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  assert(rank() == 2);
  return data_[r * shape_[1] + c];
}

Tensor Tensor::reshaped(Shape shape) const {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("Tensor::reshaped: numel mismatch " +
                                shape_to_string(shape_) + " -> " +
                                shape_to_string(shape));
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor& Tensor::operator+=(const Tensor& rhs) {
  assert(numel() == rhs.numel());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  assert(numel() == rhs.numel());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float alpha) {
  for (float& v : data_) v *= alpha;
  return *this;
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::mean() const { return empty() ? 0.0 : sum() / double(numel()); }

float Tensor::max() const {
  assert(!empty());
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const {
  assert(!empty());
  return std::size_t(std::distance(
      data_.begin(), std::max_element(data_.begin(), data_.end())));
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0));
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  // ikj loop order: streams through b row-wise, cache friendly.
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

namespace {

// Two doubles: one SSE2 register on x86-64 (GCC/Clang vector extension).
// Each lane performs exactly the scalar IEEE operation.
using Double2 = double __attribute__((vector_size(16)));

// matmul_nt tiles: kNtRows rows of a share every packed row of b^T, and
// kNtCols output columns are summed side by side in Double2 lanes.
constexpr std::size_t kNtRows = 4;
constexpr std::size_t kNtCols = 8;

// One tile of matmul_nt: `rows` rows of a (row stride k) against one panel
// (kNtCols packed columns of b^T, row p at panel + p * kNtCols), written to
// the first `cols` columns of out. Each output is its own accumulator, fed
// p = 0, 1, ..., k-1 in order, exactly like the scalar dot product.
template <std::size_t rows>
void matmul_nt_tile(const float* a, std::size_t k, const double* panel,
                    float* out, std::size_t out_stride, std::size_t cols) {
  constexpr std::size_t lanes = kNtCols / 2;
  Double2 acc[rows][lanes] = {};
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double av = a[r * k + p];
      const Double2 a2 = {av, av};
      for (std::size_t l = 0; l < lanes; ++l) {
        Double2 b2;
        std::memcpy(&b2, panel + p * kNtCols + 2 * l, sizeof(b2));
        acc[r][l] += a2 * b2;
      }
    }
  }
  // Copy out once, so the accumulators stay in registers inside the loop.
  double sums[rows][kNtCols];
  static_assert(sizeof(sums) == sizeof(acc));
  std::memcpy(sums, acc, sizeof(sums));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      out[r * out_stride + c] = float(sums[r][c]);
}

}  // namespace

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1));
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* op = out.data().data();
  std::vector<double> panel(k * kNtCols);
  for (std::size_t j = 0; j < n; j += kNtCols) {
    // Pack columns j.. of b^T as double; the zero padding past column n
    // feeds lanes that are never stored.
    const std::size_t cols = std::min(kNtCols, n - j);
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t c = 0; c < kNtCols; ++c)
        panel[p * kNtCols + c] = c < cols ? bp[(j + c) * k + p] : 0.0;
    std::size_t i = 0;
    for (; i + kNtRows <= m; i += kNtRows)
      matmul_nt_tile<kNtRows>(ap + i * k, k, panel.data(), op + i * n + j, n,
                              cols);
    for (; i < m; ++i)
      matmul_nt_tile<1>(ap + i * k, k, panel.data(), op + i * n + j, n, cols);
  }
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0));
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
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

Tensor transpose(const Tensor& a) {
  assert(a.rank() == 2);
  const std::size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  return out;
}

}  // namespace garfield::tensor
