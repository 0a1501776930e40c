#include "tensor/tensor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "tensor/parallel.h"

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

// W doubles side by side: one SSE2 register on x86-64 for W = 2, one AVX2
// register for W = 4 (GCC/Clang vector extension). Each lane performs
// exactly the scalar IEEE operation.
template <std::size_t W>
struct Doubles;
template <>
struct Doubles<2> {
  using type = double __attribute__((vector_size(16)));
};
template <>
struct Doubles<4> {
  using type = double __attribute__((vector_size(32)));
};

// matmul_nt tiles: kNtRows<W> rows of a share every packed row of b^T, and
// kNtCols output columns are summed side by side in W-double lanes. The row
// count keeps a tile at 8 accumulator registers, 2 rows of xmm for W = 2 and
// 4 rows of ymm for W = 4, so that with the panel loads and the broadcast
// they fit in x86-64's 16 vector registers instead of spilling every p step.
constexpr std::size_t kNtCols = 8;
template <std::size_t W>
constexpr std::size_t kNtRows = 8 * W / kNtCols;

// One tile of matmul_nt: `rows` rows of a (row stride k) against one panel
// (kNtCols packed columns of b^T, row p at panel + p * kNtCols), written to
// the first `cols` columns of out. Each output is its own accumulator, fed
// p = 0, 1, ..., k-1 in order, exactly like the scalar dot product; the
// lane count W only decides how many of them one instruction advances.
template <std::size_t W, std::size_t rows>
[[gnu::always_inline]] inline void matmul_nt_tile(const float* a,
                                                  std::size_t k,
                                                  const double* panel,
                                                  float* out,
                                                  std::size_t out_stride,
                                                  std::size_t cols) {
  using Vec = typename Doubles<W>::type;
  constexpr std::size_t lanes = kNtCols / W;
  Vec acc[rows][lanes] = {};
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double av = a[r * k + p];
      for (std::size_t l = 0; l < lanes; ++l) {
        Vec bv;
        std::memcpy(&bv, panel + p * kNtCols + W * l, sizeof(bv));
        acc[r][l] += av * bv;
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

// out (m x n) = a (m x k) @ b^T (n x k), one panel of kNtCols columns of
// b^T at a time. Inlined into each path's entry, so the packing loop and the
// tiles are compiled for that path's instruction set.
template <std::size_t W>
[[gnu::always_inline]] inline void matmul_nt_panels(const float* a,
                                                    const float* b, float* out,
                                                    std::size_t m,
                                                    std::size_t k,
                                                    std::size_t n) {
  std::vector<double> panel(k * kNtCols);
  for (std::size_t j = 0; j < n; j += kNtCols) {
    // Pack columns j.. of b^T as double; the zero padding past column n
    // feeds lanes that are never stored.
    const std::size_t cols = std::min(kNtCols, n - j);
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t c = 0; c < kNtCols; ++c)
        panel[p * kNtCols + c] = c < cols ? b[(j + c) * k + p] : 0.0;
    std::size_t i = 0;
    for (; i + kNtRows<W> <= m; i += kNtRows<W>)
      matmul_nt_tile<W, kNtRows<W>>(a + i * k, k, panel.data(),
                                    out + i * n + j, n, cols);
    for (; i < m; ++i)
      matmul_nt_tile<W, 1>(a + i * k, k, panel.data(), out + i * n + j, n,
                           cols);
  }
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void matmul_nt_avx2(const float* a, const float* b,
                                            float* out, std::size_t m,
                                            std::size_t k, std::size_t n) {
  matmul_nt_panels<4>(a, b, out, m, k, n);
}
#endif

using RowViews = std::span<const std::span<const float>>;

// Distance tiles: kDistRows rows i (the row side) against W partner rows j
// (one lane each). Row block b holds rows kDistRows*b.., partner block c
// rows W*c... A tile is needed where some partner j exceeds some row i:
// for every row block below n - 1 and its partner blocks from
// first_partner_block onwards. Each pair i < j lies in exactly one tile.
constexpr std::size_t kDistRows = 4;

template <std::size_t W>
constexpr std::size_t first_partner_block(std::size_t b) {
  return (kDistRows * b + 1) / W;
}

template <std::size_t W>
std::size_t distance_tile_count(std::size_t n) {
  const std::size_t blocks = (n + W - 1) / W;
  std::size_t tiles = 0;
  for (std::size_t b = 0; kDistRows * b + 1 < n; ++b)
    tiles += blocks - first_partner_block<W>(b);
  return tiles;
}

// One tile: sum[r][l] = the squared distance of rows x[r] and y[l] (d
// floats each). Each pair is its own double accumulator, fed
// (double(x[r][k]) - double(y[l][k]))^2 for k = 0, 1, ..., d-1 in order,
// exactly the scalar loop of squared_distance: per coordinate, the W
// partners' values form one vector and each row's value is broadcast
// against it. The product and the add must stay two roundings: a target
// with FMA would let the compiler contract them into one, so the paths'
// targets leave FMA out.
template <std::size_t W>
[[gnu::always_inline]] inline void distance_tile(
    const float* const (&x)[kDistRows], const float* const (&y)[W],
    std::size_t d, double (&sum)[kDistRows][W]) {
  using Vec = typename Doubles<W>::type;
  Vec acc[kDistRows] = {};
  for (std::size_t k = 0; k < d; ++k) {
    Vec yv;
    for (std::size_t l = 0; l < W; ++l) yv[l] = y[l][k];
    for (std::size_t r = 0; r < kDistRows; ++r) {
      const Vec diff = double(x[r][k]) - yv;
      acc[r] += diff * diff;
    }
  }
  static_assert(sizeof(sum) == sizeof(acc));
  std::memcpy(sum, acc, sizeof(sum));
}

// Tiles begin..end of the n x n matrix, in row-block-major order: the
// pairs j > i of each tile go to matrix[i*n+j] and matrix[j*n+i]. Rows and
// partners past n are clamped to row n-1, computed, and never stored.
template <std::size_t W>
[[gnu::always_inline]] inline void distance_tiles(RowViews rows,
                                                  double* matrix,
                                                  std::size_t begin,
                                                  std::size_t end) {
  const std::size_t n = rows.size();
  const std::size_t d = rows.front().size();
  const std::size_t blocks = (n + W - 1) / W;
  // Map the flat tile index `begin` to its blocks (b, c) by walking the
  // row blocks' tile counts, then iterate in order.
  std::size_t b = 0;
  std::size_t c = begin;
  while (c >= blocks - first_partner_block<W>(b)) {
    c -= blocks - first_partner_block<W>(b);
    ++b;
  }
  c += first_partner_block<W>(b);
  for (std::size_t t = begin; t < end; ++t) {
    const float* x[kDistRows];
    const float* y[W];
    for (std::size_t r = 0; r < kDistRows; ++r)
      x[r] = rows[std::min(kDistRows * b + r, n - 1)].data();
    for (std::size_t l = 0; l < W; ++l)
      y[l] = rows[std::min(W * c + l, n - 1)].data();
    double sum[kDistRows][W];
    distance_tile<W>(x, y, d, sum);
    for (std::size_t r = 0; r < kDistRows; ++r) {
      const std::size_t i = kDistRows * b + r;
      for (std::size_t l = 0; l < W; ++l) {
        const std::size_t j = W * c + l;
        if (i < j && j < n) {
          matrix[i * n + j] = sum[r][l];
          matrix[j * n + i] = sum[r][l];
        }
      }
    }
    if (++c == blocks) {
      ++b;
      c = first_partner_block<W>(b);
    }
  }
}

using DistanceTiles = void (*)(RowViews, double*, std::size_t, std::size_t);

// Shards whole tiles, so the shard count never splits a pair's sum. The
// grain counts a tile as its kDistRows * W pairs of d coordinates each.
template <std::size_t W, DistanceTiles tiles>
void distance_matrix(RowViews rows, double* matrix) {
  const std::size_t work = rows.front().size() * kDistRows * W;
  const std::size_t grain = std::max<std::size_t>(
      1, kParallelForGrain / std::max<std::size_t>(1, work));
  parallel_for(distance_tile_count<W>(rows.size()), grain,
               [&rows, matrix](std::size_t begin, std::size_t end) {
                 tiles(rows, matrix, begin, end);
               });
}

void distance_tiles_baseline(RowViews rows, double* matrix, std::size_t begin,
                             std::size_t end) {
  distance_tiles<2>(rows, matrix, begin, end);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void distance_tiles_avx2(RowViews rows,
                                                 double* matrix,
                                                 std::size_t begin,
                                                 std::size_t end) {
  distance_tiles<4>(rows, matrix, begin, end);
}
#endif

}  // namespace

namespace detail {

const char* path_name(SimdPath path) {
  return path == SimdPath::avx2 ? "avx2" : "baseline";
}

bool can_run(SimdPath path) {
#if defined(__x86_64__)
  if (path == SimdPath::avx2) {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }
#endif
  return path == SimdPath::baseline;
}

SimdPath simd_path() {
  static const SimdPath path =
      can_run(SimdPath::avx2) ? SimdPath::avx2 : SimdPath::baseline;
  return path;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 [[maybe_unused]] SimdPath path) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1));
  assert(can_run(path));
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor out({m, n});
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* op = out.data().data();
#if defined(__x86_64__)
  if (path == SimdPath::avx2) {
    matmul_nt_avx2(ap, bp, op, m, k, n);
    return out;
  }
#endif
  matmul_nt_panels<2>(ap, bp, op, m, k, n);
  return out;
}

void squared_distance_matrix(RowViews rows, std::span<double> matrix,
                             [[maybe_unused]] SimdPath path) {
  const std::size_t n = rows.size();
  assert(matrix.size() == n * n);
  assert(can_run(path));
  for (std::size_t i = 0; i < n; ++i) matrix[i * n + i] = 0.0;
  if (n < 2) return;
#if defined(__x86_64__)
  if (path == SimdPath::avx2) {
    distance_matrix<4, distance_tiles_avx2>(rows, matrix.data());
    return;
  }
#endif
  distance_matrix<2, distance_tiles_baseline>(rows, matrix.data());
}

}  // namespace detail

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return detail::matmul_nt(a, b, detail::simd_path());
}

void squared_distance_matrix(RowViews rows, std::span<double> matrix) {
  detail::squared_distance_matrix(rows, matrix, detail::simd_path());
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
