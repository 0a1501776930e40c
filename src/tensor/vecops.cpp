#include "tensor/vecops.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace garfield::tensor {

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(std::span<float> x, float alpha) {
  for (float& v : x) v *= alpha;
}

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) acc += double(a[i]) * double(b[i]);
  return acc;
}

double squared_distance(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = double(a[i]) - double(b[i]);
    acc += d * d;
  }
  return acc;
}

double norm(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void subtract(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  assert(a.size() == b.size() && a.size() == out.size());
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void mean_into(std::span<const std::span<const float>> inputs,
               std::span<float> out) {
  assert(!inputs.empty());
  assert(out.size() == inputs.front().size());
  std::fill(out.begin(), out.end(), 0.0F);
  for (const std::span<const float> v : inputs) {
    assert(v.size() == out.size());
    axpy(1.0F, v, out);
  }
  scale(out, 1.0F / float(inputs.size()));
}

FlatVector mean(std::span<const FlatVector> inputs) {
  assert(!inputs.empty());
  const std::vector<std::span<const float>> rows(inputs.begin(), inputs.end());
  FlatVector out(inputs.front().size());
  mean_into(rows, out);
  return out;
}

double cosine(std::span<const float> a, std::span<const float> b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

bool all_finite(std::span<const float> x) {
  // A float is NaN or ±Inf exactly when its exponent bits are all ones.
  // OR-reducing that test with no early exit lets the loop vectorize; the
  // verdict equals std::isfinite's on every element.
  constexpr std::uint32_t kExponent = 0x7f800000U;
  std::uint32_t non_finite = 0;
  for (float v : x) {
    non_finite |=
        std::uint32_t((std::bit_cast<std::uint32_t>(v) & kExponent) ==
                      kExponent);
  }
  return non_finite == 0;
}

}  // namespace garfield::tensor
