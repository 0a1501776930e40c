// Flat-vector operations.
//
// Gradients and models travel through garfield as flat float vectors
// (the paper serializes tensors to protocol buffers; we serialize to
// FlatVector). GARs, attacks and the networking layer all operate on this
// representation, so these kernels are the hot path of robust aggregation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace garfield::tensor {

/// The wire/aggregation representation of a gradient or a model.
using FlatVector = std::vector<float>;

/// y += alpha * x. Sizes must match.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scale(std::span<float> x, float alpha);

/// Dot product.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// Squared Euclidean distance between two vectors.
[[nodiscard]] double squared_distance(std::span<const float> a,
                                      std::span<const float> b);

/// Euclidean (L2) norm.
[[nodiscard]] double norm(std::span<const float> x);

/// Elementwise a - b into out (out may alias a).
void subtract(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

/// Elementwise a + b into out (out may alias a).
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// Arithmetic mean of q equally-sized vectors, borrowed as views, into a
/// caller-sized `out` (no allocation). Preconditions: !inputs.empty(),
/// out.size() == d.
void mean_into(std::span<const std::span<const float>> inputs,
               std::span<float> out);

/// Arithmetic mean of q equally-sized vectors. Precondition: !inputs.empty().
[[nodiscard]] FlatVector mean(std::span<const FlatVector> inputs);

/// cos(angle) between two vectors; 0 if either has zero norm.
[[nodiscard]] double cosine(std::span<const float> a, std::span<const float> b);

/// True iff every element is finite (no NaN / Inf). Used to reject
/// obviously-corrupt Byzantine payloads before they reach a GAR.
[[nodiscard]] bool all_finite(std::span<const float> x);

}  // namespace garfield::tensor
