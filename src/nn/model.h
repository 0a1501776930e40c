// Model: a network + loss packaged behind the flat-vector interface that
// Garfield's Server/Worker objects exchange over the network.
//
// The paper's workers "compute a gradient estimate, when asked by the
// server, using the data chunk [they own]" and reply with a serialized
// gradient; servers hold the parameter vector. Model provides exactly those
// two currencies: parameters() / set_parameters() for model state and
// gradient() for estimates, both as tensor::FlatVector.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/module.h"
#include "tensor/vecops.h"

namespace garfield::nn {

using tensor::FlatVector;

/// Gradient of the loss on one mini-batch, plus bookkeeping.
struct GradientResult {
  FlatVector gradient;
  double loss = 0.0;
};

/// A trainable model with a classification loss.
class Model {
 public:
  /// input_shape excludes the batch dimension; e.g. {3, 16, 16} or {64}.
  Model(std::string name, ModulePtr net, tensor::Shape input_shape,
        std::size_t num_classes);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Total number of learnable scalars (the paper's d).
  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] const tensor::Shape& input_shape() const { return input_shape_; }
  /// The network itself, for code that drives forward/backward directly
  /// (kernel benchmarks, reference backward passes in tests).
  [[nodiscard]] Module& net() { return *net_; }

  /// Snapshot all parameters into one flat vector (deterministic order).
  [[nodiscard]] FlatVector parameters() const;
  /// Overwrite all parameters from a flat vector of size dimension().
  void set_parameters(std::span<const float> flat);

  /// Forward + loss + backward on one batch; returns the flat gradient.
  /// Leaves layer gradients zeroed for the next call.
  [[nodiscard]] GradientResult gradient(const Tensor& inputs,
                                        const std::vector<std::size_t>& labels);

  /// gradient() into a caller-owned buffer: `out` becomes the flat
  /// gradient (resized to dimension(), so a buffer of that size is
  /// overwritten in place, with no allocation) and the loss is returned.
  double gradient_into(const Tensor& inputs,
                       const std::vector<std::size_t>& labels,
                       FlatVector& out);

  /// Mean loss on a batch without computing gradients' flattening.
  [[nodiscard]] double loss(const Tensor& inputs,
                            const std::vector<std::size_t>& labels);

  /// Top-1 accuracy on a batch.
  [[nodiscard]] double accuracy(const Tensor& inputs,
                                const std::vector<std::size_t>& labels);

 private:
  void zero_grad();

  std::string name_;
  ModulePtr net_;
  tensor::Shape input_shape_;
  std::size_t num_classes_;
  std::vector<Param> params_;
  std::size_t dimension_ = 0;
  SoftmaxCrossEntropy loss_fn_;
};

using ModelPtr = std::unique_ptr<Model>;

}  // namespace garfield::nn
