// Neural-network module interface.
//
// garfield::nn is the stand-in for the TensorFlow/PyTorch compute substrate:
// enough of a deep-learning stack (layers, backprop, optimizer) to train the
// convergence experiments, with models exposed as flat parameter/gradient
// vectors — the representation Garfield's servers and workers exchange.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace garfield::nn {

using tensor::Tensor;

/// A learnable parameter: value plus its accumulated gradient.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Base class for differentiable layers.
///
/// Calling convention: forward() caches whatever it needs, then a single
/// backward() with dL/d(output) returns dL/d(input) and accumulates dL/dW
/// into each Param::grad. Layers are stateful and not reentrant, matching
/// the one-batch-at-a-time training loop of the paper's workers.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual Tensor forward(const Tensor& input, bool train) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a caller that discards dL/d(input), as Model::gradient
  /// does for its input batch: accumulates the same dL/dW, bit for bit,
  /// and may skip computing dL/d(input).
  virtual void backward_params(const Tensor& grad_output) {
    (void)backward(grad_output);
  }

  /// Learnable parameters in a fixed, deterministic order.
  virtual std::vector<Param> params() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace garfield::nn
