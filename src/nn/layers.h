// Concrete layers: Linear, activations, Conv2d (im2col), MaxPool2d,
// Flatten, Dropout and the Sequential container.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/module.h"
#include "tensor/rng.h"

namespace garfield::nn {

/// Fully-connected layer: y = x W^T + b, x of shape {batch, in}.
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, tensor::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Linear"; }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  Tensor weight_, bias_;        // {out, in}, {out}
  Tensor grad_weight_, grad_bias_;
  Tensor input_cache_;
};

/// Rectified linear unit, elementwise.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;
};

/// Hyperbolic tangent, elementwise.
class Tanh : public Module {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  Tensor output_cache_;
};

/// 2-D convolution over {batch, in_ch, h, w} inputs, implemented with
/// im2col + GEMM (the standard framework lowering).
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         tensor::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

 private:
  [[nodiscard]] std::size_t out_size(std::size_t in) const {
    return (in + 2 * padding_ - kernel_) / stride_ + 1;
  }
  /// Accumulates dL/dW and dL/db; returns dL/d(output) as {b*oh*ow, out_ch}
  /// rows, the layout of forward's GEMM.
  Tensor accumulate_param_grads(const Tensor& grad_output);

  std::size_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Tensor weight_, bias_;  // {out_ch, in_ch*k*k}, {out_ch}
  Tensor grad_weight_, grad_bias_;
  Tensor cols_cache_;     // im2col buffer from forward
  tensor::Shape input_shape_;
};

/// Max pooling over {batch, ch, h, w}.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::size_t kernel, std::size_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }

 private:
  std::size_t kernel_, stride_;
  std::vector<std::size_t> argmax_;
  tensor::Shape input_shape_;
};

/// Collapse all non-batch dimensions: {b, ...} -> {b, prod(...)}.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  tensor::Shape input_shape_;
};

/// Inverted dropout; identity at evaluation time.
class Dropout : public Module {
 public:
  Dropout(double p, tensor::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

 private:
  double p_;
  tensor::Rng rng_;
  Tensor mask_;
};

/// Residual (skip) connection: y = inner(x) + x. Inner must preserve the
/// input shape. The building block of the ResNet family (He et al.).
class Residual : public Module {
 public:
  explicit Residual(ModulePtr inner) : inner_(std::move(inner)) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override { return inner_->params(); }
  [[nodiscard]] std::string name() const override { return "Residual"; }

 private:
  ModulePtr inner_;
};

/// Parallel branches over the same input, concatenated along the channel
/// dimension: the Inception pattern. Input {b, c, h, w}; every branch must
/// produce {b, c_i, h, w} with identical spatial dims.
class ChannelConcat : public Module {
 public:
  explicit ChannelConcat(std::vector<ModulePtr> branches)
      : branches_(std::move(branches)) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "ChannelConcat"; }

 private:
  std::vector<ModulePtr> branches_;
  std::vector<std::size_t> branch_channels_;
  tensor::Shape input_shape_;
};

/// Ordered chain of modules.
class Sequential : public Module {
 public:
  Sequential() = default;

  void push(ModulePtr module) { modules_.push_back(std::move(module)); }

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Stops at the first module with parameters, which gets
  /// backward_params(): the modules in front of it have no dL/dW to add.
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t size() const { return modules_.size(); }

 private:
  std::vector<ModulePtr> modules_;
};

}  // namespace garfield::nn
