// Unit tests for garfield::nn — layers (with numerical gradient checks),
// losses, optimizer, Model flattening and the model zoo.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"

namespace nn = garfield::nn;
namespace gt = garfield::tensor;
namespace gd = garfield::data;

namespace {

/// Central-difference check of Model::gradient against the loss landscape.
/// Verifies forward, backward and flattening end to end.
void check_model_gradient(nn::Model& model, const gt::Tensor& inputs,
                          const std::vector<std::size_t>& labels,
                          double tolerance) {
  const gt::FlatVector params = model.parameters();
  const nn::GradientResult analytic = model.gradient(inputs, labels);
  gt::Rng rng(11);
  const double eps = 1e-3;
  // Probe a deterministic sample of coordinates (all of them is too slow).
  const std::size_t probes = std::min<std::size_t>(params.size(), 48);
  for (std::size_t k = 0; k < probes; ++k) {
    const std::size_t i = (k * 977) % params.size();
    gt::FlatVector perturbed = params;
    perturbed[i] += float(eps);
    model.set_parameters(perturbed);
    const double up = model.loss(inputs, labels);
    perturbed[i] -= float(2 * eps);
    model.set_parameters(perturbed);
    const double down = model.loss(inputs, labels);
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic.gradient[i], numeric, tolerance)
        << "coordinate " << i;
  }
  model.set_parameters(params);
}

nn::ModelPtr tiny_linear_model(gt::Rng& rng) {
  auto net = std::make_unique<nn::Sequential>();
  net->push(std::make_unique<nn::Linear>(6, 5, rng));
  return std::make_unique<nn::Model>("probe", std::move(net),
                                     gt::Shape{6}, 5);
}

}  // namespace

// ------------------------------------------------------------------ layers

TEST(Linear, ForwardMatchesHandComputation) {
  gt::Rng rng(1);
  nn::Linear layer(2, 2, rng);
  // Overwrite weights to known values through params().
  auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  (*params[0].value) = gt::Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  (*params[1].value) = gt::Tensor({2}, std::vector<float>{0.5F, -0.5F});
  gt::Tensor x({1, 2}, std::vector<float>{10, 20});
  gt::Tensor y = layer.forward(x, true);
  // y = x W^T + b: [10*1+20*2+0.5, 10*3+20*4-0.5]
  EXPECT_FLOAT_EQ(y.at(0, 0), 50.5F);
  EXPECT_FLOAT_EQ(y.at(0, 1), 109.5F);
}

TEST(Linear, BackwardShapes) {
  gt::Rng rng(1);
  nn::Linear layer(3, 4, rng);
  gt::Tensor x = gt::Tensor::randn({2, 3}, rng);
  (void)layer.forward(x, true);
  gt::Tensor grad = gt::Tensor::randn({2, 4}, rng);
  gt::Tensor gx = layer.backward(grad);
  EXPECT_EQ(gx.shape(), (gt::Shape{2, 3}));
}

TEST(ReLU, ForwardZeroesNegatives) {
  nn::ReLU relu;
  gt::Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
  gt::Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 2.0F);
  EXPECT_EQ(y[3], 0.0F);
}

TEST(ReLU, BackwardMasksGradient) {
  nn::ReLU relu;
  gt::Tensor x({3}, std::vector<float>{-1, 1, 2});
  (void)relu.forward(x, true);
  gt::Tensor g({3}, std::vector<float>{5, 5, 5});
  gt::Tensor gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_EQ(gx[1], 5.0F);
  EXPECT_EQ(gx[2], 5.0F);
}

TEST(TanhLayer, ForwardBackward) {
  nn::Tanh tanh_layer;
  gt::Tensor x({2}, std::vector<float>{0.0F, 1.0F});
  gt::Tensor y = tanh_layer.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_NEAR(y[1], std::tanh(1.0F), 1e-6);
  gt::Tensor g({2}, std::vector<float>{1, 1});
  gt::Tensor gx = tanh_layer.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 1.0F);  // 1 - tanh(0)^2
  EXPECT_NEAR(gx[1], 1.0F - std::tanh(1.0F) * std::tanh(1.0F), 1e-6);
}

TEST(Conv2d, OutputShape) {
  gt::Rng rng(2);
  nn::Conv2d conv(3, 8, 3, 1, 1, rng);
  gt::Tensor x = gt::Tensor::randn({2, 3, 8, 8}, rng);
  gt::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (gt::Shape{2, 8, 8, 8}));
}

TEST(Conv2d, StrideAndNoPadding) {
  gt::Rng rng(2);
  nn::Conv2d conv(1, 2, 3, 2, 0, rng);
  gt::Tensor x = gt::Tensor::randn({1, 1, 7, 7}, rng);
  gt::Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.shape(), (gt::Shape{1, 2, 3, 3}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  gt::Rng rng(2);
  nn::Conv2d conv(1, 1, 1, 1, 0, rng);  // 1x1 conv
  auto params = conv.params();
  (*params[0].value) = gt::Tensor({1, 1}, std::vector<float>{1.0F});
  (*params[1].value) = gt::Tensor({1}, std::vector<float>{0.0F});
  gt::Tensor x = gt::Tensor::randn({1, 1, 4, 4}, rng);
  gt::Tensor y = conv.forward(x, true);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(MaxPool2d, ForwardPicksMaxima) {
  nn::MaxPool2d pool(2, 2);
  gt::Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  gt::Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0F);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  nn::MaxPool2d pool(2, 2);
  gt::Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  (void)pool.forward(x, true);
  gt::Tensor g({1, 1, 1, 1}, std::vector<float>{7});
  gt::Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_EQ(gx[1], 7.0F);
  EXPECT_EQ(gx[2], 0.0F);
}

TEST(MaxPool2d, WindowWithNoFiniteValueKeepsItsGradient) {
  // Sample 1 is all -inf: its window's gradient must stay in sample 1,
  // not land on the batch's first element.
  nn::MaxPool2d pool(2, 2);
  const float inf = std::numeric_limits<float>::infinity();
  gt::Tensor x({2, 1, 2, 2},
               std::vector<float>{0, 1, 2, 3, -inf, -inf, -inf, -inf});
  const gt::Tensor y = pool.forward(x, true);
  EXPECT_EQ(y[0], 3.0F);
  EXPECT_EQ(y[1], -inf);
  const gt::Tensor gx =
      pool.backward(gt::Tensor({2, 1, 1, 1}, std::vector<float>{1, 1}));
  const std::vector<float> want = {0, 0, 0, 1, 1, 0, 0, 0};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(gx[i], want[i]) << i;
}

TEST(Flatten, RoundTrip) {
  nn::Flatten flat;
  gt::Rng rng(4);
  gt::Tensor x = gt::Tensor::randn({2, 3, 4, 4}, rng);
  gt::Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (gt::Shape{2, 48}));
  gt::Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Dropout, EvalModeIsIdentity) {
  gt::Rng rng(5);
  nn::Dropout drop(0.5, rng);
  gt::Tensor x = gt::Tensor::randn({16}, rng);
  gt::Tensor y = drop.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainModeZeroesSome) {
  gt::Rng rng(5);
  nn::Dropout drop(0.5, rng);
  gt::Tensor x = gt::Tensor::full({256}, 1.0F);
  gt::Tensor y = drop.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0F) ++zeros;
  }
  EXPECT_GT(zeros, 64u);
  EXPECT_LT(zeros, 192u);
}

// -------------------------------------------- layers against their references

namespace {

// The plain loops of ReLU, Conv2d, MaxPool2d and Linear, kept as references
// the layers must match bit for bit: forward output, dL/d(input), and the
// dL/dW and dL/db added onto what the gradients already hold. Each keeps
// its own order of operations: one loop per pass, in the order listed.
namespace reference {

gt::Tensor linear_forward(const gt::Tensor& input, const gt::Tensor& weight,
                          const gt::Tensor& bias) {
  gt::Tensor out = gt::matmul_nt(input, weight);
  for (std::size_t i = 0; i < out.dim(0); ++i)
    for (std::size_t j = 0; j < out.dim(1); ++j) out.at(i, j) += bias[j];
  return out;
}

/// Adds dL/dW and dL/db; returns dL/d(input).
gt::Tensor linear_backward(const gt::Tensor& grad_output,
                           const gt::Tensor& input, const gt::Tensor& weight,
                           gt::Tensor& grad_weight, gt::Tensor& grad_bias) {
  grad_weight += gt::matmul_tn(grad_output, input);
  for (std::size_t i = 0; i < grad_output.dim(0); ++i)
    for (std::size_t j = 0; j < grad_output.dim(1); ++j)
      grad_bias[j] += grad_output.at(i, j);
  return gt::matmul(grad_output, weight);
}

gt::Tensor relu_forward(const gt::Tensor& input, gt::Tensor& mask) {
  mask = gt::Tensor::zeros(input.shape());
  gt::Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] > 0.0F) {
      mask[i] = 1.0F;
    } else {
      out[i] = 0.0F;
    }
  }
  return out;
}

gt::Tensor relu_backward(const gt::Tensor& grad_output,
                         const gt::Tensor& mask) {
  gt::Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= mask[i];
  return grad;
}

struct ConvGeometry {
  std::size_t kernel, stride, padding, oh, ow;
};

gt::Tensor im2col(const gt::Tensor& input, const ConvGeometry& g) {
  const std::size_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t row_len = c * g.kernel * g.kernel;
  gt::Tensor cols({b * g.oh * g.ow, row_len});
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        float* row = cols.data().data() + ((n * g.oh + oy) * g.ow + ox) * row_len;
        std::size_t idx = 0;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const long iy = long(oy * g.stride + ky) - long(g.padding);
            for (std::size_t kx = 0; kx < g.kernel; ++kx, ++idx) {
              const long ix = long(ox * g.stride + kx) - long(g.padding);
              if (iy < 0 || ix < 0 || iy >= long(h) || ix >= long(w)) {
                row[idx] = 0.0F;
              } else {
                row[idx] = input[((n * c + ch) * h + std::size_t(iy)) * w +
                                 std::size_t(ix)];
              }
            }
          }
        }
      }
    }
  }
  return cols;
}

void col2im(const gt::Tensor& cols, const ConvGeometry& g, gt::Tensor& image) {
  const std::size_t b = image.dim(0), c = image.dim(1), h = image.dim(2),
                    w = image.dim(3);
  const std::size_t row_len = c * g.kernel * g.kernel;
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t oy = 0; oy < g.oh; ++oy) {
      for (std::size_t ox = 0; ox < g.ow; ++ox) {
        const float* row =
            cols.data().data() + ((n * g.oh + oy) * g.ow + ox) * row_len;
        std::size_t idx = 0;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            const long iy = long(oy * g.stride + ky) - long(g.padding);
            for (std::size_t kx = 0; kx < g.kernel; ++kx, ++idx) {
              const long ix = long(ox * g.stride + kx) - long(g.padding);
              if (iy >= 0 && ix >= 0 && iy < long(h) && ix < long(w)) {
                image[((n * c + ch) * h + std::size_t(iy)) * w +
                      std::size_t(ix)] += row[idx];
              }
            }
          }
        }
      }
    }
  }
}

gt::Tensor conv_forward(const gt::Tensor& input, const gt::Tensor& weight,
                        const gt::Tensor& bias, const ConvGeometry& g,
                        gt::Tensor& cols) {
  const std::size_t b = input.dim(0), out_ch = weight.dim(0);
  cols = im2col(input, g);
  gt::Tensor prod = gt::matmul_nt(cols, weight);
  for (std::size_t r = 0; r < prod.dim(0); ++r)
    for (std::size_t ch = 0; ch < out_ch; ++ch) prod.at(r, ch) += bias[ch];
  gt::Tensor out({b, out_ch, g.oh, g.ow});
  for (std::size_t n = 0; n < b; ++n)
    for (std::size_t oy = 0; oy < g.oh; ++oy)
      for (std::size_t ox = 0; ox < g.ow; ++ox)
        for (std::size_t ch = 0; ch < out_ch; ++ch)
          out[((n * out_ch + ch) * g.oh + oy) * g.ow + ox] =
              prod.at((n * g.oh + oy) * g.ow + ox, ch);
  return out;
}

/// Adds dL/dW and dL/db; returns dL/d(input).
gt::Tensor conv_backward(const gt::Tensor& grad_output, const gt::Tensor& cols,
                         const gt::Tensor& weight,
                         const gt::Shape& input_shape, const ConvGeometry& g,
                         gt::Tensor& grad_weight, gt::Tensor& grad_bias) {
  const std::size_t b = input_shape[0], out_ch = weight.dim(0);
  gt::Tensor grad_rows({b * g.oh * g.ow, out_ch});
  for (std::size_t n = 0; n < b; ++n)
    for (std::size_t oy = 0; oy < g.oh; ++oy)
      for (std::size_t ox = 0; ox < g.ow; ++ox)
        for (std::size_t ch = 0; ch < out_ch; ++ch)
          grad_rows.at((n * g.oh + oy) * g.ow + ox, ch) =
              grad_output[((n * out_ch + ch) * g.oh + oy) * g.ow + ox];
  grad_weight += gt::matmul_tn(grad_rows, cols);
  for (std::size_t r = 0; r < grad_rows.dim(0); ++r)
    for (std::size_t ch = 0; ch < out_ch; ++ch)
      grad_bias[ch] += grad_rows.at(r, ch);
  const gt::Tensor grad_cols = gt::matmul(grad_rows, weight);
  gt::Tensor grad_input(input_shape);
  col2im(grad_cols, g, grad_input);
  return grad_input;
}

gt::Tensor maxpool_forward(const gt::Tensor& input, std::size_t kernel,
                           std::size_t stride,
                           std::vector<std::size_t>& argmax) {
  const std::size_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = (h - kernel) / stride + 1;
  const std::size_t ow = (w - kernel) / stride + 1;
  gt::Tensor out({b, c, oh, ow});
  argmax.assign(out.numel(), 0);
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t plane = (n * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = plane + oy * stride * w + ox * stride;
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            for (std::size_t kx = 0; kx < kernel; ++kx) {
              const std::size_t iy = oy * stride + ky;
              const std::size_t ix = ox * stride + kx;
              const float v = input[plane + iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane + iy * w + ix;
              }
            }
          }
          const std::size_t o = ((n * c + ch) * oh + oy) * ow + ox;
          out[o] = best;
          argmax[o] = best_idx;
        }
      }
    }
  }
  return out;
}

gt::Tensor maxpool_backward(const gt::Tensor& grad_output,
                            const gt::Shape& input_shape,
                            const std::vector<std::size_t>& argmax) {
  gt::Tensor grad_input(input_shape);
  for (std::size_t o = 0; o < grad_output.numel(); ++o)
    grad_input[argmax[o]] += grad_output[o];
  return grad_input;
}

}  // namespace reference

/// Entries over 2^-8..2^8 in magnitude, both signs, about a tenth of them
/// zero, so float sums depend on the order of their additions. With
/// `special_rate` > 0, that share of entries is -0, +inf, -inf or NaN.
gt::Tensor layer_input(const gt::Shape& shape, gt::Rng& rng,
                       double special_rate) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0F, inf, -inf,
                            std::numeric_limits<float>::quiet_NaN()};
  gt::Tensor t(shape);
  for (float& v : t.data()) {
    if (rng.bernoulli(special_rate)) {
      v = specials[rng.index(4)];
    } else {
      v = rng.bernoulli(0.1) ? 0.0F
                             : std::ldexp(rng.normal(), int(rng.index(17)) - 8);
    }
  }
  return t;
}

/// Finite operands give memcmp-equal results. Where the reference holds a
/// NaN, only the NaN's sign and payload may differ; every other bit may not.
void expect_same_bits(const gt::Tensor& got, const gt::Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    const bool same =
        std::isnan(want[i])
            ? std::isnan(got[i])
            : std::bit_cast<std::uint32_t>(got[i]) ==
                  std::bit_cast<std::uint32_t>(want[i]);
    if (!same) {
      ADD_FAILURE() << what << ": entry " << i << " is " << got[i]
                    << ", the reference has " << want[i];
      return;
    }
  }
}

/// Gives a layer's parameters and accumulated gradients random values and
/// returns copies of them: {weight, bias, grad_weight, grad_bias}.
std::vector<gt::Tensor> seed_params(nn::Module& layer, gt::Rng& rng) {
  std::vector<gt::Tensor> copies;
  for (const nn::Param& p : layer.params()) {
    *p.value = layer_input(p.value->shape(), rng, 0.0);
    copies.push_back(*p.value);
  }
  for (const nn::Param& p : layer.params()) {
    *p.grad = layer_input(p.grad->shape(), rng, 0.0);
    copies.push_back(*p.grad);
  }
  return copies;
}

void copy_params(nn::Module& from, nn::Module& to) {
  const std::vector<nn::Param> src = from.params(), dst = to.params();
  for (std::size_t i = 0; i < src.size(); ++i) {
    *dst[i].value = *src[i].value;
    *dst[i].grad = *src[i].grad;
  }
}

/// Rounds of one layer object: finite operands, then operands with
/// specials, then finite again at another batch size, so buffers a layer
/// keeps between calls are reused and reallocated.
struct Round {
  std::size_t batch;
  double special_rate;
};
const Round kRounds[] = {{16, 0.0}, {16, 1.0 / 256}, {3, 0.0}, {16, 0.0}};

std::string round_name(const std::string& layer, const Round& r) {
  return layer + " batch " + std::to_string(r.batch) +
         (r.special_rate > 0 ? " with specials" : "");
}

}  // namespace

TEST(LayerReference, ReluMatchesReferenceLoops) {
  gt::Rng rng(40);
  nn::ReLU relu;
  // One layer across shapes: its mask is reused and reallocated.
  for (const gt::Shape& shape :
       {gt::Shape{16, 16, 16, 16}, gt::Shape{16, 32, 8, 8},
        gt::Shape{16, 32, 8, 8}, gt::Shape{16, 128}, gt::Shape{3, 5, 7}}) {
    for (const double special_rate : {0.0, 1.0 / 16}) {
      const std::string what =
          "relu " + gt::shape_to_string(shape) +
          (special_rate > 0 ? " with specials" : "");
      const gt::Tensor x = layer_input(shape, rng, special_rate);
      const gt::Tensor g = layer_input(shape, rng, special_rate);
      gt::Tensor mask;
      expect_same_bits(relu.forward(x, true),
                       reference::relu_forward(x, mask), what + " forward");
      expect_same_bits(relu.backward(g), reference::relu_backward(g, mask),
                       what + " backward");
    }
  }
}

TEST(LayerReference, Conv2dMatchesReferenceLoops) {
  struct Case {
    std::size_t in_ch, out_ch, h, w, kernel, stride, padding;
  };
  // CifarNet's two convolutions, then strided ones on an odd image, without
  // and with padding.
  const Case cases[] = {{3, 16, 16, 16, 3, 1, 1},
                        {16, 32, 8, 8, 3, 1, 1},
                        {2, 3, 7, 5, 3, 2, 0},
                        {2, 3, 7, 5, 3, 2, 1}};
  gt::Rng rng(41);
  for (const Case& c : cases) {
    nn::Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
    nn::Conv2d twin(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
    const reference::ConvGeometry geo{
        c.kernel, c.stride, c.padding,
        (c.h + 2 * c.padding - c.kernel) / c.stride + 1,
        (c.w + 2 * c.padding - c.kernel) / c.stride + 1};
    for (const Round& r : kRounds) {
      const std::string what =
          round_name("conv " + std::to_string(c.in_ch) + "->" +
                         std::to_string(c.out_ch) + " at " +
                         std::to_string(c.h) + "x" + std::to_string(c.w) +
                         " stride " + std::to_string(c.stride) + " padding " +
                         std::to_string(c.padding),
                     r);
      std::vector<gt::Tensor> want = seed_params(conv, rng);
      copy_params(conv, twin);
      const gt::Tensor x =
          layer_input({r.batch, c.in_ch, c.h, c.w}, rng, r.special_rate);
      const gt::Tensor g = layer_input({r.batch, c.out_ch, geo.oh, geo.ow},
                                       rng, r.special_rate);
      gt::Tensor cols;
      expect_same_bits(conv.forward(x, true),
                       reference::conv_forward(x, want[0], want[1], geo, cols),
                       what + " forward");
      const gt::Tensor want_gx = reference::conv_backward(
          g, cols, want[0], x.shape(), geo, want[2], want[3]);
      expect_same_bits(conv.backward(g), want_gx, what + " dL/dx");
      (void)twin.forward(x, true);
      twin.backward_params(g);
      for (nn::Module* layer : {static_cast<nn::Module*>(&conv),
                                static_cast<nn::Module*>(&twin)}) {
        const std::vector<nn::Param> p = layer->params();
        expect_same_bits(*p[0].grad, want[2], what + " dL/dW");
        expect_same_bits(*p[1].grad, want[3], what + " dL/db");
      }
    }
  }
}

TEST(LayerReference, MaxPool2dMatchesReferenceLoops) {
  struct Case {
    std::size_t ch, h, w, kernel, stride;
  };
  // CifarNet's two poolings, then windows that leave rows and columns out
  // and windows that overlap, on an odd image.
  const Case cases[] = {{16, 16, 16, 2, 2},
                        {32, 8, 8, 2, 2},
                        {3, 7, 5, 2, 2},
                        {3, 7, 5, 3, 2}};
  gt::Rng rng(42);
  for (const Case& c : cases) {
    nn::MaxPool2d pool(c.kernel, c.stride);
    const std::size_t oh = (c.h - c.kernel) / c.stride + 1;
    const std::size_t ow = (c.w - c.kernel) / c.stride + 1;
    for (const Round& r : kRounds) {
      const std::string what = round_name(
          "pool " + std::to_string(c.kernel) + "/" + std::to_string(c.stride) +
              " of " + std::to_string(c.ch) + "x" + std::to_string(c.h) +
              "x" + std::to_string(c.w),
          r);
      gt::Tensor x = layer_input({r.batch, c.ch, c.h, c.w}, rng,
                                 16 * r.special_rate);
      if (r.special_rate > 0) {
        // One window of NaN only: its gradient goes to its first element.
        const std::size_t plane = (1 * c.ch + 1) * c.h * c.w;
        for (std::size_t ky = 0; ky < c.kernel; ++ky)
          for (std::size_t kx = 0; kx < c.kernel; ++kx)
            x[plane + (c.stride + ky) * c.w + c.stride + kx] =
                std::numeric_limits<float>::quiet_NaN();
      }
      const gt::Tensor g =
          layer_input({r.batch, c.ch, oh, ow}, rng, r.special_rate);
      std::vector<std::size_t> argmax;
      expect_same_bits(pool.forward(x, true),
                       reference::maxpool_forward(x, c.kernel, c.stride,
                                                  argmax),
                       what + " forward");
      expect_same_bits(pool.backward(g),
                       reference::maxpool_backward(g, x.shape(), argmax),
                       what + " backward");
    }
  }
}

TEST(LayerReference, LinearMatchesReferenceLoops) {
  gt::Rng rng(43);
  // CifarNet's two Linear layers.
  const std::pair<std::size_t, std::size_t> shapes[] = {{512, 128}, {128, 10}};
  for (const auto& [in, out] : shapes) {
    nn::Linear linear(in, out, rng);
    nn::Linear twin(in, out, rng);
    for (const Round& r : kRounds) {
      const std::string what = round_name(
          "linear " + std::to_string(in) + "->" + std::to_string(out), r);
      std::vector<gt::Tensor> want = seed_params(linear, rng);
      copy_params(linear, twin);
      const gt::Tensor x = layer_input({r.batch, in}, rng, r.special_rate);
      const gt::Tensor g = layer_input({r.batch, out}, rng, r.special_rate);
      expect_same_bits(linear.forward(x, true),
                       reference::linear_forward(x, want[0], want[1]),
                       what + " forward");
      const gt::Tensor want_gx =
          reference::linear_backward(g, x, want[0], want[2], want[3]);
      expect_same_bits(linear.backward(g), want_gx, what + " dL/dx");
      (void)twin.forward(x, true);
      twin.backward_params(g);
      for (nn::Module* layer : {static_cast<nn::Module*>(&linear),
                                static_cast<nn::Module*>(&twin)}) {
        const std::vector<nn::Param> p = layer->params();
        expect_same_bits(*p[0].grad, want[2], what + " dL/dW");
        expect_same_bits(*p[1].grad, want[3], what + " dL/db");
      }
    }
  }
}

// ------------------------------------------------------------------ loss

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  nn::SoftmaxCrossEntropy loss;
  gt::Tensor logits({2, 4});  // zeros
  nn::LossResult r = loss.compute(logits, {0, 3});
  EXPECT_NEAR(r.value, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  nn::SoftmaxCrossEntropy loss;
  gt::Rng rng(6);
  gt::Tensor logits = gt::Tensor::randn({3, 5}, rng);
  nn::LossResult r = loss.compute(logits, {1, 2, 4});
  for (std::size_t i = 0; i < 3; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 5; ++j) row += r.grad.at(i, j);
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, PerfectPredictionLowLoss) {
  nn::SoftmaxCrossEntropy loss;
  gt::Tensor logits({1, 3}, std::vector<float>{100.0F, 0.0F, 0.0F});
  nn::LossResult r = loss.compute(logits, {0});
  EXPECT_LT(r.value, 1e-6);
}

TEST(MeanSquaredError, ValueAndGradient) {
  nn::MeanSquaredError mse;
  gt::Tensor out({2}, std::vector<float>{1, 3});
  gt::Tensor target({2}, std::vector<float>{0, 0});
  nn::LossResult r = mse.compute(out, target);
  EXPECT_DOUBLE_EQ(r.value, 5.0);  // (1 + 9) / 2
  EXPECT_FLOAT_EQ(r.grad[0], 1.0F);   // 2*1/2
  EXPECT_FLOAT_EQ(r.grad[1], 3.0F);   // 2*3/2
}

TEST(PredictClasses, PicksArgmaxRows) {
  gt::Tensor logits({2, 3}, std::vector<float>{0, 5, 1, 9, 2, 3});
  auto preds = nn::predict_classes(logits);
  EXPECT_EQ(preds[0], 1u);
  EXPECT_EQ(preds[1], 0u);
}

// ----------------------------------------------------------- grad checks

TEST(GradCheck, LinearSoftmaxModel) {
  gt::Rng rng(7);
  auto model = tiny_linear_model(rng);
  gt::Tensor x = gt::Tensor::randn({4, 6}, rng);
  check_model_gradient(*model, x, {0, 1, 2, 3}, 2e-3);
}

TEST(GradCheck, MlpWithReluAndTanh) {
  gt::Rng rng(8);
  auto net = std::make_unique<nn::Sequential>();
  net->push(std::make_unique<nn::Linear>(5, 7, rng));
  net->push(std::make_unique<nn::ReLU>());
  net->push(std::make_unique<nn::Linear>(7, 6, rng));
  net->push(std::make_unique<nn::Tanh>());
  net->push(std::make_unique<nn::Linear>(6, 4, rng));
  nn::Model model("mlp", std::move(net), {5}, 4);
  gt::Tensor x = gt::Tensor::randn({3, 5}, rng);
  check_model_gradient(model, x, {0, 1, 3}, 2e-3);
}

TEST(GradCheck, ConvPoolModel) {
  gt::Rng rng(9);
  auto net = std::make_unique<nn::Sequential>();
  net->push(std::make_unique<nn::Conv2d>(1, 3, 3, 1, 1, rng));
  net->push(std::make_unique<nn::ReLU>());
  net->push(std::make_unique<nn::MaxPool2d>(2, 2));
  net->push(std::make_unique<nn::Flatten>());
  net->push(std::make_unique<nn::Linear>(3 * 3 * 3, 4, rng));
  nn::Model model("cnn", std::move(net), {1, 6, 6}, 4);
  gt::Tensor x = gt::Tensor::randn({2, 1, 6, 6}, rng);
  check_model_gradient(model, x, {0, 2}, 3e-3);
}

// ------------------------------------------------------------------ model

TEST(Model, ParameterRoundTrip) {
  gt::Rng rng(10);
  auto model = tiny_linear_model(rng);
  gt::FlatVector params = model->parameters();
  EXPECT_EQ(params.size(), model->dimension());
  // Scramble, write back, read again.
  for (float& v : params) v += 1.0F;
  model->set_parameters(params);
  gt::FlatVector again = model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_EQ(params[i], again[i]);
}

TEST(Model, SetParametersRejectsWrongSize) {
  gt::Rng rng(10);
  auto model = tiny_linear_model(rng);
  gt::FlatVector bad(model->dimension() + 1, 0.0F);
  EXPECT_THROW(model->set_parameters(bad), std::invalid_argument);
}

TEST(Model, GradientLeavesParametersUntouched) {
  gt::Rng rng(12);
  auto model = tiny_linear_model(rng);
  gt::FlatVector before = model->parameters();
  gt::Tensor x = gt::Tensor::randn({2, 6}, rng);
  (void)model->gradient(x, {0, 1});
  gt::FlatVector after = model->parameters();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]);
}

TEST(Model, GradientIsDeterministic) {
  gt::Rng rng(13);
  auto model = tiny_linear_model(rng);
  gt::Tensor x = gt::Tensor::randn({2, 6}, rng);
  auto g1 = model->gradient(x, {0, 1});
  auto g2 = model->gradient(x, {0, 1});
  EXPECT_EQ(g1.loss, g2.loss);
  for (std::size_t i = 0; i < g1.gradient.size(); ++i)
    EXPECT_EQ(g1.gradient[i], g2.gradient[i]);
}

TEST(Model, AccuracyBounds) {
  gt::Rng rng(14);
  auto model = tiny_linear_model(rng);
  gt::Tensor x = gt::Tensor::randn({8, 6}, rng);
  const double acc = model->accuracy(x, {0, 1, 2, 3, 4, 0, 1, 2});
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

// -------------------------------------------------------------- optimizer

TEST(Optimizer, PlainSgdStep) {
  nn::SgdOptimizer opt({.lr = {.gamma0 = 0.5F}});
  gt::FlatVector params{1.0F, 2.0F};
  gt::FlatVector grad{2.0F, -2.0F};
  opt.step(params, grad, 0);
  EXPECT_FLOAT_EQ(params[0], 0.0F);
  EXPECT_FLOAT_EQ(params[1], 3.0F);
}

TEST(Optimizer, LrDecaySchedule) {
  nn::LrSchedule sched{.gamma0 = 1.0F, .decay_steps = 10.0F};
  EXPECT_FLOAT_EQ(sched.at(0), 1.0F);
  EXPECT_FLOAT_EQ(sched.at(10), 0.5F);
  EXPECT_FLOAT_EQ(sched.at(30), 0.25F);
}

TEST(Optimizer, MomentumAccumulates) {
  nn::SgdOptimizer opt({.lr = {.gamma0 = 1.0F}, .momentum = 0.9F});
  gt::FlatVector params{0.0F};
  gt::FlatVector grad{1.0F};
  opt.step(params, grad, 0);  // v=1, p=-1
  EXPECT_FLOAT_EQ(params[0], -1.0F);
  opt.step(params, grad, 1);  // v=1.9, p=-2.9
  EXPECT_FLOAT_EQ(params[0], -2.9F);
}

TEST(Optimizer, WeightDecayPullsTowardZero) {
  nn::SgdOptimizer opt({.lr = {.gamma0 = 0.1F}, .weight_decay = 1.0F});
  gt::FlatVector params{10.0F};
  gt::FlatVector grad{0.0F};
  opt.step(params, grad, 0);
  EXPECT_FLOAT_EQ(params[0], 9.0F);
}

TEST(Optimizer, ResetClearsVelocity) {
  nn::SgdOptimizer opt({.lr = {.gamma0 = 1.0F}, .momentum = 0.9F});
  gt::FlatVector params{0.0F};
  gt::FlatVector grad{1.0F};
  opt.step(params, grad, 0);
  opt.reset();
  opt.step(params, grad, 1);
  EXPECT_FLOAT_EQ(params[0], -2.0F);  // no accumulated velocity
}

TEST(GradCheck, ResidualBlock) {
  gt::Rng rng(15);
  auto inner = std::make_unique<nn::Sequential>();
  inner->push(std::make_unique<nn::Linear>(6, 6, rng));
  inner->push(std::make_unique<nn::Tanh>());
  auto net = std::make_unique<nn::Sequential>();
  net->push(std::make_unique<nn::Residual>(std::move(inner)));
  net->push(std::make_unique<nn::Linear>(6, 4, rng));
  nn::Model model("res", std::move(net), {6}, 4);
  gt::Tensor x = gt::Tensor::randn({3, 6}, rng);
  check_model_gradient(model, x, {0, 1, 3}, 2e-3);
}

TEST(GradCheck, ChannelConcatBranches) {
  gt::Rng rng(16);
  std::vector<nn::ModulePtr> branches;
  auto b1 = std::make_unique<nn::Sequential>();
  b1->push(std::make_unique<nn::Conv2d>(2, 2, 1, 1, 0, rng));
  branches.push_back(std::move(b1));
  auto b2 = std::make_unique<nn::Sequential>();
  b2->push(std::make_unique<nn::Conv2d>(2, 3, 3, 1, 1, rng));
  b2->push(std::make_unique<nn::ReLU>());
  branches.push_back(std::move(b2));
  auto net = std::make_unique<nn::Sequential>();
  net->push(std::make_unique<nn::ChannelConcat>(std::move(branches)));
  net->push(std::make_unique<nn::Flatten>());
  net->push(std::make_unique<nn::Linear>(5 * 4 * 4, 3, rng));
  nn::Model model("inc", std::move(net), {2, 4, 4}, 3);
  gt::Tensor x = gt::Tensor::randn({2, 2, 4, 4}, rng);
  check_model_gradient(model, x, {0, 2}, 3e-3);
}

TEST(Residual, ForwardAddsSkipPath) {
  gt::Rng rng(17);
  // Inner = Linear initialized to zero weights => y must equal x.
  auto inner = std::make_unique<nn::Linear>(4, 4, rng);
  auto params = inner->params();
  params[0].value->zero();
  params[1].value->zero();
  nn::Residual res(std::move(inner));
  gt::Tensor x = gt::Tensor::randn({2, 4}, rng);
  gt::Tensor y = res.forward(x, true);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(ChannelConcat, OutputChannelLayout) {
  gt::Rng rng(18);
  std::vector<nn::ModulePtr> branches;
  branches.push_back(std::make_unique<nn::Conv2d>(1, 2, 1, 1, 0, rng));
  branches.push_back(std::make_unique<nn::Conv2d>(1, 3, 1, 1, 0, rng));
  nn::ChannelConcat concat(std::move(branches));
  gt::Tensor x = gt::Tensor::randn({2, 1, 3, 3}, rng);
  gt::Tensor y = concat.forward(x, true);
  EXPECT_EQ(y.shape(), (gt::Shape{2, 5, 3, 3}));
}

// ------------------------------------------------------------------- zoo

TEST(Zoo, AllModelsConstructAndTrainOneStep) {
  for (const std::string& name : nn::model_names()) {
    gt::Rng rng(20);
    nn::ModelPtr model = nn::make_model(name, rng);
    EXPECT_GT(model->dimension(), 0u) << name;
    gt::Shape batch_shape = model->input_shape();
    batch_shape.insert(batch_shape.begin(), 2);
    gt::Tensor x = gt::Tensor::randn(batch_shape, rng);
    auto g = model->gradient(x, {0, 1});
    EXPECT_EQ(g.gradient.size(), model->dimension()) << name;
    EXPECT_TRUE(gt::all_finite(g.gradient)) << name;
  }
}

TEST(Zoo, GradientMatchesFullBackwardBitwise) {
  // Model::gradient never computes dL/d(input) of the first layer with
  // parameters (Module::backward_params); a full backward pass does. The
  // parameter gradients must not tell the two apart.
  for (const std::string& name : nn::model_names()) {
    gt::Rng rng(24), twin_rng(24);
    nn::ModelPtr model = nn::make_model(name, rng);
    nn::ModelPtr twin = nn::make_model(name, twin_rng);  // same dropout draws
    gt::Shape batch_shape = model->input_shape();
    batch_shape.insert(batch_shape.begin(), 16);
    const gt::Tensor x = gt::Tensor::randn(batch_shape, rng);
    std::vector<std::size_t> labels(16);
    for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
    const nn::GradientResult fast = model->gradient(x, labels);

    nn::Module& net = twin->net();
    const gt::Tensor logits = net.forward(x, /*train=*/true);
    const gt::Tensor grad_input =
        net.backward(nn::SoftmaxCrossEntropy().compute(logits, labels).grad);
    EXPECT_EQ(grad_input.shape(), x.shape()) << name;
    gt::FlatVector full;
    for (const nn::Param& p : net.params())
      full.insert(full.end(), p.grad->data().begin(), p.grad->data().end());
    ASSERT_EQ(fast.gradient.size(), full.size()) << name;
    EXPECT_EQ(std::memcmp(fast.gradient.data(), full.data(),
                          full.size() * sizeof(float)),
              0)
        << name;
  }
}

TEST(Zoo, UnknownNameThrows) {
  gt::Rng rng(21);
  EXPECT_THROW((void)nn::make_model("resnet-9000", rng),
               std::invalid_argument);
}

TEST(Zoo, IdenticalSeedsGiveIdenticalReplicas) {
  gt::Rng rng1(22), rng2(22);
  auto a = nn::make_model("small_mlp", rng1);
  auto b = nn::make_model("small_mlp", rng2);
  gt::FlatVector pa = a->parameters(), pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Zoo, TrainingReducesLossOnClusterData) {
  gt::Rng rng(23);
  auto model = nn::make_model("tiny_mlp", rng);
  auto full = gd::make_cluster_dataset({16}, 10, 640, rng, 0.8F);
  auto [train, test] = full.split(512);
  gd::BatchSampler sampler(train, 32, rng.fork(1));
  gt::FlatVector params = model->parameters();
  nn::SgdOptimizer opt({.lr = {.gamma0 = 0.1F}});
  const gd::Batch tb = test.all();
  model->set_parameters(params);
  const double loss_before = model->loss(tb.inputs, tb.labels);
  for (std::size_t it = 0; it < 150; ++it) {
    model->set_parameters(params);
    gd::Batch b = sampler.next();
    auto g = model->gradient(b.inputs, b.labels);
    opt.step(params, g.gradient, it);
  }
  model->set_parameters(params);
  const double loss_after = model->loss(tb.inputs, tb.labels);
  EXPECT_LT(loss_after, loss_before * 0.5);
  EXPECT_GT(model->accuracy(tb.inputs, tb.labels), 0.8);
}
