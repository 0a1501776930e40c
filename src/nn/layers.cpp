#include "nn/layers.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace garfield::nn {

using tensor::Shape;

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features,
               tensor::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::randn({out_features, in_features}, rng, 0.0F,
                            std::sqrt(2.0F / float(in_features)))),
      bias_(Tensor::zeros({out_features})),
      grad_weight_(Tensor::zeros({out_features, in_features})),
      grad_bias_(Tensor::zeros({out_features})) {}

Tensor Linear::forward(const Tensor& input, bool /*train*/) {
  assert(input.rank() == 2 && input.dim(1) == in_);
  input_cache_ = input;
  Tensor out = tensor::matmul_nt(input, weight_);  // {b,in} x {out,in}^T
  const float* bias = bias_.data().data();
  float* row = out.data().data();
  for (std::size_t i = 0; i < out.dim(0); ++i, row += out_)
    for (std::size_t j = 0; j < out_; ++j) row[j] += bias[j];
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // dX = dY @ W ({b,out} x {out,in})
  return tensor::matmul(grad_output, weight_);
}

void Linear::backward_params(const Tensor& grad_output) {
  assert(grad_output.rank() == 2 && grad_output.dim(1) == out_);
  // dW = dY^T @ X  ({out,b} x {b,in})
  grad_weight_ += tensor::matmul_tn(grad_output, input_cache_);
  float* grad_bias = grad_bias_.data().data();
  const float* row = grad_output.data().data();
  for (std::size_t i = 0; i < grad_output.dim(0); ++i, row += out_)
    for (std::size_t j = 0; j < out_; ++j) grad_bias[j] += row[j];
}

std::vector<Param> Linear::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

// ---------------------------------------------------------------- ReLU

namespace {

/// Gives `t` the shape `shape`, keeping its storage when the shape is
/// already that: for buffers whose every element the caller overwrites.
void reshape_for_overwrite(Tensor& t, const Shape& shape) {
  if (t.shape() != shape) t = Tensor(shape);
}

}  // namespace

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  reshape_for_overwrite(mask_, input.shape());
  Tensor out(input.shape());
  const float* in = input.data().data();
  float* o = out.data().data();
  float* mask = mask_.data().data();
  for (std::size_t i = 0; i < input.numel(); ++i) {
    // Selects, not a branch on the data's sign, which mispredicts. NaN
    // and -0 fail the test and give +0.
    const bool pass = in[i] > 0.0F;
    o[i] = pass ? in[i] : 0.0F;
    mask[i] = pass ? 1.0F : 0.0F;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  assert(grad_output.numel() == mask_.numel());
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= mask_[i];
  return grad;
}

// ---------------------------------------------------------------- Tanh

Tensor Tanh::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] = std::tanh(out[i]);
  output_cache_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i)
    grad[i] *= 1.0F - output_cache_[i] * output_cache_[i];
  return grad;
}

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               tensor::Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Tensor::randn(
          {out_channels, in_channels * kernel * kernel}, rng, 0.0F,
          std::sqrt(2.0F / float(in_channels * kernel * kernel)))),
      bias_(Tensor::zeros({out_channels})),
      grad_weight_(Tensor::zeros({out_channels, in_channels * kernel * kernel})),
      grad_bias_(Tensor::zeros({out_channels})) {}

namespace {

/// Whether the kernel window at output (oy, ox) lies inside the h x w
/// image; its top-left input pixel is (y0, x0) when it does.
bool window_inside(std::size_t oy, std::size_t ox, std::size_t kernel,
                   std::size_t stride, std::size_t padding, std::size_t h,
                   std::size_t w, std::size_t& y0, std::size_t& x0) {
  if (oy * stride < padding || ox * stride < padding) return false;
  y0 = oy * stride - padding;
  x0 = ox * stride - padding;
  return y0 + kernel <= h && x0 + kernel <= w;
}

// Expand {b, c, h, w} into columns {b*oh*ow, c*k*k}, zero padding, written
// over `cols`.
void im2col(const Tensor& input, std::size_t kernel, std::size_t stride,
            std::size_t padding, std::size_t oh, std::size_t ow,
            Tensor& cols) {
  const std::size_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t row_len = c * kernel * kernel;
  reshape_for_overwrite(cols, {b * oh * ow, row_len});
  const float* in = input.data().data();
  float* row = cols.data().data();
  for (std::size_t n = 0; n < b; ++n) {
    const float* image = in + n * c * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, row += row_len) {
        std::size_t y0 = 0, x0 = 0;
        if (window_inside(oy, ox, kernel, stride, padding, h, w, y0, x0)) {
          float* dst = row;
          for (std::size_t ch = 0; ch < c; ++ch)
            for (std::size_t ky = 0; ky < kernel; ++ky, dst += kernel)
              std::copy_n(image + (ch * h + y0 + ky) * w + x0, kernel, dst);
          continue;
        }
        std::size_t idx = 0;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            const long iy = long(oy * stride + ky) - long(padding);
            for (std::size_t kx = 0; kx < kernel; ++kx, ++idx) {
              const long ix = long(ox * stride + kx) - long(padding);
              if (iy < 0 || ix < 0 || iy >= long(h) || ix >= long(w)) {
                row[idx] = 0.0F;
              } else {
                row[idx] = image[(ch * h + std::size_t(iy)) * w +
                                 std::size_t(ix)];
              }
            }
          }
        }
      }
    }
  }
}

// Scatter-add columns back into an image (adjoint of im2col). Every pixel
// receives its adds in the order of the loops below, window by window.
void col2im(const Tensor& cols, std::size_t kernel, std::size_t stride,
            std::size_t padding, std::size_t oh, std::size_t ow,
            Tensor& image) {
  const std::size_t b = image.dim(0), c = image.dim(1), h = image.dim(2),
                    w = image.dim(3);
  const std::size_t row_len = c * kernel * kernel;
  const float* row = cols.data().data();
  for (std::size_t n = 0; n < b; ++n) {
    float* out = image.data().data() + n * c * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, row += row_len) {
        std::size_t y0 = 0, x0 = 0;
        if (window_inside(oy, ox, kernel, stride, padding, h, w, y0, x0)) {
          const float* src = row;
          for (std::size_t ch = 0; ch < c; ++ch) {
            for (std::size_t ky = 0; ky < kernel; ++ky, src += kernel) {
              float* dst = out + (ch * h + y0 + ky) * w + x0;
              for (std::size_t kx = 0; kx < kernel; ++kx) dst[kx] += src[kx];
            }
          }
          continue;
        }
        std::size_t idx = 0;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            const long iy = long(oy * stride + ky) - long(padding);
            for (std::size_t kx = 0; kx < kernel; ++kx, ++idx) {
              const long ix = long(ox * stride + kx) - long(padding);
              if (iy >= 0 && ix >= 0 && iy < long(h) && ix < long(w)) {
                out[(ch * h + std::size_t(iy)) * w + std::size_t(ix)] +=
                    row[idx];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  assert(input.rank() == 4 && input.dim(1) == in_ch_);
  input_shape_ = input.shape();
  const std::size_t b = input.dim(0);
  const std::size_t oh = out_size(input.dim(2));
  const std::size_t ow = out_size(input.dim(3));
  im2col(input, kernel_, stride_, padding_, oh, ow, cols_cache_);
  // {b*oh*ow, ckk} x {out_ch, ckk}^T -> {b*oh*ow, out_ch}
  const Tensor prod = tensor::matmul_nt(cols_cache_, weight_);
  // Rearrange {b*oh*ow, out_ch} -> {b, out_ch, oh, ow}, adding the bias.
  Tensor out({b, out_ch_, oh, ow});
  const std::size_t plane = oh * ow;
  const float* bias = bias_.data().data();
  for (std::size_t n = 0; n < b; ++n) {
    const float* rows = prod.data().data() + n * plane * out_ch_;
    float* o = out.data().data() + n * out_ch_ * plane;
    for (std::size_t ch = 0; ch < out_ch_; ++ch, o += plane)
      for (std::size_t s = 0; s < plane; ++s)
        o[s] = rows[s * out_ch_ + ch] + bias[ch];
  }
  return out;
}

Tensor Conv2d::accumulate_param_grads(const Tensor& grad_output) {
  const std::size_t b = input_shape_[0];
  const std::size_t plane = grad_output.dim(2) * grad_output.dim(3);
  // Back to {b*oh*ow, out_ch} layout. dL/db adds each channel's entries on
  // the way, in ascending row order.
  Tensor grad_rows({b * plane, out_ch_});
  float* grad_bias = grad_bias_.data().data();
  for (std::size_t n = 0; n < b; ++n) {
    const float* g = grad_output.data().data() + n * out_ch_ * plane;
    float* rows = grad_rows.data().data() + n * plane * out_ch_;
    for (std::size_t ch = 0; ch < out_ch_; ++ch, g += plane) {
      float sum = grad_bias[ch];
      for (std::size_t s = 0; s < plane; ++s) {
        rows[s * out_ch_ + ch] = g[s];
        sum += g[s];
      }
      grad_bias[ch] = sum;
    }
  }
  // dW = dY^T @ cols: {out_ch, b*oh*ow} x {b*oh*ow, ckk}.
  grad_weight_ += tensor::matmul_tn(grad_rows, cols_cache_);
  return grad_rows;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor grad_rows = accumulate_param_grads(grad_output);
  // dcols = dY @ W: {b*oh*ow, out_ch} x {out_ch, ckk}.
  Tensor grad_cols = tensor::matmul(grad_rows, weight_);
  Tensor grad_input(input_shape_);
  col2im(grad_cols, kernel_, stride_, padding_, grad_output.dim(2),
         grad_output.dim(3), grad_input);
  return grad_input;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  (void)accumulate_param_grads(grad_output);
}

std::vector<Param> Conv2d::params() {
  return {{&weight_, &grad_weight_}, {&bias_, &grad_bias_}};
}

// ---------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(std::size_t kernel, std::size_t stride)
    : kernel_(kernel), stride_(stride) {}

Tensor MaxPool2d::forward(const Tensor& input, bool /*train*/) {
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  const std::size_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = (h - kernel_) / stride_ + 1;
  const std::size_t ow = (w - kernel_) / stride_ + 1;
  Tensor out({b, c, oh, ow});
  argmax_.resize(out.numel());
  const float* in = input.data().data();
  float* o = out.data().data();
  std::size_t* arg = argmax_.data();
  for (std::size_t p = 0; p < b * c; ++p) {
    const std::size_t base = p * h * w;  // plane p = (n, ch)
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        // A window of only -inf or NaN keeps best = -inf and routes its
        // gradient to its own first element.
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = base + oy * stride_ * w + ox * stride_;
        for (std::size_t ky = 0; ky < kernel_; ++ky) {
          const std::size_t i0 = base + (oy * stride_ + ky) * w + ox * stride_;
          for (std::size_t kx = 0; kx < kernel_; ++kx) {
            // Selects, not a branch: the first strict maximum wins.
            const float v = in[i0 + kx];
            const bool better = v > best;
            best = better ? v : best;
            best_idx = better ? i0 + kx : best_idx;
          }
        }
        *o++ = best;
        *arg++ = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  float* gi = grad_input.data().data();
  const float* g = grad_output.data().data();
  for (std::size_t o = 0; o < grad_output.numel(); ++o) gi[argmax_[o]] += g[o];
  return grad_input;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  input_shape_ = input.shape();
  const std::size_t b = input.dim(0);
  return input.reshaped({b, input.numel() / b});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(double p, tensor::Rng& rng) : p_(p), rng_(rng.fork(0xd0)) {}

Tensor Dropout::forward(const Tensor& input, bool train) {
  if (!train || p_ <= 0.0) {
    mask_ = Tensor();
    return input;
  }
  mask_ = Tensor::zeros(input.shape());
  Tensor out = input;
  const float keep_scale = 1.0F / float(1.0 - p_);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (rng_.bernoulli(1.0 - p_)) {
      mask_[i] = keep_scale;
      out[i] *= keep_scale;
    } else {
      out[i] = 0.0F;
    }
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) return grad_output;
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= mask_[i];
  return grad;
}

// ---------------------------------------------------------------- Residual

Tensor Residual::forward(const Tensor& input, bool train) {
  Tensor out = inner_->forward(input, train);
  assert(out.shape() == input.shape());
  out += input;
  return out;
}

Tensor Residual::backward(const Tensor& grad_output) {
  Tensor grad = inner_->backward(grad_output);
  grad += grad_output;  // the skip path
  return grad;
}

// ------------------------------------------------------------ ChannelConcat

Tensor ChannelConcat::forward(const Tensor& input, bool train) {
  assert(input.rank() == 4);
  input_shape_ = input.shape();
  std::vector<Tensor> outputs;
  outputs.reserve(branches_.size());
  branch_channels_.clear();
  std::size_t total_channels = 0;
  for (ModulePtr& branch : branches_) {
    Tensor out = branch->forward(input, train);
    assert(out.rank() == 4 && out.dim(0) == input.dim(0));
    assert(outputs.empty() || (out.dim(2) == outputs[0].dim(2) &&
                               out.dim(3) == outputs[0].dim(3)));
    branch_channels_.push_back(out.dim(1));
    total_channels += out.dim(1);
    outputs.push_back(std::move(out));
  }
  const std::size_t b = input.dim(0);
  const std::size_t h = outputs[0].dim(2), w = outputs[0].dim(3);
  Tensor result({b, total_channels, h, w});
  for (std::size_t n = 0; n < b; ++n) {
    std::size_t channel_offset = 0;
    for (std::size_t k = 0; k < outputs.size(); ++k) {
      const Tensor& out = outputs[k];
      const std::size_t c = branch_channels_[k];
      std::copy(out.data().begin() + long(n * c * h * w),
                out.data().begin() + long((n + 1) * c * h * w),
                result.data().begin() +
                    long(((n * total_channels) + channel_offset) * h * w));
      channel_offset += c;
    }
  }
  return result;
}

Tensor ChannelConcat::backward(const Tensor& grad_output) {
  const std::size_t b = grad_output.dim(0);
  const std::size_t total_channels = grad_output.dim(1);
  const std::size_t h = grad_output.dim(2), w = grad_output.dim(3);
  Tensor grad_input(input_shape_);
  std::size_t channel_offset = 0;
  for (std::size_t k = 0; k < branches_.size(); ++k) {
    const std::size_t c = branch_channels_[k];
    Tensor branch_grad({b, c, h, w});
    for (std::size_t n = 0; n < b; ++n) {
      std::copy(grad_output.data().begin() +
                    long(((n * total_channels) + channel_offset) * h * w),
                grad_output.data().begin() +
                    long(((n * total_channels) + channel_offset + c) * h * w),
                branch_grad.data().begin() + long(n * c * h * w));
    }
    grad_input += branches_[k]->backward(branch_grad);
    channel_offset += c;
  }
  return grad_input;
}

std::vector<Param> ChannelConcat::params() {
  std::vector<Param> all;
  for (ModulePtr& branch : branches_) {
    std::vector<Param> p = branch->params();
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// ---------------------------------------------------------------- Sequential

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (ModulePtr& m : modules_) x = m->forward(x, train);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::backward_params(const Tensor& grad_output) {
  std::size_t first = 0;
  while (first < modules_.size() && modules_[first]->params().empty()) ++first;
  if (first == modules_.size()) return;
  Tensor g = grad_output;
  for (std::size_t i = modules_.size() - 1; i > first; --i)
    g = modules_[i]->backward(g);
  modules_[first]->backward_params(g);
}

std::vector<Param> Sequential::params() {
  std::vector<Param> all;
  for (ModulePtr& m : modules_) {
    std::vector<Param> p = m->params();
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

}  // namespace garfield::nn
