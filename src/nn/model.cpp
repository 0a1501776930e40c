#include "nn/model.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace garfield::nn {

Model::Model(std::string name, ModulePtr net, tensor::Shape input_shape,
             std::size_t num_classes)
    : name_(std::move(name)),
      net_(std::move(net)),
      input_shape_(std::move(input_shape)),
      num_classes_(num_classes),
      params_(net_->params()) {
  for (const Param& p : params_) dimension_ += p.value->numel();
}

FlatVector Model::parameters() const {
  FlatVector flat;
  flat.reserve(dimension_);
  for (const Param& p : params_) {
    std::span<const float> v = p.value->data();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

void Model::set_parameters(std::span<const float> flat) {
  if (flat.size() != dimension_) {
    throw std::invalid_argument("Model::set_parameters: expected " +
                                std::to_string(dimension_) + " values, got " +
                                std::to_string(flat.size()));
  }
  std::size_t offset = 0;
  for (const Param& p : params_) {
    std::span<float> v = p.value->data();
    std::copy(flat.begin() + long(offset), flat.begin() + long(offset + v.size()),
              v.begin());
    offset += v.size();
  }
}

void Model::zero_grad() {
  for (const Param& p : params_) p.grad->zero();
}

GradientResult Model::gradient(const Tensor& inputs,
                               const std::vector<std::size_t>& labels) {
  GradientResult result;
  result.loss = gradient_into(inputs, labels, result.gradient);
  return result;
}

double Model::gradient_into(const Tensor& inputs,
                            const std::vector<std::size_t>& labels,
                            FlatVector& out) {
  zero_grad();
  const Tensor logits = net_->forward(inputs, /*train=*/true);
  LossResult loss = loss_fn_.compute(logits, labels);
  // dL/d(inputs) would be a gradient on the data batch: never computed.
  net_->backward_params(loss.grad);
  out.resize(dimension_);
  float* next = out.data();
  for (const Param& p : params_) {
    std::span<const float> g = p.grad->data();
    next = std::copy(g.begin(), g.end(), next);
  }
  zero_grad();
  return loss.value;
}

double Model::loss(const Tensor& inputs,
                   const std::vector<std::size_t>& labels) {
  const Tensor logits = net_->forward(inputs, /*train=*/false);
  return loss_fn_.compute(logits, labels).value;
}

double Model::accuracy(const Tensor& inputs,
                       const std::vector<std::size_t>& labels) {
  assert(inputs.dim(0) == labels.size());
  const Tensor logits = net_->forward(inputs, /*train=*/false);
  const std::vector<std::size_t> preds = predict_classes(logits);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i)
    if (preds[i] == labels[i]) ++correct;
  return labels.empty() ? 0.0 : double(correct) / double(labels.size());
}

}  // namespace garfield::nn
