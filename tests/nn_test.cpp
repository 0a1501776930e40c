// Unit tests for garfield::nn — layers (with numerical gradient checks),
// losses, optimizer, Model flattening and the model zoo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

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
