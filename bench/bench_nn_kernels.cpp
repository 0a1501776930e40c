// nn forward/backward per zoo model, and the matmul kernels underneath.
//
// Prints the SIMD path the host picked for matmul_nt and the distance matrix
// (baseline or avx2), then, each as the median of the timed runs after
// warm-up runs:
//   (a) forward and backward us of every zoo model at batch 16. Backward is
//       Module::backward_params, the pass Model::gradient runs;
//   (b) us and GFLOP/s of matmul_nt (forward), matmul (input gradient) and
//       matmul_tn (weight gradient) on every GEMM those models run, with
//       dense N(0,1) operands, and beside matmul_nt's the us of its
//       baseline path, which hosts without AVX2 run.
// The GEMM table's n and k are checked against each model's weight shapes,
// so the table cannot drift from the zoo unnoticed. GARFIELD_BENCH_SMOKE=1
// cuts the runs to a few.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "tensor/tensor.h"

namespace gn = garfield::nn;
namespace gt = garfield::tensor;

namespace {

constexpr std::size_t kBatch = 16;

/// One layer's GEMM at batch 16: forward {m,k} x {n,k}^T. Linear(in, out)
/// is {16, in, out}; Conv2d is {16*oh*ow, in_ch*kernel^2, out_ch}.
struct Gemm {
  std::size_t m, k, n;
};

/// Every zoo model's GEMMs, in the order of its weights.
const std::vector<std::pair<std::string, std::vector<Gemm>>> kZooGemms = {
    {"tiny_mlp", {{16, 16, 32}, {16, 32, 10}}},
    {"small_mlp", {{16, 64, 128}, {16, 128, 64}, {16, 64, 10}}},
    {"mnist_cnn", {{4096, 9, 8}, {1024, 72, 16}, {16, 256, 64}, {16, 64, 10}}},
    {"cifarnet",
     {{4096, 27, 16}, {1024, 144, 32}, {16, 512, 128}, {16, 128, 10}}},
    {"resnet_mini",
     {{4096, 27, 8}, {4096, 72, 8}, {4096, 72, 8}, {1024, 72, 8},
      {1024, 72, 8}, {16, 128, 10}}},
    {"inception_mini",
     {{4096, 27, 8}, {1024, 8, 4}, {1024, 8, 4}, {1024, 36, 8}, {1024, 8, 2},
      {1024, 18, 4}, {1024, 36, 4}, {16, 256, 10}}},
    {"vgg_mini",
     {{4096, 27, 8}, {4096, 72, 8}, {1024, 72, 16}, {1024, 144, 16},
      {16, 256, 256}, {16, 256, 10}}},
};

std::size_t warmup_runs() { return garfield::bench::smoke_mode() ? 1 : 5; }
std::size_t timed_runs() { return garfield::bench::smoke_mode() ? 3 : 41; }

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median us of fn() over the timed runs.
template <class Fn>
double median_us(Fn&& fn) {
  for (std::size_t i = 0; i < warmup_runs(); ++i) fn();
  std::vector<double> us;
  for (std::size_t i = 0; i < timed_runs(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    us.push_back(elapsed_us(start));
  }
  return median(us);
}

/// The table's (n, k) must be the model's weight shapes, in order.
bool table_matches_zoo(gn::Model& model, const std::vector<Gemm>& gemms) {
  std::vector<Gemm> weights;
  for (const gn::Param& p : model.net().params()) {
    if (p.value->rank() == 2) {
      weights.push_back({0, p.value->dim(1), p.value->dim(0)});
    }
  }
  return weights.size() == gemms.size() &&
         std::equal(weights.begin(), weights.end(), gemms.begin(),
                    [](const Gemm& w, const Gemm& g) {
                      return w.k == g.k && w.n == g.n;
                    });
}

/// Forward and backward us of one model: medians of the same runs.
std::pair<double, double> time_model(gn::Model& model) {
  gt::Rng rng(1);
  gt::Shape shape = model.input_shape();
  shape.insert(shape.begin(), kBatch);
  const gt::Tensor x = gt::Tensor::randn(shape, rng);
  std::vector<std::size_t> labels(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) labels[i] = i % model.num_classes();
  gn::Module& net = model.net();
  std::vector<double> forward_us, backward_us;
  const std::size_t runs = warmup_runs() + timed_runs();
  for (std::size_t i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    const gt::Tensor logits = net.forward(x, /*train=*/true);
    const double forward = elapsed_us(start);
    const gn::LossResult loss =
        gn::SoftmaxCrossEntropy().compute(logits, labels);
    start = std::chrono::steady_clock::now();
    net.backward_params(loss.grad);
    const double backward = elapsed_us(start);
    for (const gn::Param& p : net.params()) p.grad->zero();
    if (i < warmup_runs()) continue;
    forward_us.push_back(forward);
    backward_us.push_back(backward);
  }
  return {median(forward_us), median(backward_us)};
}

}  // namespace

int main() {
  std::printf("nn kernels at batch %zu: median of %zu runs after %zu warm-up "
              "runs, SIMD path %s\n\n",
              kBatch, timed_runs(), warmup_runs(),
              gt::detail::path_name(gt::detail::simd_path()));
  std::printf("%-15s %12s %12s\n", "model", "forward_us", "backward_us");
  for (const auto& [name, gemms] : kZooGemms) {
    gt::Rng rng(1);
    const gn::ModelPtr model = gn::make_model(name, rng);
    if (!table_matches_zoo(*model, gemms)) {
      std::fprintf(stderr, "GEMM table of %s does not match its weights\n",
                   name.c_str());
      return 1;
    }
    const auto [forward, backward] = time_model(*model);
    std::printf("%-15s %12.1f %12.1f\n", name.c_str(), forward, backward);
  }

  std::printf("\nGEMMs: forward {m,k}x{n,k}^T (matmul_nt; ntb_us on its "
              "baseline path), input\ngradient {m,n}x{n,k} (matmul), weight "
              "gradient {m,n}^Tx{m,k} (matmul_tn);\nus and GFLOP/s = 2mkn / "
              "time\n");
  std::printf("%-15s %5s %4s %4s %9s %7s %9s %9s %7s %9s %7s\n", "model", "m",
              "k", "n", "nt_us", "nt_GF", "ntb_us", "mm_us", "mm_GF", "tn_us",
              "tn_GF");
  for (const auto& [name, gemms] : kZooGemms) {
    for (const Gemm& g : gemms) {
      gt::Rng rng(2);
      const gt::Tensor x = gt::Tensor::randn({g.m, g.k}, rng);
      const gt::Tensor w = gt::Tensor::randn({g.n, g.k}, rng);
      const gt::Tensor dy = gt::Tensor::randn({g.m, g.n}, rng);
      const double nt = median_us([&] { (void)gt::matmul_nt(x, w); });
      const double ntb = median_us([&] {
        (void)gt::detail::matmul_nt(x, w, gt::detail::SimdPath::baseline);
      });
      const double mm = median_us([&] { (void)gt::matmul(dy, w); });
      const double tn = median_us([&] { (void)gt::matmul_tn(dy, x); });
      const double kflop = 2e-3 * double(g.m * g.k * g.n);
      std::printf(
          "%-15s %5zu %4zu %4zu %9.1f %7.2f %9.1f %9.1f %7.2f %9.1f %7.2f\n",
          name.c_str(), g.m, g.k, g.n, nt, kflop / nt, ntb, mm, kflop / mm, tn,
          kflop / tn);
    }
  }
  return 0;
}
