// Parameterized sweeps: Conv2d against a reference implementation across
// kernel/stride/padding combinations, GAR consistency across (n, f)
// grids, and controller end-to-end matrices.
#include <gtest/gtest.h>

#include <cmath>

#include "core/controller.h"
#include "gars/gar.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "support/test_support.h"
#include "tensor/rng.h"

namespace nn = garfield::nn;
namespace gg = garfield::gars;
namespace gc = garfield::core;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

// ------------------------------------------------- Conv2d reference sweep

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, stride, padding, h, w;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

namespace {

/// Direct (quadruple-loop) convolution, the obviously-correct reference
/// for the im2col+GEMM implementation.
gt::Tensor conv_reference(const gt::Tensor& input, const gt::Tensor& weight,
                          const gt::Tensor& bias, const ConvCase& c) {
  const std::size_t b = input.dim(0);
  const std::size_t oh = (c.h + 2 * c.padding - c.kernel) / c.stride + 1;
  const std::size_t ow = (c.w + 2 * c.padding - c.kernel) / c.stride + 1;
  gt::Tensor out({b, c.out_ch, oh, ow});
  for (std::size_t n = 0; n < b; ++n) {
    for (std::size_t oc = 0; oc < c.out_ch; ++oc) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double acc = bias[oc];
          for (std::size_t ic = 0; ic < c.in_ch; ++ic) {
            for (std::size_t ky = 0; ky < c.kernel; ++ky) {
              for (std::size_t kx = 0; kx < c.kernel; ++kx) {
                const long iy = long(oy * c.stride + ky) - long(c.padding);
                const long ix = long(ox * c.stride + kx) - long(c.padding);
                if (iy < 0 || ix < 0 || iy >= long(c.h) || ix >= long(c.w))
                  continue;
                const float v =
                    input.data()[((n * c.in_ch + ic) * c.h + std::size_t(iy)) *
                                     c.w +
                                 std::size_t(ix)];
                const float wv =
                    weight.data()[oc * c.in_ch * c.kernel * c.kernel +
                                  (ic * c.kernel + ky) * c.kernel + kx];
                acc += double(v) * wv;
              }
            }
          }
          out.data()[((n * c.out_ch + oc) * oh + oy) * ow + ox] = float(acc);
        }
      }
    }
  }
  return out;
}

}  // namespace

TEST_P(ConvSweep, MatchesDirectConvolution) {
  const ConvCase& c = GetParam();
  gt::Rng rng(31);
  nn::Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  gt::Tensor x = gt::Tensor::randn({2, c.in_ch, c.h, c.w}, rng);
  const gt::Tensor fast = conv.forward(x, true);
  auto params = conv.params();
  const gt::Tensor ref =
      conv_reference(x, *params[0].value, *params[1].value, c);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.numel(); ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-4F) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5, 5},
                      ConvCase{1, 4, 3, 1, 1, 8, 8},
                      ConvCase{3, 2, 3, 1, 0, 7, 7},
                      ConvCase{2, 3, 3, 2, 1, 9, 9},
                      ConvCase{4, 4, 5, 1, 2, 8, 8},
                      ConvCase{2, 2, 3, 3, 0, 10, 10},
                      ConvCase{1, 8, 3, 2, 1, 6, 9}),  // non-square input
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      const ConvCase& c = info.param;
      return "c" + std::to_string(c.in_ch) + "o" + std::to_string(c.out_ch) +
             "k" + std::to_string(c.kernel) + "s" + std::to_string(c.stride) +
             "p" + std::to_string(c.padding) + "h" + std::to_string(c.h) +
             "w" + std::to_string(c.w);
    });

// ----------------------------------------------------- GAR (n, f) grids

class GarGrid : public ::testing::TestWithParam<std::size_t> {};

/// Every GAR, at every feasible f for the given n: finite output of the
/// right size, inside the coordinate envelope, and stable under input
/// duplication at the boundary sizes.
TEST_P(GarGrid, AllFeasibleFValues) {
  const std::size_t n = GetParam();
  gt::Rng rng(37);
  std::vector<gt::FlatVector> in(n, gt::FlatVector(10));
  for (auto& v : in) {
    for (float& x : v) x = rng.normal();
  }
  for (const std::string& name : gg::gar_names()) {
    for (std::size_t f = 0; f < n; ++f) {
      if (gg::gar_min_n(name, f) > n) {
        EXPECT_THROW((void)gg::make_gar(name, n, f), std::invalid_argument)
            << name << " n=" << n << " f=" << f;
        continue;
      }
      gg::GarPtr gar = gg::make_gar(name, n, f);
      const gt::FlatVector out = ts::aggregate(*gar, in);
      ASSERT_EQ(out.size(), 10u) << name;
      EXPECT_TRUE(gt::all_finite(out)) << name << " n=" << n << " f=" << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, GarGrid, ::testing::Values(3, 5, 7, 9, 12, 15),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "n" + std::to_string(i.param);
                         });

// -------------------------------------------- controller end-to-end grid

struct DeployGar {
  const char* deployment;
  const char* gar;
};

class ControllerMatrix : public ::testing::TestWithParam<DeployGar> {};

TEST_P(ControllerMatrix, ShortRunLearns) {
  const DeployGar& p = GetParam();
  const std::string text = std::string("deployment = ") + p.deployment +
                           "\nmodel = tiny_mlp\nnw = 7\nfw = 1\n"
                           "nps = 3\nfps = 0\ngradient_gar = " +
                           p.gar +
                           "\nmodel_gar = median\ntrain_size = 768\n"
                           "test_size = 192\nbatch_size = 16\nlr = 0.1\n"
                           "iterations = 80\neval_every = 0\nseed = 51\n";
  const gc::TrainResult result = gc::run_experiment(text);
  EXPECT_GT(result.final_accuracy, 0.55)
      << p.deployment << " + " << p.gar;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ControllerMatrix,
    ::testing::Values(DeployGar{"ssmw", "median"},
                      DeployGar{"ssmw", "trimmed_mean"},
                      DeployGar{"ssmw", "multi_krum"},
                      DeployGar{"ssmw", "mda"},
                      DeployGar{"ssmw", "geometric_median"},
                      DeployGar{"ssmw", "centered_clip"},
                      DeployGar{"ssmw", "cge"},
                      DeployGar{"msmw", "median"},
                      DeployGar{"msmw", "multi_krum"},
                      DeployGar{"decentralized", "median"},
                      DeployGar{"decentralized", "trimmed_mean"}),
    [](const ::testing::TestParamInfo<DeployGar>& info) {
      return std::string(info.param.deployment) + "_" + info.param.gar;
    });
