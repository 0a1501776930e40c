// Tests for the gradient-compression wire codecs (net/codec.h): spec
// parsing, round-trips, the int8 saturation rails, top-k selection and
// index canonicalization, error-feedback residuals, degenerate tensors
// (empty, denormal, tiny), the Byzantine-garbage ingress gate, and the
// encoders held bit for bit to a reference copy of their plain
// nth_element/lround form.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "net/codec.h"
#include "tensor/rng.h"

namespace gn = garfield::net;
namespace gt = garfield::tensor;

namespace {

gn::Codec make(const std::string& spec) {
  return gn::Codec(gn::CodecSpec::parse(spec));
}

gn::Payload random_payload(std::size_t d, std::uint64_t seed) {
  gt::Rng rng(seed);
  gn::Payload out(d);
  for (float& x : out) x = rng.normal(0.0F, 1.0F);
  return out;
}

double rms(const gn::Payload& a, const gn::Payload& b) {
  EXPECT_EQ(a.size(), b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += double(a[i] - b[i]) * double(a[i] - b[i]);
  }
  return a.empty() ? 0.0 : std::sqrt(acc / double(a.size()));
}

}  // namespace

// ------------------------------------------------------------------ parse

TEST(CodecSpec, ParsesTheGrammar) {
  EXPECT_EQ(gn::CodecSpec::parse("none").kind, gn::CodecKind::kNone);
  EXPECT_TRUE(gn::CodecSpec::parse("none").identity());
  EXPECT_EQ(gn::CodecSpec::parse("int8").kind, gn::CodecKind::kInt8);
  const gn::CodecSpec topk = gn::CodecSpec::parse("topk:k=0.05");
  EXPECT_EQ(topk.kind, gn::CodecKind::kTopK);
  EXPECT_DOUBLE_EQ(topk.k, 0.05);
  // Default k when unspecified.
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("topk").k, 0.01);
}

TEST(CodecSpec, RejectsNonsense) {
  EXPECT_THROW((void)gn::CodecSpec::parse("gzip"), std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:k=0"), std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:k=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:k=-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("int8:k=0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::CodecSpec::parse("topk:frac=0.1"),
               std::invalid_argument);
}

TEST(CodecSpec, TopkCountClampsToAtLeastOne) {
  const gn::CodecSpec spec = gn::CodecSpec::parse("topk:k=0.01");
  EXPECT_EQ(spec.topk_count(0), 0U);
  EXPECT_EQ(spec.topk_count(10), 1U);  // 0.1 rounds to 0, clamped up
  EXPECT_EQ(spec.topk_count(1000), 10U);
  EXPECT_EQ(gn::CodecSpec::parse("topk:k=1").topk_count(7), 7U);
}

TEST(CodecSpec, WireRatioMatchesLayouts) {
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("none").wire_ratio(1000), 1.0);
  // topk:k=0.01 at d=1000: (3 + 2*10) / 1000.
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("topk:k=0.01").wire_ratio(1000),
                   23.0 / 1000.0);
  // int8 at d=1000: (3 + 250) / 1000 — just over a quarter.
  EXPECT_DOUBLE_EQ(gn::CodecSpec::parse("int8").wire_ratio(1000),
                   253.0 / 1000.0);
}

// ------------------------------------------------------------ round trips

TEST(Codec, IdentityIsExact) {
  const gn::Codec codec = make("none");
  const gn::Payload dense = random_payload(97, 1);
  const gn::Payload wire = codec.encode_gradient(dense);
  EXPECT_EQ(wire, dense);
  const auto back = codec.decode(wire, dense.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, dense);
}

TEST(Codec, Int8RoundTripIsClose) {
  const gn::Codec codec = make("int8");
  const gn::Payload dense = random_payload(1001, 2);  // odd d: partial slot
  const gn::Payload wire = codec.encode_gradient(dense);
  EXPECT_EQ(wire.size(), 3U + (dense.size() + 3) / 4);
  EXPECT_TRUE(gn::Codec::looks_encoded(wire));
  const auto back = codec.decode(wire, dense.size());
  ASSERT_TRUE(back.has_value());
  // Quantization error is bounded by scale/2 = max|x| / 254 per coordinate.
  float max_abs = 0.0F;
  for (const float x : dense) max_abs = std::max(max_abs, std::abs(x));
  const float bound = max_abs / 254.0F + 1e-6F;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR((*back)[i], dense[i], bound) << "coordinate " << i;
  }
}

TEST(Codec, Int8SaturatesAtTheRails) {
  const gn::Codec codec = make("int8");
  // One huge outlier sets the scale; everything else quantizes small.
  gn::Payload dense(8, 0.001F);
  dense[3] = 127000.0F;
  dense[5] = -127000.0F;
  const auto back = codec.decode(codec.encode_gradient(dense), dense.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_FLOAT_EQ((*back)[3], 127000.0F);   // exactly ±127 * scale
  EXPECT_FLOAT_EQ((*back)[5], -127000.0F);
  EXPECT_FLOAT_EQ((*back)[0], 0.0F);        // below half a step: rounds away
}

TEST(Codec, TopkKeepsTheHeaviestCoordinates) {
  const gn::Codec codec = make("topk:k=0.25");  // d=8 -> keep 2
  gn::Payload dense{0.1F, -5.0F, 0.2F, 0.0F, 3.0F, -0.3F, 0.05F, 0.2F};
  const gn::Payload wire = codec.encode_gradient(dense);
  ASSERT_EQ(wire.size(), 3U + 2U * 2U);
  EXPECT_TRUE(gn::Codec::looks_encoded(wire));
  // Canonical form: strictly ascending indices, then their values.
  EXPECT_FLOAT_EQ(wire[3], 1.0F);
  EXPECT_FLOAT_EQ(wire[4], 4.0F);
  EXPECT_FLOAT_EQ(wire[5], -5.0F);
  EXPECT_FLOAT_EQ(wire[6], 3.0F);
  const auto back = codec.decode(wire, dense.size());
  ASSERT_TRUE(back.has_value());
  const gn::Payload expect{0.0F, -5.0F, 0.0F, 0.0F, 3.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_EQ(*back, expect);
}

TEST(Codec, TopkTieBreaksOnLowerIndex) {
  const gn::Codec codec = make("topk:k=0.5");  // d=4 -> keep 2
  const gn::Payload dense{1.0F, -1.0F, 1.0F, 1.0F};  // all tied in |.|
  const gn::Payload wire = codec.encode_gradient(dense);
  ASSERT_EQ(wire.size(), 3U + 2U * 2U);
  EXPECT_FLOAT_EQ(wire[3], 0.0F);
  EXPECT_FLOAT_EQ(wire[4], 1.0F);
}

TEST(Codec, EmptyTensorRoundTrips) {
  for (const char* spec : {"none", "int8", "topk:k=0.5"}) {
    const gn::Codec codec = make(spec);
    const gn::Payload dense;
    const gn::Payload wire = codec.encode_gradient(dense);
    const auto back = codec.decode(wire, 0);
    ASSERT_TRUE(back.has_value()) << spec;
    EXPECT_TRUE(back->empty()) << spec;
  }
}

TEST(Codec, DenormalAndZeroTensorsSurvive) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const char* spec : {"int8", "topk:k=0.5"}) {
    const gn::Codec codec = make(spec);
    gn::Payload dense(6, 0.0F);
    dense[2] = denorm;
    dense[4] = -denorm;
    const auto back =
        codec.decode(codec.encode_gradient(dense), dense.size());
    ASSERT_TRUE(back.has_value()) << spec;
    for (const float x : *back) EXPECT_TRUE(std::isfinite(x)) << spec;
    // All-zero input must encode/decode to all zeros (scale = 0 path).
    const gn::Payload zeros(6, 0.0F);
    const auto zback =
        codec.decode(codec.encode_gradient(zeros), zeros.size());
    ASSERT_TRUE(zback.has_value()) << spec;
    EXPECT_EQ(*zback, zeros) << spec;
  }
}

TEST(Codec, StateEncodingDegradesTopkToInt8) {
  const gn::Codec topk = make("topk:k=0.01");
  const gn::Payload model = random_payload(512, 3);
  const gn::Payload wire = topk.encode_state(model);
  // int8 layout, not topk: a model missing 99% of coordinates is no model.
  EXPECT_EQ(wire.size(), 3U + (model.size() + 3) / 4);
  const auto back = topk.decode(wire, model.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_LT(rms(*back, model), 0.02);
  // And the identity codec's state path stays exact.
  EXPECT_EQ(make("none").encode_state(model), model);
}

// --------------------------------------------------------- error feedback

TEST(Codec, ErrorFeedbackCarriesDroppedMass) {
  const gn::Codec codec = make("topk:k=0.25");  // d=4 -> keep 1
  gn::Payload residual;
  const gn::Payload g{1.0F, 0.6F, 0.5F, 0.4F};
  // Round 1: keeps index 0, drops the rest into the residual.
  const gn::Payload w1 = codec.encode_gradient(g, &residual);
  ASSERT_EQ(residual.size(), g.size());
  EXPECT_FLOAT_EQ(residual[0], 0.0F);
  EXPECT_FLOAT_EQ(residual[1], 0.6F);
  // Round 2 with a zero gradient: the carried residual alone must win the
  // selection — compressed communication converges to the true sum.
  const gn::Payload zero(4, 0.0F);
  const gn::Payload w2 = codec.encode_gradient(zero, &residual);
  const auto back = codec.decode(w2, 4);
  ASSERT_TRUE(back.has_value());
  EXPECT_FLOAT_EQ((*back)[1], 0.6F);  // last round's dropped coordinate
  EXPECT_FLOAT_EQ(residual[1], 0.0F);
  EXPECT_FLOAT_EQ(residual[2], 0.5F);  // still waiting its turn
}

TEST(Codec, Int8ErrorFeedbackShrinksQuantizationError) {
  const gn::Codec codec = make("int8");
  const gn::Payload g = random_payload(256, 4);
  // Sum of decoded transmissions with feedback approaches n*g better than
  // n independent quantizations: the residual re-injects rounding error.
  gn::Payload residual;
  gn::Payload sum_fb(g.size(), 0.0F);
  gn::Payload sum_plain(g.size(), 0.0F);
  constexpr int kRounds = 16;
  for (int r = 0; r < kRounds; ++r) {
    const auto fb = codec.decode(codec.encode_gradient(g, &residual), 256);
    const auto plain = codec.decode(codec.encode_gradient(g), 256);
    ASSERT_TRUE(fb && plain);
    for (std::size_t i = 0; i < g.size(); ++i) {
      sum_fb[i] += (*fb)[i];
      sum_plain[i] += (*plain)[i];
    }
  }
  gn::Payload target = g;
  for (float& x : target) x *= float(kRounds);
  EXPECT_LE(rms(sum_fb, target), rms(sum_plain, target));
  EXPECT_LT(rms(sum_fb, target) / double(kRounds), 1e-3);
}

// ------------------------------------------------------------ ingress gate

TEST(Codec, DecodeRejectsStructuralGarbage) {
  const gn::Codec codec = make("topk:k=0.5");
  const gn::Payload dense = random_payload(16, 5);
  const gn::Payload wire = codec.encode_gradient(dense);

  // Wrong dimension claim.
  EXPECT_FALSE(codec.decode(wire, 17).has_value());
  // Truncated frame.
  gn::Payload cut(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(codec.decode(cut, 16).has_value());
  // Out-of-range index.
  gn::Payload bad_idx = wire;
  bad_idx[3] = 99.0F;
  EXPECT_FALSE(codec.decode(bad_idx, 16).has_value());
  // Non-integral index.
  gn::Payload frac_idx = wire;
  frac_idx[3] = 0.5F;
  EXPECT_FALSE(codec.decode(frac_idx, 16).has_value());
  // Duplicate / non-ascending indices are garbage, not an alt encoding.
  gn::Payload dup = wire;
  dup[4] = dup[3];
  EXPECT_FALSE(codec.decode(dup, 16).has_value());
  // k > d.
  gn::Payload too_many = wire;
  too_many[2] = 17.0F;
  EXPECT_FALSE(codec.decode(too_many, 16).has_value());

  const gn::Codec int8 = make("int8");
  const gn::Payload iwire = int8.encode_gradient(dense);
  // Non-finite scale.
  gn::Payload nan_scale = iwire;
  nan_scale[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(int8.decode(nan_scale, 16).has_value());
  gn::Payload neg_scale = iwire;
  neg_scale[2] = -1.0F;
  EXPECT_FALSE(int8.decode(neg_scale, 16).has_value());
  // Wrong slot count for the claimed dimension.
  gn::Payload short_frame(iwire.begin(), iwire.end() - 1);
  EXPECT_FALSE(int8.decode(short_frame, 16).has_value());

  // A plain dense payload of the wrong size is garbage too.
  EXPECT_FALSE(codec.decode(random_payload(8, 6), 16).has_value());
  // ... but of the right size passes through unchanged.
  const gn::Payload plain = random_payload(16, 7);
  const auto through = codec.decode(plain, 16);
  ASSERT_TRUE(through.has_value());
  EXPECT_EQ(*through, plain);
}

TEST(Codec, DecodeDispatchesOnMagicNotOnSpec) {
  // A topk-configured receiver still decodes an int8 state frame (model
  // snapshots degrade to int8 regardless of the gradient codec).
  const gn::Codec topk = make("topk:k=0.01");
  const gn::Payload model = random_payload(128, 8);
  const gn::Payload state = topk.encode_state(model);
  const auto back = topk.decode(state, model.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_LT(rms(*back, model), 0.02);
}

TEST(Codec, MagicWordsAreQuietNans) {
  // The frame marker must be a bit pattern the all_finite ingress gate
  // would reject in a plain gradient — i.e. NaN space.
  const gn::Codec codec = make("int8");
  const gn::Payload wire = codec.encode_gradient(random_payload(8, 9));
  EXPECT_TRUE(std::isnan(wire[0]));
  EXPECT_TRUE(gn::Codec::looks_encoded(wire));
  EXPECT_FALSE(gn::Codec::looks_encoded(random_payload(8, 10)));
  EXPECT_FALSE(gn::Codec::looks_encoded({}));
}

// ------------------------------------------------------------- reference

namespace {

/// The encoders in their plain form, the oracle for the radix-select topk
/// and the libm-free int8: topk ranks every coordinate with nth_element on
/// (|value| descending, index ascending) and sorts the kept indices; int8
/// quantizes with std::lround. Valid for NaN-free inputs only: the
/// comparator is no strict weak order under NaN.
gn::Payload reference_encode(const gn::CodecSpec& spec,
                             const gn::Payload& dense,
                             gn::Payload* residual) {
  const std::size_t d = dense.size();
  gn::Payload compensated = dense;
  if (residual != nullptr) {
    if (residual->size() != d) residual->assign(d, 0.0F);
    for (std::size_t i = 0; i < d; ++i) {
      compensated[i] = compensated[i] + (*residual)[i];
    }
  }
  // The frame magic words of net/codec.cpp.
  const float int8_magic = std::bit_cast<float>(0x7fc06938U);
  const float topk_magic = std::bit_cast<float>(0x7fc0674bU);
  if (spec.kind == gn::CodecKind::kInt8) {
    float max_abs = 0.0F;
    for (const float x : compensated) {
      if (std::isfinite(x)) max_abs = std::max(max_abs, std::abs(x));
    }
    const float scale = max_abs / 127.0F;
    const auto quantize = [scale](float x) -> std::int8_t {
      if (scale <= 0.0F || !std::isfinite(x)) return 0;
      const long q = std::lround(double(x) / double(scale));
      return std::int8_t(std::clamp<long>(q, -127, 127));
    };
    gn::Payload out{int8_magic, float(d), scale};
    for (std::size_t i = 0; i < d; i += 4) {
      std::int8_t packed[4] = {0, 0, 0, 0};
      for (std::size_t j = 0; j < 4 && i + j < d; ++j) {
        packed[j] = quantize(compensated[i + j]);
        if (residual != nullptr) {
          (*residual)[i + j] =
              compensated[i + j] - float(packed[j]) * scale;
        }
      }
      float slot;
      std::memcpy(&slot, packed, sizeof(slot));
      out.push_back(slot);
    }
    return out;
  }
  const std::size_t kc = spec.topk_count(d);
  std::vector<std::uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0U);
  const auto heavier = [&](std::uint32_t a, std::uint32_t b) {
    const float fa = std::abs(compensated[a]);
    const float fb = std::abs(compensated[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  };
  if (kc < d) {
    std::nth_element(order.begin(), order.begin() + std::ptrdiff_t(kc),
                     order.end(), heavier);
    order.resize(kc);
  }
  std::sort(order.begin(), order.end());
  gn::Payload out{topk_magic, float(d), float(kc)};
  for (const std::uint32_t idx : order) out.push_back(float(idx));
  for (const std::uint32_t idx : order) out.push_back(compensated[idx]);
  if (residual != nullptr) {
    *residual = std::move(compensated);
    for (const std::uint32_t idx : order) (*residual)[idx] = 0.0F;
  }
  return out;
}

bool same_bytes(const gn::Payload& a, const gn::Payload& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Input families the selection and the quantizer must agree on. None
/// produces a NaN, alone or summed into a residual: an inf coordinate has
/// the same sign in every round.
enum class Shape {
  kNormal,      ///< N(0, 1)
  kTies,        ///< five magnitudes, both signs: long runs of equal keys
  kZeros,       ///< mostly +0 and -0, a few normals
  kSubnormal,   ///< subnormals and tiny normals, where int8's scale rounds
  kInf,         ///< normals with fixed ±inf coordinates
  kAllEqual,    ///< one value everywhere
  kHalfSteps,   ///< (m + 1/2) * 2^-6: int8 ties on every coordinate
};

constexpr Shape kShapes[] = {Shape::kNormal,    Shape::kTies,
                             Shape::kZeros,     Shape::kSubnormal,
                             Shape::kInf,       Shape::kAllEqual,
                             Shape::kHalfSteps};

gn::Payload shaped_payload(Shape shape, std::size_t d, std::uint64_t seed) {
  gt::Rng rng(seed);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  gn::Payload out(d);
  for (std::size_t i = 0; i < d; ++i) {
    const float sign = rng.bernoulli(0.5) ? -1.0F : 1.0F;
    switch (shape) {
      case Shape::kNormal:
        out[i] = rng.normal(0.0F, 1.0F);
        break;
      case Shape::kTies:
        out[i] = sign * float(rng.index(5)) * 0.25F;
        break;
      case Shape::kZeros:
        out[i] = rng.bernoulli(0.9) ? sign * 0.0F : rng.normal(0.0F, 1.0F);
        break;
      case Shape::kSubnormal:
        out[i] = rng.bernoulli(0.8)
                     ? sign * denorm * float(rng.index(300))
                     : sign * std::numeric_limits<float>::min() *
                           rng.uniform(0.0F, 4.0F);
        break;
      case Shape::kInf:
        out[i] = i % 13 == 5 ? (i % 2 == 0 ? kInf : -kInf)
                             : rng.normal(0.0F, 1.0F);
        break;
      case Shape::kAllEqual:
        out[i] = -0.375F;
        break;
      case Shape::kHalfSteps:
        out[i] = i == 0 ? 127.0F / 64.0F
                        : sign * (float(rng.index(127)) + 0.5F) / 64.0F;
        break;
    }
  }
  return out;
}

}  // namespace

TEST(CodecReference, FramesAndResidualsMatchTheReferenceBitForBit) {
  const std::size_t dims[] = {1, 2, 3, 4, 5, 7, 16, 100, 874, 1000, 17226};
  std::vector<gn::CodecSpec> specs{gn::CodecSpec::parse("int8")};
  for (const char* k : {"0.01", "0.1", "0.5", "1"}) {
    specs.push_back(gn::CodecSpec::parse(std::string("topk:k=") + k));
  }
  std::size_t compared = 0;
  for (const gn::CodecSpec& spec : specs) {
    const gn::Codec codec(spec);
    for (const std::size_t d : dims) {
      for (const Shape shape : kShapes) {
        const std::string where = "kind " + std::to_string(int(spec.kind)) +
                                  " k " + std::to_string(spec.k) + " d " +
                                  std::to_string(d) + " shape " +
                                  std::to_string(int(shape));
        // Without a residual.
        const gn::Payload dense = shaped_payload(shape, d, 100 + d);
        EXPECT_TRUE(same_bytes(codec.encode_gradient(dense),
                               reference_encode(spec, dense, nullptr)))
            << where;
        // A five-encode error-feedback chain, from an empty residual.
        gn::Payload residual;
        gn::Payload expect_residual;
        for (std::uint64_t round = 0; round < 5; ++round) {
          const gn::Payload g = shaped_payload(shape, d, 1000 * round + d);
          const gn::Payload frame = codec.encode_gradient(g, &residual);
          const gn::Payload expect =
              reference_encode(spec, g, &expect_residual);
          ASSERT_TRUE(same_bytes(frame, expect)) << where << " round "
                                                 << round;
          ASSERT_TRUE(same_bytes(residual, expect_residual))
              << where << " round " << round;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, specs.size() * std::size(dims) * std::size(kShapes) * 5);
}

TEST(CodecReference, StateFramesMatchTheReferenceInt8) {
  const gn::CodecSpec int8 = gn::CodecSpec::parse("int8");
  const gn::Codec topk = make("topk:k=0.01");
  for (const Shape shape : kShapes) {
    const gn::Payload model = shaped_payload(shape, 1001, 5);
    EXPECT_TRUE(same_bytes(topk.encode_state(model),
                           reference_encode(int8, model, nullptr)))
        << "shape " << int(shape);
  }
}

TEST(CodecReference, TopkKeepsNanBeforeInfinity) {
  // A NaN's key is above +inf's, so NaN coordinates are kept first, then
  // the infinities (ties to the lower index), then finite values.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const gn::Codec codec = make("topk:k=0.25");  // d=12 -> keep 3
  const gn::Payload dense{1.0F, kInf, 3.0F, nan,  0.0F, -kInf,
                          nan,  2.0F, -1.0F, 5.0F, 0.5F, 4.0F};
  gn::Payload residual;
  const gn::Payload wire = codec.encode_gradient(dense, &residual);
  ASSERT_EQ(wire.size(), 3U + 2U * 3U);
  EXPECT_FLOAT_EQ(wire[3], 1.0F);
  EXPECT_FLOAT_EQ(wire[4], 3.0F);
  EXPECT_FLOAT_EQ(wire[5], 6.0F);
  EXPECT_EQ(wire[6], kInf);
  EXPECT_TRUE(std::isnan(wire[7]));
  EXPECT_TRUE(std::isnan(wire[8]));
  for (const float x : residual) EXPECT_FALSE(std::isnan(x));
  EXPECT_EQ(residual[5], -kInf);  // the -inf tie lost to index 1

  // One NaN among many finite coordinates survives even k = 0.01, so the
  // decoded gradient still fails a finiteness gate.
  gn::Payload poisoned = random_payload(874, 11);
  poisoned[431] = nan;
  const gn::Codec sparse = make("topk:k=0.01");
  gn::Payload carry;
  const auto back =
      gn::Codec::decode(sparse.encode_gradient(poisoned, &carry), 874);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::isnan((*back)[431]));
  for (const float x : carry) EXPECT_FALSE(std::isnan(x));
}
