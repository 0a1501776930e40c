#include "net/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "net/wire.h"
#include "util/spec.h"

namespace garfield::net {

namespace {

// Quiet-NaN-space magic words: exponent all ones + quiet bit + a payload
// no arithmetic produces. A dense gradient coordinate can be any bit
// pattern in principle, but a *leading* coordinate equal to one of these
// exact NaNs would already have been rejected by the all_finite ingress
// gates long before a codec sees it.
constexpr std::uint32_t kTopkMagic = 0x7fc0674bU;  // "gK"
constexpr std::uint32_t kInt8Magic = 0x7fc06938U;  // "i8"

float magic_float(std::uint32_t word) { return std::bit_cast<float>(word); }

std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// Exact small-integer check for header fields shipped as floats (d and k
/// stay exact below 2^24, far above any test or bench dimension).
bool integral_in_range(float f, double max, std::size_t& out) {
  if (!std::isfinite(f) || f < 0.0F || double(f) > max) return false;
  const double rounded = std::nearbyint(double(f));
  if (rounded != double(f)) return false;
  out = std::size_t(rounded);
  return true;
}

/// Deterministic int8 quantization step: symmetric linear, round-half-away
/// (std::lround), saturating at the int8 rails.
std::int8_t quantize(float x, float scale) {
  if (scale <= 0.0F || !std::isfinite(x)) return 0;
  const long q = std::lround(double(x) / double(scale));
  return std::int8_t(std::clamp<long>(q, -127, 127));
}

}  // namespace

CodecSpec CodecSpec::parse(const std::string& spec) {
  const util::ParsedSpec parsed = util::parse_spec(spec, "codec spec");
  CodecSpec out;
  if (parsed.name == "none") {
    out.kind = CodecKind::kNone;
  } else if (parsed.name == "int8") {
    out.kind = CodecKind::kInt8;
  } else if (parsed.name == "topk") {
    out.kind = CodecKind::kTopK;
    out.k = parsed.options.get_double("k", out.k);
    if (!(out.k > 0.0 && out.k <= 1.0)) {
      throw std::invalid_argument(
          "codec spec: topk k must be in (0, 1], got " +
          std::to_string(out.k));
    }
  } else {
    throw std::invalid_argument("codec spec: unknown codec '" + parsed.name +
                                "' (expected none, int8 or topk:k=...)");
  }
  const auto stray = parsed.options.unconsumed();
  if (!stray.empty()) {
    throw std::invalid_argument("codec spec: '" + parsed.name +
                                "' has unknown option '" + stray.front() +
                                "'");
  }
  return out;
}

std::size_t CodecSpec::topk_count(std::size_t d) const {
  if (d == 0) return 0;
  const auto want = std::llround(k * double(d));
  return std::size_t(std::clamp<long long>(want, 1, (long long)(d)));
}

double CodecSpec::wire_ratio(std::size_t d) const {
  if (d == 0) return 1.0;
  switch (kind) {
    case CodecKind::kNone:
      return 1.0;
    case CodecKind::kTopK:
      return (3.0 + 2.0 * double(topk_count(d))) / double(d);
    case CodecKind::kInt8:
      return (3.0 + double((d + 3) / 4)) / double(d);
  }
  return 1.0;
}

Payload Codec::encode_gradient(const Payload& dense,
                               Payload* residual) const {
  if (spec_.kind == CodecKind::kNone) return dense;
  const std::size_t d = dense.size();
  // Error feedback: compress (gradient + carried residual), then remember
  // what the compression dropped for the next round.
  Payload compensated = dense;
  if (residual != nullptr) {
    if (residual->size() != d) residual->assign(d, 0.0F);
    tensor::add(compensated, *residual, compensated);
  }

  if (spec_.kind == CodecKind::kInt8) {
    float max_abs = 0.0F;
    for (const float x : compensated) {
      if (std::isfinite(x)) max_abs = std::max(max_abs, std::abs(x));
    }
    const float scale = max_abs / 127.0F;
    Payload out;
    out.reserve(3 + (d + 3) / 4);
    out.push_back(magic_float(kInt8Magic));
    out.push_back(float(d));
    out.push_back(scale);
    for (std::size_t i = 0; i < d; i += 4) {
      std::int8_t packed[4] = {0, 0, 0, 0};
      for (std::size_t j = 0; j < 4 && i + j < d; ++j) {
        packed[j] = quantize(compensated[i + j], scale);
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

  // topk: keep the k largest-|value| coordinates, ties to the lower index
  // so the selection (and therefore the whole trajectory) is
  // deterministic.
  const std::size_t kc = spec_.topk_count(d);
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
  std::sort(order.begin(), order.end());  // canonical ascending-index form
  Payload out;
  out.reserve(3 + 2 * kc);
  out.push_back(magic_float(kTopkMagic));
  out.push_back(float(d));
  out.push_back(float(kc));
  for (const std::uint32_t idx : order) out.push_back(float(idx));
  for (const std::uint32_t idx : order) out.push_back(compensated[idx]);
  if (residual != nullptr) {
    *residual = std::move(compensated);
    for (const std::uint32_t idx : order) (*residual)[idx] = 0.0F;
  }
  return out;
}

Payload Codec::encode_state(const Payload& dense) const {
  if (spec_.kind == CodecKind::kNone) return dense;
  // A model snapshot missing most of its coordinates is not a model:
  // lossy codecs degrade to int8 for state-class payloads (header block).
  Codec int8{CodecSpec{CodecKind::kInt8, spec_.k}};
  return int8.encode_gradient(dense, nullptr);
}

std::optional<Payload> Codec::decode(const Payload& encoded,
                                     std::size_t dimension) {
  if (encoded.size() >= 3) {
    const std::uint32_t magic = float_bits(encoded[0]);
    if (magic == kTopkMagic) {
      std::size_t d = 0;
      std::size_t kc = 0;
      if (!integral_in_range(encoded[1], double(1ULL << 24), d) ||
          !integral_in_range(encoded[2], double(1ULL << 24), kc) ||
          d != dimension || kc > d || encoded.size() != 3 + 2 * kc) {
        return std::nullopt;
      }
      Payload dense(d, 0.0F);
      std::size_t prev = 0;
      for (std::size_t j = 0; j < kc; ++j) {
        std::size_t idx = 0;
        if (!integral_in_range(encoded[3 + j], double(d) - 1.0, idx)) {
          return std::nullopt;
        }
        // Canonical form is strictly ascending — duplicates or shuffles
        // are Byzantine garbage, not an alternative encoding.
        if (j > 0 && idx <= prev) return std::nullopt;
        prev = idx;
        dense[idx] = encoded[3 + kc + j];
      }
      return dense;
    }
    if (magic == kInt8Magic) {
      std::size_t d = 0;
      const float scale = encoded[2];
      if (!integral_in_range(encoded[1], double(1ULL << 24), d) ||
          d != dimension || !std::isfinite(scale) || scale < 0.0F ||
          encoded.size() != 3 + (d + 3) / 4) {
        return std::nullopt;
      }
      Payload dense(d, 0.0F);
      for (std::size_t i = 0; i < d; i += 4) {
        std::int8_t packed[4];
        std::memcpy(packed, &encoded[3 + i / 4], sizeof(packed));
        for (std::size_t j = 0; j < 4 && i + j < d; ++j) {
          dense[i + j] = float(packed[j]) * scale;
        }
      }
      return dense;
    }
  }
  // No codec magic: a plain dense payload passes through unchanged; any
  // other shape is garbage.
  if (encoded.size() == dimension) return encoded;
  return std::nullopt;
}

PayloadPtr Codec::dense(PayloadPtr payload, std::size_t dimension) {
  if (!payload) return nullptr;
  if (!looks_encoded(*payload)) {
    return payload->size() == dimension ? payload : nullptr;
  }
  std::optional<Payload> decoded = decode(*payload, dimension);
  if (!decoded) return nullptr;
  return std::make_shared<const Payload>(std::move(*decoded));
}

std::uint64_t Codec::saved_bytes(const Payload& frame) {
  std::size_t d = 0;
  if (!looks_encoded(frame) ||
      !integral_in_range(frame[1], double(1ULL << 24), d) ||
      frame.size() >= d) {
    return 0;
  }
  return wire_size(d) - wire_size(frame.size());
}

bool Codec::looks_encoded(const Payload& payload) {
  if (payload.size() < 3) return false;
  const std::uint32_t magic = float_bits(payload[0]);
  return magic == kTopkMagic || magic == kInt8Magic;
}

}  // namespace garfield::net
