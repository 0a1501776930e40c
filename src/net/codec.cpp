#include "net/codec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
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
/// stay exact below 2^24, far above any test or bench dimension). Every
/// `max` is at most 2^24, so once the range checks pass the uint32 round
/// trip is exact, and it returns `f` exactly when `f` is integral.
bool integral_in_range(float f, double max, std::size_t& out) {
  if (!std::isfinite(f) || f < 0.0F || double(f) > max) return false;
  const auto whole = std::uint32_t(f);
  if (float(whole) != f) return false;
  out = whole;
  return true;
}

/// |x|'s order key: the float's bits with the sign cleared. For every
/// non-NaN float key order is |value| order (+0 and -0 tie), and a NaN's
/// key exceeds +inf's.
constexpr std::uint32_t kMagnitudeBits = 0x7fffffffU;
constexpr std::uint32_t kInfKey = 0x7f800000U;

std::uint32_t magnitude_key(float x) { return float_bits(x) & kMagnitudeBits; }

/// Deterministic int8 quantization step: symmetric linear, round-half-away
/// from zero, saturating at the int8 rails. Every finite x the encoder
/// passes has |x / scale| below 191 (scale is the largest finite |x| / 127
/// rounded to float, at least the smallest subnormal when positive), so
/// the truncation to an integer is exact, and so is the fraction it
/// leaves.
std::int8_t quantize(float x, float scale) {
  if (scale <= 0.0F || !std::isfinite(x)) return 0;
  const double y = double(x) / double(scale);
  const auto whole = std::int64_t(y);
  const double frac = y - double(whole);
  const std::int64_t q = whole + (frac >= 0.5) - (frac <= -0.5);
  return std::int8_t(std::clamp<std::int64_t>(q, -127, 127));
}

/// The frame of d coordinates `v` quantized to int8 at scale max|x| / 127
/// over the finite coordinates. `carry`, v itself or null, is left holding
/// each coordinate's quantization error.
Payload encode_int8(const float* v, std::size_t d, float* carry) {
  // The largest finite |x| is the float of the largest key below +inf's.
  std::uint32_t max_key = 0;
  for (std::size_t i = 0; i < d; ++i) {
    const std::uint32_t key = magnitude_key(v[i]);
    max_key = std::max(max_key, key < kInfKey ? key : 0U);
  }
  const float scale = std::bit_cast<float>(max_key) / 127.0F;
  Payload out(3 + (d + 3) / 4);
  out[0] = magic_float(kInt8Magic);
  out[1] = float(d);
  out[2] = scale;
  for (std::size_t i = 0; i < d; i += 4) {
    std::int8_t packed[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; j < 4 && i + j < d; ++j) {
      packed[j] = quantize(v[i + j], scale);
      if (carry != nullptr) {
        carry[i + j] = v[i + j] - float(packed[j]) * scale;
      }
    }
    std::memcpy(out.data() + 3 + i / 4, packed, sizeof(packed));
  }
  return out;
}

/// A top-k keep rule: every key above `threshold`, then the first `ties`
/// keys equal to it, in index order.
struct TopkCut {
  std::uint32_t threshold = 0;
  std::size_t ties = 0;
};

/// One digit of a most-significant-digit-first radix select over the
/// 31-bit keys: the digits of the kc-th largest key found so far, and how
/// many keys with those digits are still to keep.
struct RadixSelect {
  std::uint32_t prefix = 0;
  std::size_t need = 0;

  /// Count the keys of d coordinates `v` whose bits above Shift + Width
  /// equal `prefix`, by their digit at bits [Shift, Shift + Width), and
  /// append the digit holding the kc-th largest key to `prefix`. True when
  /// every key of that digit is kept, which ends the search.
  template <int Shift, int Width>
  bool narrow(const float* v, std::size_t d) {
    constexpr int kHigh = Shift + Width;
    constexpr std::uint32_t kDigits = 1U << Width;
    // Four interleaved histograms, so a run of equal digits does not chain
    // its increments through one counter.
    std::uint32_t count[4][kDigits] = {};
    const auto add = [&](std::uint32_t* lane, float x) {
      const std::uint32_t key = magnitude_key(x);
      if constexpr (kHigh == 31) {
        ++lane[key >> Shift];
      } else {
        lane[(key >> Shift) & (kDigits - 1)] += (key >> kHigh) == prefix;
      }
    };
    std::size_t i = 0;
    for (; i + 4 <= d; i += 4) {
      add(count[0], v[i]);
      add(count[1], v[i + 1]);
      add(count[2], v[i + 2]);
      add(count[3], v[i + 3]);
    }
    for (; i < d; ++i) add(count[0], v[i]);
    // Heaviest digit first; `need` never exceeds the keys counted, so the
    // walk stops at a digit.
    std::uint32_t digit = kDigits - 1;
    std::size_t here = 0;
    for (;; --digit) {
      here = std::size_t(count[0][digit]) + count[1][digit] +
             count[2][digit] + count[3][digit];
      if (here >= need) break;
      need -= here;
    }
    prefix = (prefix << Width) | digit;
    return here == need;
  }
};

/// The cut that keeps the kc largest keys of d coordinates `v`
/// (0 < kc < d), ties to the lower index: a radix select over the exponent
/// byte, then 8, 8 and 7 mantissa bits. When every key of a digit is kept
/// the cut sits just below them; their smallest key is positive, or all d
/// keys would be kept.
TopkCut topk_cut(const float* v, std::size_t d, std::size_t kc) {
  RadixSelect select{0, kc};
  if (select.narrow<23, 8>(v, d)) return {(select.prefix << 23) - 1, 0};
  if (select.narrow<15, 8>(v, d)) return {(select.prefix << 15) - 1, 0};
  if (select.narrow<7, 8>(v, d)) return {(select.prefix << 7) - 1, 0};
  if (select.narrow<0, 7>(v, d)) return {select.prefix - 1, 0};
  return {select.prefix, select.need};
}

/// The frame of the kc heaviest of d coordinates `v`, ascending by index.
/// `carry`, v itself or null, gets the kept coordinates zeroed.
Payload encode_topk(const float* v, std::size_t d, std::size_t kc,
                    float* carry) {
  Payload out(3 + 2 * kc);
  out[0] = magic_float(kTopkMagic);
  out[1] = float(d);
  out[2] = float(kc);
  const TopkCut cut = kc < d ? topk_cut(v, d, kc) : TopkCut{0, d};
  float* index = out.data() + 3;
  float* value = index + kc;
  // One pass in index order with no branch on the data: each coordinate is
  // written to the next free slot, which only a kept one claims. The kc-th
  // kept coordinate ends the pass, so no write leaves the frame.
  std::size_t kept = 0;
  std::size_t ties = 0;
  for (std::size_t i = 0; i < d && kept < kc; ++i) {
    const std::uint32_t bits = float_bits(v[i]);
    const std::uint32_t key = bits & kMagnitudeBits;
    const std::uint32_t tie = key == cut.threshold;
    const std::uint32_t keep =
        std::uint32_t(key > cut.threshold) | (tie & (ties < cut.ties));
    ties += tie;
    index[kept] = float(std::int32_t(i));
    value[kept] = v[i];
    // A mask, not a select: a kept coordinate's carry clears to +0.
    if (carry != nullptr) carry[i] = std::bit_cast<float>(bits & (keep - 1U));
    kept += keep;
  }
  assert(kept == kc);
  return out;
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
  // Error feedback: compress (gradient + carried residual), formed in the
  // residual's own storage, which the encoder then leaves holding what the
  // compression dropped, for the next round.
  const float* v = dense.data();
  float* carry = nullptr;
  if (residual != nullptr) {
    if (residual->size() != d) residual->assign(d, 0.0F);
    tensor::add(dense, *residual, *residual);
    v = carry = residual->data();
  }
  if (spec_.kind == CodecKind::kInt8) return encode_int8(v, d, carry);
  return encode_topk(v, d, spec_.topk_count(d), carry);
}

Payload Codec::encode_state(const Payload& dense) const {
  if (spec_.kind == CodecKind::kNone) return dense;
  // A model snapshot missing most of its coordinates is not a model:
  // lossy codecs degrade to int8 for state-class payloads (header block).
  return encode_int8(dense.data(), dense.size(), nullptr);
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
