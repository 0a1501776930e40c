#include "net/wire.h"

#include <array>
#include <cstring>

namespace garfield::net {

namespace {

constexpr std::uint32_t kMagic = 0x44465247;  // "GRFD" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 28;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

std::size_t wire_size(std::size_t d) { return kHeaderSize + 4 * d; }

std::vector<std::uint8_t> encode(std::uint64_t iteration,
                                 std::span<const float> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(payload.size()));
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u64(out, iteration);
  put_u64(out, std::uint64_t(payload.size()));
  // Payload bytes, then backfill the CRC slot.
  std::vector<std::uint8_t> body(payload.size() * 4);
  if (!payload.empty()) {
    std::memcpy(body.data(), payload.data(), body.size());
  }
  put_u32(out, crc32(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::size_t encoded_size(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    throw WireError("wire: truncated header (" +
                    std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader in(bytes, "wire");
  if (in.u32() != kMagic) throw WireError("wire: bad magic");
  const std::uint32_t version = in.u32();
  if (version != kVersion) {
    throw WireError("wire: unsupported version " + std::to_string(version));
  }
  in.skip(8);  // iteration tag
  const std::uint64_t d = in.u64();
  // Compare in element space: computing kHeaderSize + 4*d with an untrusted
  // 64-bit d could wrap and defeat the truncation check.
  if (d > (bytes.size() - kHeaderSize) / 4) {
    throw WireError("wire: truncated message (header claims " +
                    std::to_string(d) + " elements, blob has " +
                    std::to_string((bytes.size() - kHeaderSize) / 4) + ")");
  }
  return kHeaderSize + 4 * std::size_t(d);
}

WireMessage decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    throw WireError("wire: truncated header (" +
                    std::to_string(bytes.size()) + " bytes)");
  }
  ByteReader in(bytes, "wire");
  if (in.u32() != kMagic) throw WireError("wire: bad magic");
  const std::uint32_t version = in.u32();
  if (version != kVersion) {
    throw WireError("wire: unsupported version " + std::to_string(version));
  }
  WireMessage msg;
  msg.iteration = in.u64();
  const std::uint64_t d = in.u64();
  const std::uint32_t expected_crc = in.u32();
  // Element-space comparison: kHeaderSize + 4*d could wrap for a hostile d.
  if ((bytes.size() - kHeaderSize) % 4 != 0 ||
      d != (bytes.size() - kHeaderSize) / 4) {
    throw WireError("wire: size mismatch (header claims " +
                    std::to_string(d) + " elements, blob has " +
                    std::to_string((bytes.size() - kHeaderSize) / 4) + ")");
  }
  const std::span<const std::uint8_t> body = bytes.subspan(kHeaderSize);
  if (crc32(body) != expected_crc) {
    throw WireError("wire: checksum mismatch — payload corrupted");
  }
  msg.payload.resize(d);
  if (d > 0) std::memcpy(msg.payload.data(), body.data(), body.size());
  return msg;
}

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> body,
                                std::size_t max_frame) {
  if (body.size() > max_frame || body.size() > 0xFFFFFFFFU) {
    throw WireError("wire: frame body of " + std::to_string(body.size()) +
                    " bytes exceeds the frame limit");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFramePrefixBytes + body.size());
  put_u32(out, std::uint32_t(body.size()));
  put_u32(out, crc32(body));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the length prefix as soon as it is complete: a hostile or
  // corrupted prefix fails here, before next() would size a frame by it.
  if (buffer_.size() - consumed_ >= 4) {
    const std::uint32_t len =
        ByteReader(buffer_, "wire stream", consumed_).u32();
    if (len > max_frame_) {
      throw WireError("wire: stream frame of " + std::to_string(len) +
                      " bytes exceeds the frame limit");
    }
  }
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::next() {
  for (;;) {
    const std::size_t available = buffer_.size() - consumed_;
    if (available < kFramePrefixBytes) break;
    ByteReader prefix(buffer_, "wire stream", consumed_);
    const std::uint32_t len = prefix.u32();
    const std::uint32_t expected_crc = prefix.u32();
    if (len > max_frame_) {
      throw WireError("wire: stream frame of " + std::to_string(len) +
                      " bytes exceeds the frame limit");
    }
    if (available < kFramePrefixBytes + std::size_t(len)) break;
    const std::span<const std::uint8_t> body_view(
        buffer_.data() + consumed_ + kFramePrefixBytes, std::size_t(len));
    if (crc32(body_view) != expected_crc) {
      // A flipped bit on the wire loses this message, nothing more: skip
      // the frame, keep the stream, and let the sender's retry layer see
      // the silence.
      consumed_ += kFramePrefixBytes + std::size_t(len);
      ++corrupt_frames_;
      continue;
    }
    std::vector<std::uint8_t> body(body_view.begin(), body_view.end());
    consumed_ += kFramePrefixBytes + std::size_t(len);
    return body;
  }
  // Compact once the prefix has nothing complete left behind it, so a
  // long-lived connection doesn't accrete every frame it ever saw.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + std::ptrdiff_t(consumed_));
    consumed_ = 0;
  }
  return std::nullopt;
}

}  // namespace garfield::net
