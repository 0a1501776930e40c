// Wire format for flat vectors.
//
// The paper serializes tensors through protocol buffers (§4.1); this is
// the equivalent boundary format for anything garfield persists or ships
// outside process memory (checkpoints, traces). Layout, little-endian:
//
//   offset size  field
//   0      4     magic "GRFD"
//   4      4     version (currently 1)
//   8      8     iteration tag
//   16     8     element count d
//   24     4     CRC-32 of the payload bytes
//   28     4d    payload (float32)
//
// decode() verifies magic, version, size consistency and the checksum, and
// throws WireError on any mismatch — a truncated or bit-flipped blob never
// becomes a silently-wrong model.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/vecops.h"

namespace garfield::net {

/// Corruption or format violation detected while decoding.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// ----------------------------------------------------------- byte layout
//
// Every binary layout in the tree (wire messages, tcp frames, checkpoint
// digest trailers, the node result blob) is fixed-width little-endian:
// written with the put_* appenders, read back through one ByteReader.

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(std::uint8_t(v));
  out.push_back(std::uint8_t(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(std::uint8_t(v >> (8 * i)));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reads, advancing from `at`: a short or
/// lying blob surfaces as a WireError naming `context`, never as UB.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::string_view context,
             std::size_t at = 0)
      : bytes_(bytes), context_(context), at_(at) {}

  /// Throws unless `n` more bytes remain.
  void need(std::size_t n) const {
    if (bytes_.size() - at_ < n) {
      throw WireError(std::string(context_) + ": truncated (" +
                      std::to_string(n) + " bytes needed at offset " +
                      std::to_string(at_) + " of " +
                      std::to_string(bytes_.size()) + ")");
    }
  }
  std::uint8_t u8() { return std::uint8_t(little_endian(1)); }
  std::uint16_t u16() { return std::uint16_t(little_endian(2)); }
  std::uint32_t u32() { return std::uint32_t(little_endian(4)); }
  std::uint64_t u64() { return little_endian(8); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + at_), n);
    at_ += n;
    return s;
  }
  void skip(std::size_t n) {
    need(n);
    at_ += n;
  }
  /// The unread tail.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return bytes_.subspan(at_);
  }

 private:
  std::uint64_t little_endian(std::size_t n) {
    need(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= std::uint64_t(bytes_[at_ + i]) << (8 * i);
    }
    at_ += n;
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::string_view context_;
  std::size_t at_;
};

/// A decoded message.
struct WireMessage {
  std::uint64_t iteration = 0;
  tensor::FlatVector payload;
};

/// CRC-32 (IEEE 802.3 polynomial) of a byte range.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Total encoded size for a d-element vector.
[[nodiscard]] std::size_t wire_size(std::size_t d);

/// Serialize payload with the given iteration tag.
[[nodiscard]] std::vector<std::uint8_t> encode(
    std::uint64_t iteration, std::span<const float> payload);

/// Byte length of the message at the head of `bytes`, per its header.
/// Validates magic, version and that the blob holds the full message;
/// throws WireError otherwise. Lets containers (e.g. checkpoints) store
/// several messages back to back and split them before decode().
[[nodiscard]] std::size_t encoded_size(std::span<const std::uint8_t> bytes);

/// Parse and verify; throws WireError on malformed/corrupt input.
[[nodiscard]] WireMessage decode(std::span<const std::uint8_t> bytes);

// ------------------------------------------------------------- streaming
//
// The TCP transport ships frames over byte streams, where read() returns
// arbitrary slices: a frame may arrive split across many reads or several
// frames may coalesce into one. frame()/FrameDecoder are the stream
// boundary: an 8-byte little-endian prefix — 4 bytes of body length, then
// a CRC-32 of the body — followed by the frame body, reassembled
// incrementally on the receive side. The frame CRC makes a flipped bit on
// the wire a *lost message* rather than a corrupted delivery or a dead
// peer: the decoder verifies every body against its prefix CRC, silently
// skips frames that fail (counting them in corrupt_frames()), and keeps
// the stream alive — the retry layer above treats the skip exactly like a
// drop.

/// Largest frame body a decoder accepts by default — a corrupted or
/// hostile length prefix must not become a multi-gigabyte allocation.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1U << 30;

/// Bytes the stream prefix adds ahead of every frame body: u32 length +
/// u32 CRC-32 of the body.
inline constexpr std::size_t kFramePrefixBytes = 8;

/// Prepend the length + CRC prefix: the unit every stream write sends.
/// Throws WireError when `body` exceeds the u32 prefix (or `max_frame`).
[[nodiscard]] std::vector<std::uint8_t> frame(
    std::span<const std::uint8_t> body,
    std::size_t max_frame = kDefaultMaxFrameBytes);

/// Incremental reassembly of length-prefixed frames from a byte stream.
/// feed() arbitrary read slices, then drain complete frame bodies with
/// next(). idle() distinguishes a clean EOF (stream ended on a frame
/// boundary) from a truncated tail — the stream-level analogue of
/// decode()'s truncation check.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame = kDefaultMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Append one read's worth of stream bytes. Throws WireError as soon as
  /// a buffered length prefix exceeds max_frame — before any allocation.
  void feed(std::span<const std::uint8_t> bytes);

  /// The next complete frame body whose CRC verifies, or nullopt until
  /// more bytes arrive. A complete frame that fails its prefix CRC is
  /// skipped in place (corrupt_frames() counts it) and the scan continues
  /// with the following frame — wire corruption loses one message, it
  /// does not kill the stream.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  /// True when no partial frame is buffered — EOF here is clean; EOF with
  /// idle() false means the peer died mid-frame.
  [[nodiscard]] bool idle() const { return buffer_.size() == consumed_; }

  /// Frames discarded because their body failed the prefix CRC.
  [[nodiscard]] std::uint64_t corrupt_frames() const {
    return corrupt_frames_;
  }

 private:
  std::size_t max_frame_;
  std::vector<std::uint8_t> buffer_;
  /// Read cursor into buffer_: consumed frames advance it and the prefix
  /// is compacted away only when the buffer drains, so a burst of
  /// coalesced frames costs one erase, not one per frame.
  std::size_t consumed_ = 0;
  std::uint64_t corrupt_frames_ = 0;
};

}  // namespace garfield::net
