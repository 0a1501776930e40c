#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

#include "net/wire.h"

namespace garfield::core {

namespace {

/// Digest trailer: magic "GCKD" + CRC-32 of every byte before it.
constexpr std::uint32_t kDigestMagic = 0x444b4347;  // "GCKD" little-endian
constexpr std::size_t kDigestTrailerBytes = 8;

/// Digest check first, message decodes second — a blob that fails its
/// digest is rejected before a single header field is trusted. Returns
/// the body (trailer stripped).
std::span<const std::uint8_t> verify_digest(
    std::span<const std::uint8_t> bytes, const std::string& context) {
  if (bytes.size() < net::wire_size(0) + kDigestTrailerBytes) {
    throw net::WireError(context + ": truncated blob (" +
                         std::to_string(bytes.size()) +
                         " bytes, shorter than a message plus digest)");
  }
  const std::size_t body_size = bytes.size() - kDigestTrailerBytes;
  net::ByteReader trailer(bytes, context, body_size);
  if (trailer.u32() != kDigestMagic) {
    throw net::WireError(context +
                         ": missing digest trailer (pre-digest blob, or "
                         "the trailer itself was damaged)");
  }
  const std::uint32_t stored = trailer.u32();
  if (net::crc32(bytes.first(body_size)) != stored) {
    throw net::WireError(context +
                         ": digest mismatch — state blob corrupted or "
                         "tampered with; rejecting before decode");
  }
  return bytes.first(body_size);
}

/// True when the blob ends in a digest trailer (by magic). Distinguishes
/// the current format from pre-digest on-disk checkpoints.
bool has_digest_trailer(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= net::wire_size(0) + kDigestTrailerBytes &&
         net::ByteReader(bytes, "checkpoint",
                         bytes.size() - kDigestTrailerBytes)
                 .u32() == kDigestMagic;
}

/// Decode the message body (digest already stripped/absent): parameters
/// message, optionally followed by a velocity message with a matching
/// iteration tag and dimension.
Checkpoint decode_messages(std::span<const std::uint8_t> body,
                           const std::string& context) {
  const std::size_t head = net::encoded_size(body);
  net::WireMessage msg = net::decode(body.first(head));
  Checkpoint checkpoint{msg.iteration, std::move(msg.payload), {}};
  if (head < body.size()) {
    net::WireMessage tail = net::decode(body.subspan(head));
    if (tail.iteration != checkpoint.iteration) {
      throw net::WireError(
          context + ": velocity iteration tag mismatch (parameters at " +
          std::to_string(checkpoint.iteration) + ", velocity at " +
          std::to_string(tail.iteration) + ")");
    }
    // A mismatched velocity would be silently discarded by the optimizer's
    // first step — fail loudly here instead, like every other corruption.
    if (tail.payload.size() != checkpoint.parameters.size()) {
      throw net::WireError(
          context + ": velocity dimension mismatch (" +
          std::to_string(tail.payload.size()) + " vs " +
          std::to_string(checkpoint.parameters.size()) + " parameters)");
    }
    checkpoint.velocity = std::move(tail.payload);
  }
  return checkpoint;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint_blob(
    const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> blob =
      net::encode(checkpoint.iteration, checkpoint.parameters);
  if (!checkpoint.velocity.empty()) {
    const std::vector<std::uint8_t> tail =
        net::encode(checkpoint.iteration, checkpoint.velocity);
    blob.insert(blob.end(), tail.begin(), tail.end());
  }
  const std::uint32_t digest = net::crc32(blob);
  net::put_u32(blob, kDigestMagic);
  net::put_u32(blob, digest);
  return blob;
}

Checkpoint decode_checkpoint_blob(std::span<const std::uint8_t> bytes,
                                  const std::string& context) {
  return decode_messages(verify_digest(bytes, context), context);
}

net::Payload pack_bytes(std::span<const std::uint8_t> bytes) {
  net::Payload carrier(1 + (bytes.size() + 3) / 4, 0.0F);
  const std::uint32_t size = std::uint32_t(bytes.size());
  std::memcpy(carrier.data(), &size, 4);
  if (!bytes.empty()) {
    std::memcpy(carrier.data() + 1, bytes.data(), bytes.size());
  }
  return carrier;
}

std::vector<std::uint8_t> unpack_bytes(std::span<const float> carrier,
                                       const std::string& context) {
  if (carrier.empty()) {
    throw net::WireError(context + ": empty byte carrier");
  }
  std::uint32_t size = 0;
  std::memcpy(&size, carrier.data(), 4);
  const std::size_t capacity = (carrier.size() - 1) * 4;
  if (size > capacity || capacity - size >= 4) {
    throw net::WireError(context + ": byte carrier claims " +
                         std::to_string(size) + " bytes but holds " +
                         std::to_string(capacity));
  }
  std::vector<std::uint8_t> bytes(size);
  if (size > 0) std::memcpy(bytes.data(), carrier.data() + 1, size);
  return bytes;
}

void save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  const std::vector<std::uint8_t> blob = encode_checkpoint_blob(checkpoint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot open '" + tmp +
                               "' for writing");
    }
    out.write(reinterpret_cast<const char*>(blob.data()),
              std::streamsize(blob.size()));
    if (!out) throw std::runtime_error("checkpoint: write failed for " + tmp);
  }
  // The rename only makes the checkpoint durable if the tmp file's bytes
  // reached the disk first — otherwise a crash right after the rename can
  // leave `path` pointing at a hole, exactly the corrupt state a
  // recovering node would then transfer. fsync before the swap.
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("checkpoint: cannot reopen '" + tmp +
                             "' for fsync");
  }
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) {
    std::error_code discard;
    std::filesystem::remove(tmp, discard);
    throw std::runtime_error("checkpoint: fsync failed for " + tmp);
  }
  std::error_code rename_error;
  std::filesystem::rename(tmp, path, rename_error);  // atomic on POSIX
  if (rename_error) {
    // Leave the previous checkpoint (if any) untouched; the tmp file is
    // ours to clean up.
    std::error_code discard;
    std::filesystem::remove(tmp, discard);
    throw std::runtime_error("checkpoint: rename to '" + path +
                             "' failed: " + rename_error.message());
  }
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(size), 0);
  in.read(reinterpret_cast<char*>(blob.data()), size);
  if (!in) throw std::runtime_error("checkpoint: read failed for " + path);
  const std::span<const std::uint8_t> bytes(blob);
  // Size-gate before the decoder sees the blob: the digest check reads the
  // trailer, so an empty or short file would surface as a confusing wire
  // error instead of naming the real problem — the checkpoint on disk is
  // incomplete.
  if (bytes.empty()) {
    throw net::WireError("checkpoint: empty file '" + path + "'");
  }
  if (bytes.size() < net::wire_size(0)) {
    throw net::WireError("checkpoint: truncated file '" + path + "' (" +
                         std::to_string(bytes.size()) +
                         " bytes, shorter than a header)");
  }
  // Digest before any decode: a bit-flipped blob that keeps a plausible
  // message header must never reach the field decoders. Files written
  // before the digest trailer existed carry bare messages; those still
  // load on the per-message CRCs alone (local disk only — the RPC
  // state-transfer path always requires the digest).
  if (!has_digest_trailer(bytes)) {
    return decode_messages(bytes, "checkpoint '" + path + "'");
  }
  return decode_checkpoint_blob(bytes, "checkpoint '" + path + "'");
}

}  // namespace garfield::core
