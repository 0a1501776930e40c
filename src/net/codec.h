// Gradient-compression wire codecs (the `codec=` config key).
//
// The paper's deployments are communication-bound (Fig 8/9: decentralized
// traffic grows O(n^2); the TCP backend runs an order of magnitude slower
// than in-process at identical floats_transferred). A wire codec shrinks
// what crosses the Transport seam without touching the learning code: the
// sender encodes a dense FlatVector into a (much) shorter FlatVector, the
// receiver decodes it back to full dimension, and everything in between —
// wire framing, byte accounting, fault injection — rides the existing
// PayloadPtr machinery unchanged.
//
// Spec grammar (util/spec.h):
//
//   codec := "none"                  identity (the default)
//          | "int8"                  per-tensor linear quantization to
//                                    signed bytes, 4 packed per wire float
//                                    (~4x fewer wire floats, asymptotically)
//          | "topk:k=0.01"           top-k sparsification: keep the k*d
//                                    largest-|value| coordinates as
//                                    (index, value) pairs (k in (0, 1])
//
// topk ranks a coordinate by its float bits with the sign cleared: for
// every non-NaN float that key orders as |value| does (+0 and -0 tie), and
// a NaN's key is above +inf's, so a frame keeps its NaN coordinates first
// and the receiver's finiteness gate rejects it. Ties go to the lower
// index. A radix select finds the kc-th largest key (one pass counting
// the keys by exponent byte, then passes counting only the keys that share
// the digits found so far), and one branch-free pass in index order
// writes the kept coordinates into the frame: a few microseconds at
// d = 874 (bench_codec). int8 maps non-finite coordinates to 0.
//
// Two payload classes, because one lossy knob does not fit both:
//
//  - *gradient* payloads (worker gradient replies, decentralized gradient
//    gossip) tolerate aggressive sparsification — encode_gradient applies
//    the configured codec, with an optional caller-owned error-feedback
//    residual (the classic memory trick: what topk dropped this round is
//    added back next round, so the compression error stays bounded instead
//    of accumulating);
//  - *state* payloads (model snapshots riding get_gradients requests, the
//    publish_model ring, get_models pulls) would diverge under topk — a
//    model missing 99% of its coordinates is not a model — so encode_state
//    degrades any lossy codec to int8 (documented determinism caveat: the
//    quantization round-trip perturbs trajectories vs codec=none, but
//    identically on every backend and every run).
//
// Wire layout (all plain floats, so the payload is an ordinary FlatVector
// and the wire layer's memcpy round-trip preserves it bit-exactly; the
// magic words are NaN-space bit patterns no real gradient produces):
//
//   topk:  [magic, d, k] + k index floats + k value floats
//   int8:  [magic, d, scale] + ceil(d / 4) floats of 4 packed int8 each
//
// decode() is the ingress gate: a Byzantine peer can ship arbitrary bytes,
// so every structural violation (wrong magic, dimension mismatch,
// out-of-range index, non-finite scale) returns nullopt — the caller
// treats the payload exactly like a non-finite plain gradient (rejected,
// counted, never thrown through). dense() is that gate as both ingress
// points (Server::validate, a worker's request argument) call it.
//
// Where frames are made and counted: the codec is a net::Cluster option
// every node reads. A frame is made once, where its payload is made — a
// server snapshot's state frame when the snapshot is written, a gossip
// publication's gradient frame when it is published, a worker reply's
// gradient frame as it is served to its requester, a Byzantine node's
// crafted frame by the attacker — and kept with that payload. The Cluster
// counts what each frame it sends saved (saved_bytes(), NetStats::
// bytes_saved), next to its float count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/transport.h"

namespace garfield::net {

enum class CodecKind { kNone, kTopK, kInt8 };

/// Parsed `codec=` spec. parse() throws std::invalid_argument on unknown
/// names, out-of-range k, or stray options — a typo'd codec must fail at
/// DeploymentConfig::validate(), never run silently uncompressed.
struct CodecSpec {
  CodecKind kind = CodecKind::kNone;
  double k = 0.01;  ///< topk fraction of coordinates kept, in (0, 1]

  [[nodiscard]] static CodecSpec parse(const std::string& spec);

  [[nodiscard]] bool identity() const { return kind == CodecKind::kNone; }

  /// Coordinates topk keeps for dimension d (>= 1 for non-empty tensors).
  [[nodiscard]] std::size_t topk_count(std::size_t d) const;

  /// Wire floats per model float for a dimension-d *gradient* payload —
  /// what the analytic plane (sim/deployment_sim.h) scales gradient
  /// communication volumes by, int8's ratio standing in for model payloads
  /// of any lossy codec. 1.0 for none; never below it for degenerate tiny d.
  [[nodiscard]] double wire_ratio(std::size_t d) const;
};

/// Stateless encode/decode pair for one parsed spec. Thread-safe (no
/// mutable state); the error-feedback residual is caller-owned so each
/// sender keeps its own.
class Codec {
 public:
  Codec() = default;
  explicit Codec(CodecSpec spec) : spec_(spec) {}

  [[nodiscard]] const CodecSpec& spec() const { return spec_; }
  [[nodiscard]] bool identity() const { return spec_.identity(); }

  /// Encode a gradient-class payload with the configured codec. When
  /// `residual` is non-null it is the caller's error-feedback memory:
  /// sized to the tensor on first use, then `dense + residual` is formed
  /// in its storage, compressed, and left as what this round's encoding
  /// dropped. The frame is the one allocation once the residual is sized.
  /// Identity codec returns a copy of `dense` untouched.
  [[nodiscard]] Payload encode_gradient(const Payload& dense,
                                        Payload* residual = nullptr) const;

  /// Encode a state-class payload (model snapshot): lossy codecs degrade
  /// to int8 (see header block), identity stays identity.
  [[nodiscard]] Payload encode_state(const Payload& dense) const;

  /// Decode an encoded payload back to `dimension` dense floats. Returns
  /// nullopt on any structural violation — the Byzantine-garbage ingress
  /// gate. A payload without a codec magic word must hold exactly
  /// `dimension` floats and comes back as a copy. Any codec's frames
  /// decode, whatever spec the receiver holds.
  [[nodiscard]] static std::optional<Payload> decode(const Payload& encoded,
                                                     std::size_t dimension);

  /// The dense vector a received payload stands for: `payload` itself when
  /// it is plain and holds `dimension` floats, the decoded vector when it
  /// is a well-formed frame, nullptr otherwise (missing, a plain payload
  /// of another size, a frame decode() rejects).
  [[nodiscard]] static PayloadPtr dense(PayloadPtr payload,
                                        std::size_t dimension);

  /// Wire bytes `frame` saves against the plain vector it encodes:
  /// wire_size(d) - wire_size(frame.size()) for a frame of a d-float
  /// vector (d read and range-checked as decode() does) that is smaller
  /// than plain; 0 for a plain payload, a malformed header, or a frame no
  /// smaller than plain (a tiny tensor's 3-float header).
  [[nodiscard]] static std::uint64_t saved_bytes(const Payload& frame);

  /// True when `payload` opens with one of the codec magic words — how a
  /// receiver distinguishes an encoded frame from a plain dense one.
  [[nodiscard]] static bool looks_encoded(const Payload& payload);

 private:
  CodecSpec spec_;
};

}  // namespace garfield::net
