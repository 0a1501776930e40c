// Multi-process TCP backend for the Transport seam.
//
// Each node of the deployment runs as its own OS process (the paper's
// actual topology, §4: one Garfield process per machine); this transport
// is one process's endpoint. Frames are length-prefixed (net/wire
// FrameDecoder) over localhost TCP streams, payloads travel as net/wire
// blobs (magic + CRC), and the full mesh is built at start():
//
//  - the parent orchestrator (core/node_runner.h) binds one listening
//    socket per rank *before* forking, so ports are race-free and every
//    connect() lands on an established backlog;
//  - rank r connects to every lower rank and accepts from every higher
//    rank, identifying itself with a hello frame — connects first, then
//    accepts, so the mesh construction cannot deadlock;
//  - requests carry a call id, the window-iteration tag and the caller's
//    remaining timeout budget; the callee's Cluster runs the identical
//    lifecycle-gate -> handler chain it runs in process, parking a
//    not-ready request on the callee until its notify_ready() or its
//    deadline, and every request is answered by exactly one reply frame
//    (a silent callee sends an empty reply, so callers never hang on a
//    crashed node);
//  - NetworkConditions delays elapse sender-side on the Cluster's timer
//    wheel before send() writes the frame, on the thread that runs the
//    send: a pool thread, or the caller of a collect() that awaits every
//    peer — `wan:`/`hetero:`/`churn:` specs drive both backends
//    identically;
//  - arrivals hop from the peer's reader thread to the Cluster's pool
//    (the post hook), so handler compute never runs on a reader;
//  - a corrupted frame body fails the stream prefix CRC and is discarded
//    by the receiver's FrameDecoder — one lost message the sender's fault
//    retry layer recovers, never a dead stream;
//  - peer death (EOF, reset, unrecoverable stream desync) resolves that
//    peer's pending calls with nullptr: fail-silence, the same shape a
//    crashed node has — but no longer silent to the operator: the death
//    is counted (NetStats::peer_deaths) and announced on stderr naming
//    the local and dead ranks. A process past its done barrier announces
//    a clean exit on every stream before closing it, so its EOF is
//    teardown and counts as no death.
//
// Beyond the Transport contract the backend exposes two process-level
// barriers the orchestrator drives: a ready barrier (no request may arrive
// before every process has registered its handlers) and a done/quiescence
// barrier (no process may tear down while a peer still pulls step-tagged
// state from it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::net {

class TcpTransport final : public Transport {
 public:
  struct Options {
    /// This process's node id; also its index into `ports`.
    std::size_t rank = 0;
    /// Total nodes in the deployment (== Cluster::Options::nodes).
    std::size_t nodes = 1;
    /// Inherited listening socket for this rank, already bound to
    /// 127.0.0.1 and listening (the orchestrator binds pre-fork). The
    /// transport takes ownership and closes it once the mesh is up.
    int listen_fd = -1;
    /// Localhost port of every rank's listener, indexed by rank.
    std::vector<std::uint16_t> ports;
  };

  explicit TcpTransport(const Options& options);
  /// Shuts down if ~Cluster has not, then closes the sockets — only here,
  /// after the Cluster's pool has drained, because reply writes on pool
  /// threads can target them until then.
  ~TcpTransport() override;

  /// Builds the full mesh (connect to lower ranks, accept higher ranks)
  /// and starts one reader thread per peer. Blocks until every link is up;
  /// throws std::runtime_error if a sibling process never shows.
  void start(DeliverFn deliver, Post post) override;

  /// A request to this rank takes the in-process path (Transport::send);
  /// any other is framed and written to its peer's stream inline.
  void send(Request request, Clock::time_point deadline,
            Respond on_reply) override;
  [[nodiscard]] bool remote() const override { return true; }
  /// Shut the streams and join the readers, which post to the Cluster's
  /// pool and so must stop before it does. Later writes fail as a dead
  /// peer's would.
  void shutdown() override;

  // Process-level barriers, driven by the orchestrator (node_runner).

  /// Broadcast "my handlers are registered" to every peer. No request may
  /// be initiated before await_ready() — a pull that raced a peer's
  /// object-graph construction would see a missing handler as a silent
  /// decline and silently change quorum membership.
  void announce_ready();
  /// Wait until every peer announced ready (a dead peer counts, so a
  /// crashed sibling fails the run loudly downstream instead of hanging
  /// the barrier). False on timeout.
  [[nodiscard]] bool await_ready(Duration timeout);

  /// Broadcast "my driving loops have finished". The process keeps serving
  /// incoming requests until await_done() returns, so peers still pulling
  /// step-tagged state for the final iterations are never cut off.
  void announce_done();
  /// Wait until every driver rank (< driver_count, excluding self)
  /// announced done or died. False on timeout.
  [[nodiscard]] bool await_done(std::size_t driver_count, Duration timeout);

 private:
  struct Peer {
    int fd = -1;
    /// Serializes frame writes; a frame interleaved with another's bytes
    /// is stream corruption, not a race the decoder can survive.
    util::Mutex write_mutex;
    /// Cleared by the writer on EPIPE and by the reader on EOF; checked
    /// under write_mutex before every write.
    std::atomic<bool> alive{false};
    /// Set by the reader when the peer announced a clean exit.
    std::atomic<bool> exited{false};
    std::thread reader;
  };

  /// Write a length+CRC-prefixed frame to `peer`; false when the peer is
  /// down. With `corrupt` set the frame ships with a flipped body byte —
  /// the fault plane's wire damage, which the receiver's stream CRC
  /// discards.
  [[nodiscard]] bool write_frame(Peer& peer,
                                 std::span<const std::uint8_t> body,
                                 bool corrupt = false)
      GARFIELD_EXCLUDES(pending_mutex_);
  /// Write already-framed bytes under the peer's write lock, uncounted;
  /// false when the peer is down.
  [[nodiscard]] bool send_all(Peer& peer,
                              std::span<const std::uint8_t> framed);
  void broadcast_control(std::uint8_t type);
  void reader_loop(std::size_t peer_rank);
  void handle_frame(std::size_t peer_rank,
                    std::span<const std::uint8_t> body);
  /// Resolve one pending call (no-op if already resolved).
  void resolve_pending(std::uint64_t cid, PayloadPtr payload)
      GARFIELD_EXCLUDES(pending_mutex_);
  /// Peer died: resolve its pending calls with nullptr and unblock both
  /// barriers. Called from the peer's reader thread only.
  void on_peer_down(std::size_t peer_rank);

  Options options_;
  std::size_t rank_;
  std::size_t nodes_;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< by rank; self is null
  std::atomic<bool> down_{false};
  /// await_done() succeeded: shutdown() announces a clean exit.
  std::atomic<bool> done_passed_{false};

  struct PendingCall {
    Respond respond;
    std::size_t peer = 0;
  };
  util::Mutex pending_mutex_;
  std::unordered_map<std::uint64_t, PendingCall> pending_
      GARFIELD_GUARDED_BY(pending_mutex_);
  std::atomic<std::uint64_t> next_cid_{1};

  util::Mutex control_mutex_;
  util::CondVar control_cv_;
  std::vector<bool> ready_ GARFIELD_GUARDED_BY(control_mutex_);
  std::vector<bool> done_ GARFIELD_GUARDED_BY(control_mutex_);
};

}  // namespace garfield::net
