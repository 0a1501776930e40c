#include "net/tcp_transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/wire.h"

namespace garfield::net {

namespace {

// Frame types. Every frame body starts with one of these; the layouts are
// fixed-width little-endian (net/wire's put_* and ByteReader), payloads
// are net/wire blobs so they keep their magic + CRC end to end.
constexpr std::uint8_t kFrameRequest = 1;
constexpr std::uint8_t kFrameReply = 2;
constexpr std::uint8_t kFrameHello = 3;
constexpr std::uint8_t kFrameDone = 4;
constexpr std::uint8_t kFrameReady = 5;
/// "I passed the done barrier and am closing": the EOF that follows is
/// teardown, not a peer death. Counted in no NetStats field.
constexpr std::uint8_t kFrameExit = 6;

/// How long start() waits for every sibling process to join the mesh.
constexpr Duration kMeshDeadline{std::chrono::seconds(30)};

/// Read exactly `n` bytes (the hello handshake, before a reader thread
/// owns the socket). False on EOF/error.
bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += std::size_t(r);
  }
  return true;
}

std::vector<std::uint8_t> control_body(std::uint8_t type,
                                       std::uint32_t rank) {
  std::vector<std::uint8_t> body;
  body.reserve(5);
  body.push_back(type);
  put_u32(body, rank);
  return body;
}

int connect_localhost(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(const Options& options)
    : options_(options), rank_(options.rank), nodes_(options.nodes) {
  if (nodes_ == 0 || rank_ >= nodes_) {
    throw std::invalid_argument("TcpTransport: rank " +
                                std::to_string(rank_) + " outside " +
                                std::to_string(nodes_) + " nodes");
  }
  if (options_.ports.size() != nodes_) {
    throw std::invalid_argument(
        "TcpTransport: ports vector does not cover every rank");
  }
  peers_.resize(nodes_);
  {
    util::MutexLock lock(control_mutex_);
    ready_.assign(nodes_, false);
    done_.assign(nodes_, false);
  }
}

TcpTransport::~TcpTransport() {
  shutdown();
  for (std::size_t r = 0; r < nodes_; ++r) {
    if (peers_[r] && peers_[r]->fd >= 0) ::close(peers_[r]->fd);
  }
  if (options_.listen_fd >= 0) ::close(options_.listen_fd);
}

void TcpTransport::start(DeliverFn deliver, Post post) {
  Transport::start(std::move(deliver), std::move(post));
  const auto deadline = Clock::now() + kMeshDeadline;
  // Connects first: every rank's listener was bound and put into listen()
  // by the orchestrator before any process forked, so these succeed
  // without waiting on the peer's accept loop — which is exactly why the
  // connect-then-accept order cannot deadlock.
  for (std::size_t r = 0; r < rank_; ++r) {
    const int fd = connect_localhost(options_.ports[r]);
    if (fd < 0) {
      throw std::runtime_error("TcpTransport: rank " + std::to_string(rank_) +
                               " failed to connect to rank " +
                               std::to_string(r) + ": " +
                               std::strerror(errno));
    }
    set_nodelay(fd);
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peer->alive.store(true);
    peers_[r] = std::move(peer);
    if (!write_frame(*peers_[r],
                     control_body(kFrameHello, std::uint32_t(rank_)))) {
      throw std::runtime_error("TcpTransport: hello to rank " +
                               std::to_string(r) + " failed");
    }
  }
  // Accept one connection per higher rank; the hello frame says which.
  for (std::size_t pending = nodes_ - 1 - rank_; pending > 0; --pending) {
    pollfd pfd{};
    pfd.fd = options_.listen_fd;
    pfd.events = POLLIN;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now());
    if (remaining.count() <= 0 ||
        ::poll(&pfd, 1, int(remaining.count())) <= 0) {
      throw std::runtime_error("TcpTransport: rank " + std::to_string(rank_) +
                               " timed out waiting for peer connections");
    }
    const int fd = ::accept(options_.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      throw std::runtime_error("TcpTransport: accept failed: " +
                               std::string(std::strerror(errno)));
    }
    set_nodelay(fd);
    // Hello frame: 8-byte length+CRC prefix + type + rank.
    std::uint8_t raw[kFramePrefixBytes + 5];
    if (!read_exact(fd, raw, sizeof(raw))) {
      ::close(fd);
      throw std::runtime_error("TcpTransport: peer hung up mid-hello");
    }
    ByteReader reader(
        std::span<const std::uint8_t>(raw + kFramePrefixBytes, 5),
        "tcp hello");
    if (reader.u8() != kFrameHello) {
      ::close(fd);
      throw std::runtime_error("TcpTransport: first frame was not hello");
    }
    const std::uint32_t peer_rank = reader.u32();
    if (peer_rank <= rank_ || peer_rank >= nodes_ || peers_[peer_rank]) {
      ::close(fd);
      throw std::runtime_error("TcpTransport: bogus hello rank " +
                               std::to_string(peer_rank));
    }
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peer->alive.store(true);
    peers_[peer_rank] = std::move(peer);
  }
  ::close(options_.listen_fd);
  options_.listen_fd = -1;
  for (std::size_t r = 0; r < nodes_; ++r) {
    if (!peers_[r]) continue;
    peers_[r]->reader = std::thread([this, r] { reader_loop(r); });
  }
}

void TcpTransport::send(Request request, Clock::time_point deadline,
                        Respond on_reply) {
  assert(request.to < nodes_);
  if (request.to == rank_) {
    // The loopback edge of a multi-process deployment is the in-process
    // backend.
    Transport::send(std::move(request), deadline, std::move(on_reply));
    return;
  }
  const std::size_t to = request.to;
  Peer* peer = peers_[to].get();
  const std::uint64_t cid = next_cid_.fetch_add(1, std::memory_order_relaxed);
  // A wire-corrupt frame can never be answered (the receiver's CRC
  // discards it before the callee sees a request), so it gets no pending
  // entry: the exchange resolves silent right after the damage ships.
  if (!request.wire_corrupt) {
    util::MutexLock lock(pending_mutex_);
    pending_.emplace(cid, PendingCall{std::move(on_reply), to});
  }
  // Ship the remaining budget, not an absolute time: steady_clock epochs
  // do not line up across processes. The callee re-anchors it on arrival.
  const auto now = Clock::now();
  const std::uint64_t budget_us =
      deadline > now
          ? std::uint64_t(
                std::chrono::duration_cast<Duration>(deadline - now).count())
          : 0;
  std::vector<std::uint8_t> body;
  body.push_back(kFrameRequest);
  put_u64(body, cid);
  put_u32(body, std::uint32_t(request.from));
  put_u32(body, std::uint32_t(request.to));
  put_u64(body, request.iteration);
  body.push_back(request.window_iteration ? 1 : 0);
  put_u64(body, request.window_iteration ? *request.window_iteration : 0);
  put_u64(body, budget_us);
  assert(request.method.size() <= 0xFFFF);
  put_u16(body, std::uint16_t(request.method.size()));
  body.insert(body.end(), request.method.begin(), request.method.end());
  body.push_back(request.argument ? 1 : 0);
  if (request.argument) {
    const std::vector<std::uint8_t> blob =
        encode(request.iteration, *request.argument);
    body.insert(body.end(), blob.begin(), blob.end());
  }
  // The frame-size formulas in transport.cpp are the single source of
  // truth for byte accounting; the real frame must match them.
  assert(kFramePrefixBytes + body.size() == request_frame_bytes(request));
  if (request.wire_corrupt) {
    if (peer) (void)write_frame(*peer, body, /*corrupt=*/true);
    on_reply(nullptr);
    return;
  }
  if (!peer || !write_frame(*peer, body)) {
    resolve_pending(cid, nullptr);
  }
}

bool TcpTransport::write_frame(Peer& peer,
                               std::span<const std::uint8_t> body,
                               bool corrupt) {
  std::vector<std::uint8_t> framed = frame(body);
  if (corrupt) {
    // Flip one body byte AFTER the prefix CRC was computed: the frame
    // stays length-consistent (the stream cannot desync) but fails the
    // receiver's CRC check and is discarded — a genuine wire fault.
    framed[kFramePrefixBytes] ^= 0x01;
  }
  if (!send_all(peer, framed)) return false;
  bytes_sent_.fetch_add(framed.size(), std::memory_order_relaxed);
  return true;
}

bool TcpTransport::send_all(Peer& peer,
                            std::span<const std::uint8_t> framed) {
  util::MutexLock lock(peer.write_mutex);
  if (!peer.alive.load(std::memory_order_relaxed)) return false;
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(peer.fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Peer is gone (EPIPE/reset). Mark it down for writers and poke the
      // socket so the reader thread notices and runs on_peer_down once.
      peer.alive.store(false, std::memory_order_relaxed);
      (void)::shutdown(peer.fd, SHUT_RDWR);
      return false;
    }
    sent += std::size_t(n);
  }
  return true;
}

void TcpTransport::broadcast_control(std::uint8_t type) {
  const std::vector<std::uint8_t> body =
      control_body(type, std::uint32_t(rank_));
  for (std::size_t r = 0; r < nodes_; ++r) {
    if (!peers_[r]) continue;
    (void)write_frame(*peers_[r], body);
  }
}

void TcpTransport::announce_ready() { broadcast_control(kFrameReady); }

bool TcpTransport::await_ready(Duration timeout) {
  util::MutexLock lock(control_mutex_);
  return control_cv_.wait_for(control_mutex_, timeout,
                              [&]() GARFIELD_REQUIRES(control_mutex_) {
                                for (std::size_t r = 0; r < nodes_; ++r) {
                                  if (r != rank_ && !ready_[r]) return false;
                                }
                                return true;
                              });
}

void TcpTransport::announce_done() { broadcast_control(kFrameDone); }

bool TcpTransport::await_done(std::size_t driver_count, Duration timeout) {
  util::MutexLock lock(control_mutex_);
  const bool done = control_cv_.wait_for(
      control_mutex_, timeout, [&]() GARFIELD_REQUIRES(control_mutex_) {
        for (std::size_t r = 0; r < driver_count && r < nodes_; ++r) {
          if (r != rank_ && !done_[r]) return false;
        }
        return true;
      });
  if (done) done_passed_.store(true, std::memory_order_relaxed);
  return done;
}

void TcpTransport::reader_loop(std::size_t peer_rank) {
  Peer& peer = *peers_[peer_rank];
  FrameDecoder decoder;
  std::vector<std::uint8_t> buf(64 * 1024);
  for (;;) {
    const ssize_t n = ::recv(peer.fd, buf.data(), buf.size(), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    try {
      decoder.feed(
          std::span<const std::uint8_t>(buf.data(), std::size_t(n)));
      while (auto body = decoder.next()) {
        if (!body->empty() && body->front() == kFrameExit) {
          peer.exited.store(true, std::memory_order_relaxed);
          continue;
        }
        bytes_received_.fetch_add(kFramePrefixBytes + body->size(),
                                  std::memory_order_relaxed);
        handle_frame(peer_rank, *body);
      }
    } catch (const WireError&) {
      // A corrupted stream is indistinguishable from a dying peer
      // process: fail-silence it.
      break;
    }
  }
  peer.alive.store(false, std::memory_order_relaxed);
  on_peer_down(peer_rank);
}

void TcpTransport::handle_frame(std::size_t peer_rank,
                                std::span<const std::uint8_t> body) {
  // A short or lying frame is stream corruption: the reader's WireError
  // fail-silences the peer, the same as its death.
  ByteReader reader(body, "tcp frame");
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kFrameRequest: {
      Request request;
      const std::uint64_t cid = reader.u64();
      request.from = reader.u32();
      request.to = reader.u32();
      request.iteration = reader.u64();
      const bool has_window = reader.u8() != 0;
      const std::uint64_t window = reader.u64();
      if (has_window) request.window_iteration = window;
      const std::uint64_t budget_us = reader.u64();
      request.method = reader.str(reader.u16());
      if (reader.u8() != 0) {
        WireMessage msg = decode(reader.rest());
        request.argument =
            std::make_shared<const Payload>(std::move(msg.payload));
      }
      if (request.to != rank_) {
        throw WireError("tcp: request addressed to rank " +
                        std::to_string(request.to) + " arrived at rank " +
                        std::to_string(rank_));
      }
      // Re-anchor the caller's remaining budget on local time; a not-ready
      // request then parks on this process's Cluster exactly as in
      // process.
      const Clock::time_point deadline =
          Clock::now() + Duration(std::int64_t(budget_us));
      // Exactly-once reply, silent or not: the caller's pending entry
      // must always resolve, else a crashed callee would hang every
      // pull's collect until its deadline.
      Respond respond = [this, cid, peer_rank](PayloadPtr payload) {
        std::vector<std::uint8_t> reply;
        reply.push_back(kFrameReply);
        put_u64(reply, cid);
        reply.push_back(payload ? 1 : 0);
        if (payload) {
          const std::vector<std::uint8_t> blob = encode(0, *payload);
          reply.insert(reply.end(), blob.begin(), blob.end());
        }
        assert(kFramePrefixBytes + reply.size() == reply_frame_bytes(payload));
        Peer* back = peers_[peer_rank].get();
        if (back) (void)write_frame(*back, reply);
      };
      // Handler compute belongs on the pool, exactly as in process — a
      // reader thread running handlers would serialize one peer's pulls.
      std::function<void()> task = [this, request = std::move(request),
                                    deadline,
                                    respond = std::move(respond)]() mutable {
        deliver_(std::move(request), deadline, std::move(respond));
      };
      // A refused post means teardown: the socket teardown resolves the
      // caller via EOF, so dropping the task here is safe.
      (void)post_(std::move(task));
      break;
    }
    case kFrameReply: {
      const std::uint64_t cid = reader.u64();
      PayloadPtr payload;
      if (reader.u8() != 0) {
        WireMessage msg = decode(reader.rest());
        payload = std::make_shared<const Payload>(std::move(msg.payload));
      }
      resolve_pending(cid, std::move(payload));
      break;
    }
    case kFrameReady:
    case kFrameDone: {
      const std::uint32_t r = reader.u32();
      if (r >= nodes_) throw WireError("tcp: bogus control rank");
      {
        util::MutexLock lock(control_mutex_);
        if (type == kFrameReady) {
          ready_[r] = true;
        } else {
          done_[r] = true;
        }
      }
      control_cv_.notify_all();
      break;
    }
    case kFrameHello:
      // Legal only during the start() handshake, which consumed it.
      throw WireError("tcp: unexpected hello after handshake");
    default:
      throw WireError("tcp: unknown frame type " + std::to_string(type));
  }
}

void TcpTransport::resolve_pending(std::uint64_t cid, PayloadPtr payload) {
  Respond respond;
  {
    util::MutexLock lock(pending_mutex_);
    auto it = pending_.find(cid);
    if (it == pending_.end()) return;  // already resolved (peer-death race)
    respond = std::move(it->second.respond);
    pending_.erase(it);
  }
  respond(std::move(payload));
}

void TcpTransport::on_peer_down(std::size_t peer_rank) {
  // Mid-run peer death is fail-silent to the protocol but must never be
  // silent to the operator: name the dead rank. EOFs during our own
  // shutdown(), or after the peer announced a clean exit, are expected
  // teardown, not deaths.
  if (!down_.load(std::memory_order_relaxed) &&
      !peers_[peer_rank]->exited.load(std::memory_order_relaxed)) {
    peer_deaths_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "[garfield:tcp] rank %zu: peer rank %zu died mid-run "
                 "(EOF/reset on its stream); its pending calls resolve "
                 "silent and its barrier slots are forced\n",
                 rank_, peer_rank);
  }
  // Fail-silence: every call still waiting on this peer resolves as a
  // missing reply, the same shape a crashed in-process node has.
  std::vector<Respond> orphans;
  {
    util::MutexLock lock(pending_mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.peer == peer_rank) {
        orphans.push_back(std::move(it->second.respond));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Respond& respond : orphans) respond(nullptr);
  // A dead peer can neither announce ready nor done; count it as both so
  // the barriers unblock and the failure surfaces downstream (the parent
  // sees the process's exit status) instead of as a barrier hang.
  {
    util::MutexLock lock(control_mutex_);
    ready_[peer_rank] = true;
    done_[peer_rank] = true;
  }
  control_cv_.notify_all();
}

void TcpTransport::shutdown() {
  if (down_.exchange(true)) return;
  // Past the done barrier, tell every peer this close is a clean exit
  // before the EOF reaches it.
  const std::vector<std::uint8_t> exit_frame =
      frame(control_body(kFrameExit, std::uint32_t(rank_)));
  // Readers see EOF, resolve their peers' pending calls, and exit. They
  // post deliveries to the Cluster's pool, so ~Cluster joins them here,
  // before it stops that pool. The sockets stay open until
  // ~TcpTransport: reply writes on pool threads may still target them.
  for (std::size_t r = 0; r < nodes_; ++r) {
    if (!peers_[r]) continue;
    if (done_passed_.load(std::memory_order_relaxed)) {
      (void)send_all(*peers_[r], exit_frame);
    }
    peers_[r]->alive.store(false, std::memory_order_relaxed);
    (void)::shutdown(peers_[r]->fd, SHUT_RDWR);
  }
  for (std::size_t r = 0; r < nodes_; ++r) {
    if (peers_[r] && peers_[r]->reader.joinable()) peers_[r]->reader.join();
  }
}

}  // namespace garfield::net
