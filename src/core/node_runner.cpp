#include "core/node_runner.h"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/controller.h"
#include "core/train_loop.h"
#include "net/tcp_transport.h"
#include "net/wire.h"

namespace garfield::core {

namespace {

// ------------------------------------------------------------ result blob
//
// The reporting rank ships its TrainResult back to the parent as a small
// binary file (net/wire's put_* / ByteReader layout):
// magic "GRTR", version, an ok/abort flag with the abort reason, the
// scalar counters, the curves, and the final parameter vector as a
// net/wire blob (magic + CRC, so a torn write cannot decode as a model).

constexpr std::uint32_t kResultMagic = 0x52545247;  // "GRTR" little-endian
// v2: fault/retry NetStats (faults_injected, retries, retry_give_ups,
// peer_deaths) and the Byzantine-recovery state-transfer counters.
// v3: bytes_saved (wire-codec compression credit).
constexpr std::uint32_t kResultVersion = 3;

using net::put_f64;
using net::put_u32;
using net::put_u64;

void put_header(std::vector<std::uint8_t>& out, bool ok,
                const std::string& reason) {
  put_u32(out, kResultMagic);
  put_u32(out, kResultVersion);
  out.push_back(ok ? 1 : 0);
  put_u32(out, std::uint32_t(reason.size()));
  out.insert(out.end(), reason.begin(), reason.end());
}

std::vector<std::uint8_t> encode_abort(const std::string& reason) {
  std::vector<std::uint8_t> out;
  put_header(out, /*ok=*/false, reason);
  return out;
}

std::vector<std::uint8_t> encode_train_result(const TrainResult& r) {
  std::vector<std::uint8_t> out;
  put_header(out, /*ok=*/true, "");
  put_u64(out, r.iterations_run);
  put_f64(out, r.final_accuracy);
  put_f64(out, r.final_loss);
  put_u64(out, r.rejected_payloads);
  put_u64(out, r.gradients_served);
  put_u64(out, r.gradients_computed);
  put_u64(out, r.net_stats.requests_sent);
  put_u64(out, r.net_stats.replies_received);
  put_u64(out, r.net_stats.floats_transferred);
  put_u64(out, r.net_stats.wasted_replies);
  put_u64(out, r.net_stats.quorum_misses);
  put_u64(out, r.net_stats.dropped_tasks);
  put_u64(out, r.net_stats.bytes_sent);
  put_u64(out, r.net_stats.bytes_received);
  put_u64(out, r.net_stats.bytes_saved);
  put_u64(out, r.net_stats.faults_injected);
  put_u64(out, r.net_stats.retries);
  put_u64(out, r.net_stats.retry_give_ups);
  put_u64(out, r.net_stats.peer_deaths);
  put_u64(out, r.state_transfers);
  put_u64(out, r.state_transfer_rejects);
  put_u64(out, r.curve.size());
  for (const EvalPoint& p : r.curve) {
    put_u64(out, p.iteration);
    put_f64(out, p.accuracy);
    put_f64(out, p.loss);
  }
  put_u64(out, r.reporting_gradient_counts.size());
  for (std::size_t c : r.reporting_gradient_counts) put_u64(out, c);
  put_u64(out, r.alignment.size());
  for (const AlignmentSample& a : r.alignment) {
    put_u64(out, a.iteration);
    put_f64(out, a.cos_phi);
    put_f64(out, a.max_diff1);
    put_f64(out, a.max_diff2);
  }
  const std::vector<std::uint8_t> params =
      net::encode(r.iterations_run, r.final_parameters);
  put_u64(out, params.size());
  out.insert(out.end(), params.begin(), params.end());
  return out;
}

/// Decode, or rethrow the child's abort reason.
TrainResult decode_train_result(std::span<const std::uint8_t> bytes) {
  net::ByteReader in(bytes, "node result blob");
  if (in.u32() != kResultMagic) {
    throw std::runtime_error("node result blob: bad magic");
  }
  const std::uint32_t version = in.u32();
  if (version != kResultVersion) {
    throw std::runtime_error("node result blob: unsupported version " +
                             std::to_string(version));
  }
  const bool ok = in.u8() != 0;
  const std::string reason = in.str(in.u32());
  if (!ok) throw std::runtime_error(reason);
  TrainResult r;
  r.iterations_run = std::size_t(in.u64());
  r.final_accuracy = in.f64();
  r.final_loss = in.f64();
  r.rejected_payloads = in.u64();
  r.gradients_served = in.u64();
  r.gradients_computed = in.u64();
  r.net_stats.requests_sent = in.u64();
  r.net_stats.replies_received = in.u64();
  r.net_stats.floats_transferred = in.u64();
  r.net_stats.wasted_replies = in.u64();
  r.net_stats.quorum_misses = in.u64();
  r.net_stats.dropped_tasks = in.u64();
  r.net_stats.bytes_sent = in.u64();
  r.net_stats.bytes_received = in.u64();
  r.net_stats.bytes_saved = in.u64();
  r.net_stats.faults_injected = in.u64();
  r.net_stats.retries = in.u64();
  r.net_stats.retry_give_ups = in.u64();
  r.net_stats.peer_deaths = in.u64();
  r.state_transfers = in.u64();
  r.state_transfer_rejects = in.u64();
  const std::uint64_t curve_n = in.u64();
  for (std::uint64_t i = 0; i < curve_n; ++i) {
    EvalPoint p;
    p.iteration = std::size_t(in.u64());
    p.accuracy = in.f64();
    p.loss = in.f64();
    r.curve.push_back(p);
  }
  const std::uint64_t counts_n = in.u64();
  for (std::uint64_t i = 0; i < counts_n; ++i) {
    r.reporting_gradient_counts.push_back(std::size_t(in.u64()));
  }
  const std::uint64_t align_n = in.u64();
  for (std::uint64_t i = 0; i < align_n; ++i) {
    AlignmentSample a;
    a.iteration = std::size_t(in.u64());
    a.cos_phi = in.f64();
    a.max_diff1 = in.f64();
    a.max_diff2 = in.f64();
    r.alignment.push_back(a);
  }
  const std::uint64_t params_len = in.u64();
  in.need(params_len);
  net::WireMessage msg = net::decode(in.rest().first(params_len));
  r.final_parameters = std::move(msg.payload);
  return r;
}

void write_file(const std::string& path,
                std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  out.flush();
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return bytes;
}

// ----------------------------------------------------------- orchestrator

struct Listener {
  int fd = -1;
  std::uint16_t port = 0;
};

/// The orchestrator's listening sockets. The parent closes them once every
/// child holds its own copy, and on any earlier exit.
struct Listeners {
  std::vector<Listener> all;

  Listeners() = default;
  Listeners(const Listeners&) = delete;
  Listeners& operator=(const Listeners&) = delete;
  ~Listeners() { close_all(); }

  void close_all() {
    for (Listener& l : all) {
      if (l.fd >= 0) ::close(l.fd);
      l.fd = -1;
    }
  }
};

/// A fresh directory for the config and result files, under $TMPDIR (else
/// /tmp). Removed, with both files, on every exit path.
class RunDir {
 public:
  RunDir() {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string path = tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";
    path += "/garfield_mp.XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) {
      const std::string err = std::strerror(errno);
      throw std::runtime_error("transport=tcp: cannot create '" + path +
                               "': " + err);
    }
    path_ = std::move(path);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    ::unlink(config_path().c_str());
    ::unlink(result_path().c_str());
    ::rmdir(path_.c_str());
  }

  [[nodiscard]] std::string config_path() const {
    return path_ + "/deployment.conf";
  }
  [[nodiscard]] std::string result_path() const {
    return path_ + "/result.grtr";
  }

 private:
  std::string path_;
};

/// Bind a kernel-assigned loopback port and put it into listen() — done in
/// the parent for every rank before any fork, so no child can race another
/// child's bind and every connect() in the mesh handshake finds an
/// established backlog.
Listener bind_loopback(int backlog) {
  Listener l;
  l.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (l.fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // kernel-assigned
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(l.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(l.fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(l.fd);
    throw std::runtime_error("bind/listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(l.fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(l.fd);
    throw std::runtime_error("getsockname: " + err);
  }
  l.port = ntohs(addr.sin_port);
  return l;
}

/// Locate the garfield_node launcher: the GARFIELD_NODE_BIN override
/// first (tests point it at the build tree), then siblings of the current
/// executable — covering tests (build/<test>) and tools (build/tools/<t>)
/// in the same build tree. An override that names no executable throws
/// here, naming the variable and the path, before any rank is forked.
std::string find_node_binary() {
  if (const char* env = std::getenv("GARFIELD_NODE_BIN");
      env != nullptr && *env != '\0') {
    if (::access(env, X_OK) != 0) {
      throw std::runtime_error(
          std::string("transport=tcp: GARFIELD_NODE_BIN=") + env +
          " is not an executable file: " + std::strerror(errno));
    }
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string exe(buf);
  const auto slash = exe.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : exe.substr(0, slash);
  for (const std::string& candidate :
       {dir + "/garfield_node", dir + "/tools/garfield_node",
        dir + "/../tools/garfield_node"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "signal " + std::to_string(WTERMSIG(status));
  }
  return "status " + std::to_string(status);
}

}  // namespace

namespace detail {

TrainResult train_multiprocess(const DeploymentConfig& config) {
  const std::size_t nodes = config.total_nodes();

  const std::string node_bin = find_node_binary();
  if (node_bin.empty()) {
    throw std::runtime_error(
        "transport=tcp: cannot locate the garfield_node launcher — build "
        "the tools (GARFIELD_BUILD_TOOLS) or set GARFIELD_NODE_BIN");
  }

  const RunDir dir;
  const std::string config_path = dir.config_path();
  const std::string result_path = dir.result_path();
  Listeners listening;
  std::vector<Listener>& listeners = listening.all;
  listeners.reserve(nodes);
  for (std::size_t r = 0; r < nodes; ++r) {
    listeners.push_back(bind_loopback(int(nodes) + 8));
  }
  std::string ports_arg;
  for (std::size_t r = 0; r < nodes; ++r) {
    if (r > 0) ports_arg += ',';
    ports_arg += std::to_string(listeners[r].port);
  }

  const std::string config_text = format_config(config);
  write_file(config_path,
             std::span<const std::uint8_t>(
                 reinterpret_cast<const std::uint8_t*>(config_text.data()),
                 config_text.size()));

  // Argv strings are composed before fork so the child only execs. Only
  // the reporting rank harvests and writes the result.
  const std::size_t reporter = reporting_replica(config);
  std::vector<std::vector<std::string>> argv_strings(nodes);
  for (std::size_t r = 0; r < nodes; ++r) {
    argv_strings[r] = {node_bin,
                       "--rank",      std::to_string(r),
                       "--nodes",     std::to_string(nodes),
                       "--listen-fd", std::to_string(listeners[r].fd),
                       "--ports",     ports_arg,
                       "--config",    config_path};
    if (r == reporter) {
      argv_strings[r].push_back("--result");
      argv_strings[r].push_back(result_path);
    }
  }

  std::vector<pid_t> pids(nodes, -1);
  for (std::size_t r = 0; r < nodes; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const std::string err = std::strerror(errno);
      for (std::size_t k = 0; k < nodes; ++k) {
        if (pids[k] > 0) ::kill(pids[k], SIGKILL);
      }
      for (std::size_t k = 0; k < nodes; ++k) {
        if (pids[k] > 0) (void)::waitpid(pids[k], nullptr, 0);
      }
      throw std::runtime_error("transport=tcp: fork: " + err);
    }
    if (pid == 0) {
      // Child: keep only our own listener; exec the launcher.
      for (std::size_t k = 0; k < nodes; ++k) {
        if (k != r) ::close(listeners[k].fd);
      }
      std::vector<char*> argv;
      argv.reserve(argv_strings[r].size() + 1);
      for (std::string& s : argv_strings[r]) argv.push_back(s.data());
      argv.push_back(nullptr);
      ::execv(node_bin.c_str(), argv.data());
      _exit(127);
    }
    pids[r] = pid;
  }
  listening.close_all();

  // Reap every child, SIGKILLing the stragglers once the deadline passes —
  // a wedged mesh must become a thrown error, not a hung parent.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);
  std::vector<int> status(nodes, 0);
  std::vector<bool> reaped(nodes, false);
  std::size_t remaining = nodes;
  bool killed = false;
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t r = 0; r < nodes; ++r) {
      if (reaped[r]) continue;
      int st = 0;
      const pid_t p = ::waitpid(pids[r], &st, WNOHANG);
      if (p == pids[r]) {
        status[r] = st;
        reaped[r] = true;
        --remaining;
        progressed = true;
      }
    }
    if (remaining == 0) break;
    if (!killed && std::chrono::steady_clock::now() >= deadline) {
      killed = true;
      for (std::size_t r = 0; r < nodes; ++r) {
        if (!reaped[r]) ::kill(pids[r], SIGKILL);
      }
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  if (killed) {
    throw std::runtime_error(
        "transport=tcp: node processes exceeded the run deadline");
  }
  for (std::size_t r = 0; r < nodes; ++r) {
    if (status[r] != 0) {
      throw std::runtime_error("transport=tcp: node rank " + std::to_string(r) +
                               " failed (" + describe_exit(status[r]) + ")");
    }
  }
  return decode_train_result(read_file(result_path));
}

}  // namespace detail

int run_node(const DeploymentConfig& config, const NodeOptions& options) {
  const auto fail = [&options](const std::string& what, int code) {
    std::cerr << "garfield_node[" << options.rank << "]: " << what << '\n';
    return code;
  };
  try {
    config.validate();
    if (config.transport != "tcp") {
      return fail("config does not select transport=tcp", 2);
    }
    if (options.nodes != config.total_nodes()) {
      return fail("--nodes does not match the config's node count", 2);
    }

    net::TcpTransport::Options topts;
    topts.rank = options.rank;
    topts.nodes = options.nodes;
    topts.listen_fd = options.listen_fd;
    topts.ports = options.ports;
    auto transport = std::make_shared<net::TcpTransport>(topts);

    detail::Runtime rt;
    rt.config = config;
    rt.transport = transport;
    detail::build_runtime(rt);  // Cluster ctor blocks on the mesh handshake
    detail::register_recovery_hooks(rt, options.rank);
    detail::resume_replicas(rt);

    // Ready barrier: every process has its handlers registered before any
    // driving loop issues a pull — a pull racing a sibling's construction
    // would read a missing handler as a silent decline and deterministically
    // change quorum membership relative to the in-process backend.
    transport->announce_ready();
    if (!transport->await_ready(std::chrono::seconds(60))) {
      return fail("ready barrier timed out", 3);
    }

    const std::size_t drivers = detail::driver_count(config);
    if (options.rank < drivers) {
      detail::run_loop(rt, options.rank);
      transport->announce_done();
    }
    // Quiescence barrier: serve step-tagged pulls until every driving rank
    // finished — tearing down early would cut off a slower peer's final
    // iterations.
    if (!transport->await_done(drivers, std::chrono::minutes(10))) {
      return fail("done barrier timed out", 4);
    }

    if (options.rank == rt.reporter && !options.result_path.empty()) {
      std::vector<std::uint8_t> blob;
      try {
        blob = encode_train_result(detail::harvest(rt));
      } catch (const std::exception& e) {
        // Below-floor churn abort (or any harvest failure): the reason
        // travels to the parent, which rethrows it from train().
        blob = encode_abort(e.what());
      }
      write_file(options.result_path, blob);
    }
    return 0;
  } catch (const std::exception& e) {
    return fail(e.what(), 2);
  }
}

}  // namespace garfield::core
