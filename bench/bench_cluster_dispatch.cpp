// net::Cluster dispatch cost: the echo collect.
//
// C caller threads each pull from the same 8 peers with collect(q = 8),
// back to back, on one Cluster with the default pool (hardware
// concurrency). Every peer's handler answers at once with one shared
// payload, so a collect costs only the dispatch path: the sends, the
// handler calls, the reply callbacks and the caller's wait. That is the
// all-to-all pull the dec-mlp benchmark workload runs, without the
// gradients and the GARs.
//
// For C = 1 and C = 8, each row is the median of the timed repeats (after
// one warm-up repeat) of:
//   wall_us     wall time of one collect, as one caller sees it;
//   cpu_us      process CPU (getrusage, user + system, every thread) per
//               collect;
//   cpu_us/rpc  the same per RPC (cpu_us / 8);
//   vcsw        voluntary context switches (getrusage, every thread) per
//               collect.
// GARFIELD_BENCH_SMOKE=1 cuts the repeats and the collects per repeat.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "net/cluster.h"

namespace gn = garfield::net;

namespace {

constexpr std::size_t kPeers = 8;
/// tiny_mlp's dimension: the reply size of the dec-mlp gradient pulls.
constexpr std::size_t kReplyFloats = 874;

std::size_t collects_per_repeat() {
  return garfield::bench::smoke_mode() ? 200 : 4000;
}
std::size_t timed_repeats() { return garfield::bench::smoke_mode() ? 1 : 7; }

struct Usage {
  double cpu_s = 0.0;
  long vcsw = 0;
};

Usage usage_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return {double(u.ru_utime.tv_sec) + double(u.ru_stime.tv_sec) +
              1e-6 * double(u.ru_utime.tv_usec + u.ru_stime.tv_usec),
          u.ru_nvcsw};
}

struct Sample {
  double wall_us = 0.0;
  double cpu_us = 0.0;
  double vcsw = 0.0;
};

/// One repeat: `callers` threads, `collects` collects each.
Sample run_repeat(gn::Cluster& cluster, std::size_t callers,
                  std::size_t collects) {
  std::vector<gn::NodeId> peers(kPeers);
  for (std::size_t p = 0; p < kPeers; ++p) peers[p] = p;
  const auto argument = std::make_shared<const gn::Payload>(kReplyFloats, 1.0F);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> short_quorum{false};
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (std::size_t k = 0; k < collects; ++k) {
        const std::vector<gn::Reply> replies = cluster.collect(
            c % kPeers, peers, "echo", k, argument, kPeers);
        if (replies.size() != kPeers) short_quorum.store(true);
      }
    });
  }
  while (ready.load() != callers) std::this_thread::yield();
  const Usage u0 = usage_now();
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true);
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const Usage u1 = usage_now();
  if (short_quorum.load()) throw std::runtime_error("a collect came back short");
  const double total = double(callers * collects);
  Sample s;
  s.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count() /
              double(collects);
  s.cpu_us = 1e6 * (u1.cpu_s - u0.cpu_s) / total;
  s.vcsw = double(u1.vcsw - u0.vcsw) / total;
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  gn::Cluster::Options options;
  options.nodes = kPeers;
  gn::Cluster cluster(options);
  const auto reply = std::make_shared<const gn::Payload>(kReplyFloats, 0.5F);
  for (gn::NodeId p = 0; p < kPeers; ++p) {
    cluster.register_handler(p, "echo", [reply](const gn::Request&) {
      return gn::HandlerResult::reply(reply);
    });
  }
  std::printf("echo collect, %zu peers, q = %zu, pool = hardware "
              "concurrency (%u), %zu collects per caller per repeat, median "
              "of %zu repeats\n",
              kPeers, kPeers, std::thread::hardware_concurrency(),
              collects_per_repeat(), timed_repeats());
  std::printf("%8s %10s %10s %11s %8s\n", "callers", "wall_us", "cpu_us",
              "cpu_us/rpc", "vcsw");
  for (const std::size_t callers : {std::size_t(1), std::size_t(8)}) {
    (void)run_repeat(cluster, callers, collects_per_repeat());  // warm-up
    std::vector<double> wall, cpu, vcsw;
    for (std::size_t r = 0; r < timed_repeats(); ++r) {
      const Sample s = run_repeat(cluster, callers, collects_per_repeat());
      wall.push_back(s.wall_us);
      cpu.push_back(s.cpu_us);
      vcsw.push_back(s.vcsw);
    }
    const double cpu_us = median(cpu);
    std::printf("%8zu %10.2f %10.2f %11.3f %8.3f\n", callers, median(wall),
                cpu_us, cpu_us / double(kPeers), median(vcsw));
  }
  const gn::NetStats stats = cluster.stats();
  if (stats.quorum_misses != 0 || stats.dropped_tasks != 0) {
    std::fprintf(stderr, "unexpected quorum misses or dropped tasks\n");
    return 1;
  }
  return 0;
}
