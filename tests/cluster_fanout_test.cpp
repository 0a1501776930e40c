// Tests of net::Cluster's fan-out: a collect() that awaits every peer runs
// its zero-delay sends on the calling thread, with pool threads joining
// only as helpers (net/cluster.h). Covers where handlers run, how many
// threads run one collect's handlers, the order sends are claimed in, the
// wait deadline, exactly-once resolution through park/notify, crash and
// teardown, and the worker's recycled gradient buffers that handlers on
// loop threads rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/worker.h"
#include "data/dataset.h"
#include "net/cluster.h"
#include "nn/zoo.h"
#include "tensor/rng.h"

namespace gc = garfield::core;
namespace gd = garfield::data;
namespace gn = garfield::net;
namespace gt = garfield::tensor;

namespace {

using namespace std::chrono_literals;

gn::Cluster::Options options(std::size_t nodes, std::size_t pool_threads) {
  gn::Cluster::Options o;
  o.nodes = nodes;
  o.pool_threads = pool_threads;
  return o;
}

std::vector<gn::NodeId> node_range(gn::NodeId first, gn::NodeId last) {
  std::vector<gn::NodeId> ids;
  for (gn::NodeId id = first; id <= last; ++id) ids.push_back(id);
  return ids;
}

/// Records the thread every handler call ran on.
class ThreadLog {
 public:
  gn::Handler handler() {
    return [this](const gn::Request&) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        threads_.push_back(std::this_thread::get_id());
      }
      return gn::HandlerResult::reply(gn::Payload{1.0F});
    };
  }
  /// Wait until `calls` handler calls have been recorded; return them.
  std::vector<std::thread::id> await(std::size_t calls) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (threads_.size() >= calls) return threads_;
      }
      std::this_thread::yield();
    }
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.clear();
  }

 private:
  std::mutex mutex_;
  std::vector<std::thread::id> threads_;
};

}  // namespace

TEST(FanOut, OnePoolThreadRunsASyncCollectOnTheCallerAndAFastestQOffIt) {
  gn::Cluster cluster(options(9, 1));
  ThreadLog log;
  const std::vector<gn::NodeId> peers = node_range(1, 8);
  for (gn::NodeId p : peers) cluster.register_handler(p, "m", log.handler());
  const std::thread::id caller = std::this_thread::get_id();

  // q == peers: a single pool thread spares no helper, so the caller runs
  // every handler itself.
  EXPECT_EQ(cluster.collect(0, peers, "m", 1, nullptr, peers.size()).size(),
            peers.size());
  for (std::thread::id t : log.await(peers.size())) EXPECT_EQ(t, caller);

  // q < peers: the race between sends is the semantics, so every send
  // keeps the pool and no handler runs on the caller.
  log.clear();
  EXPECT_EQ(cluster.collect(0, peers, "m", 2, nullptr, peers.size() - 1)
                .size(),
            peers.size() - 1);
  for (std::thread::id t : log.await(peers.size())) EXPECT_NE(t, caller);
}

TEST(FanOut, AtMostPoolThreadsRunOneCollectsHandlers) {
  // Each collect carries its own iteration tag; the handlers track, per
  // tag, how many of them run at once and on which threads.
  struct PerCollect {
    int running = 0;
    int most = 0;
    std::set<std::thread::id> threads;
  };
  for (const std::size_t pool : {std::size_t(2), std::size_t(3)}) {
    gn::Cluster cluster(options(9, pool));
    std::mutex mutex;
    std::map<std::uint64_t, PerCollect> seen;
    const std::vector<gn::NodeId> peers = node_range(1, 8);
    for (gn::NodeId p : peers) {
      cluster.register_handler(p, "m", [&](const gn::Request& req) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          PerCollect& c = seen[req.iteration];
          c.most = std::max(c.most, ++c.running);
          c.threads.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(2ms);
        {
          std::lock_guard<std::mutex> lock(mutex);
          --seen[req.iteration].running;
        }
        return gn::HandlerResult::reply(gn::Payload{1.0F});
      });
    }
    // One caller alone, then two at once (each still capped on its own).
    for (std::uint64_t it = 0; it < 3; ++it) {
      EXPECT_EQ(cluster.collect(0, peers, "m", it, nullptr, 8).size(), 8u);
    }
    std::thread other([&] {
      for (std::uint64_t it = 100; it < 103; ++it) {
        EXPECT_EQ(cluster.collect(0, peers, "m", it, nullptr, 8).size(), 8u);
      }
    });
    for (std::uint64_t it = 200; it < 203; ++it) {
      EXPECT_EQ(cluster.collect(0, peers, "m", it, nullptr, 8).size(), 8u);
    }
    other.join();
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(seen.size(), 9u);
    std::size_t widest_alone = 0;
    for (const auto& [tag, c] : seen) {
      EXPECT_LE(c.most, int(pool)) << "pool " << pool << " collect " << tag;
      EXPECT_LE(c.threads.size(), pool) << "pool " << pool << " collect "
                                        << tag;
      if (tag < 3) widest_alone = std::max(widest_alone, c.threads.size());
    }
    // A lone caller of slow handlers does get help: 16 ms of handlers give
    // the first helper time to come up.
    EXPECT_GT(widest_alone, 1u) << "pool " << pool;
  }
}

TEST(FanOut, WaitDeadlineCountsFromEntry) {
  // Peer 1's handler takes 400 ms, inline on the caller; peer 2 parks and
  // stays parked: a plain call holds the one pool thread, so not even the
  // deadline sweep can resolve it. The caller still returns by entry +
  // timeout, not 400 ms later.
  gn::Cluster cluster(options(4, 1));
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  cluster.register_handler(3, "block", [released](const gn::Request&) {
    released.wait();
    return gn::HandlerResult::none();
  });
  cluster.call(0, 3, "block", 0, nullptr, [](gn::PayloadPtr) {});
  cluster.register_handler(1, "m", [](const gn::Request&) {
    std::this_thread::sleep_for(400ms);
    return gn::HandlerResult::reply(gn::Payload{1.0F});
  });
  cluster.register_handler(2, "m", [](const gn::Request&) {
    return gn::HandlerResult::not_ready();
  });
  const std::vector<gn::NodeId> peers{1, 2};
  const auto entry = std::chrono::steady_clock::now();
  const std::vector<gn::Reply> replies =
      cluster.collect(0, peers, "m", 0, nullptr, 2, 500ms);
  const auto elapsed = std::chrono::steady_clock::now() - entry;
  release.set_value();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].from, 1u);
  EXPECT_GE(elapsed, 500ms);
  EXPECT_LT(elapsed, 800ms);
  EXPECT_EQ(cluster.stats().quorum_misses, 1u);
}

namespace {

/// The in-process backend, counting how often each send resolves. Its
/// shutdown() runs inside ~Cluster after the parked requests were resolved
/// (the teardown order in net/cluster.h), so it reads the teardown's drops
/// there, then releases `release`.
class CountingTransport : public gn::Transport {
 public:
  void send(gn::Request request, gn::Clock::time_point deadline,
            Respond on_reply) override {
    const std::size_t slot = sends_.fetch_add(1);
    ASSERT_LT(slot, resolved_.size());
    Transport::send(std::move(request), deadline,
                    [this, slot, on_reply = std::move(on_reply)](
                        gn::PayloadPtr payload) {
                      resolved_[slot].fetch_add(1);
                      on_reply(std::move(payload));
                    });
  }

  void shutdown() override {
    dropped_at_teardown = cluster->stats().dropped_tasks;
    release.set_value();
  }

  [[nodiscard]] std::size_t sends() const { return sends_.load(); }
  [[nodiscard]] int resolved(std::size_t slot) const {
    return resolved_[slot].load();
  }

  gn::Cluster* cluster = nullptr;
  std::uint64_t dropped_at_teardown = 0;
  std::promise<void> release;

 private:
  std::atomic<std::size_t> sends_{0};
  std::array<std::atomic<int>, 16> resolved_{};
};

}  // namespace

TEST(FanOut, EverySendResolvesOnceThroughParkNotifyCrashAndTeardown) {
  auto transport = std::make_shared<CountingTransport>();
  const std::shared_future<void> released =
      transport->release.get_future().share();
  gn::Cluster::Options o = options(6, 1);
  o.transport = transport;
  auto cluster = std::make_unique<gn::Cluster>(o);
  transport->cluster = cluster.get();

  // A plain call first takes the one pool thread until teardown, so a
  // deadline sweep the wheel hands the pool waits behind it.
  std::atomic<int> blocked_replies{0};
  cluster->register_handler(5, "block", [released](const gn::Request&) {
    released.wait();
    return gn::HandlerResult::reply(gn::Payload{5.0F});
  });
  cluster->call(0, 5, "block", 0, nullptr, [&](gn::PayloadPtr p) {
    if (p) blocked_replies.fetch_add(1);
  });

  // Peer 1 answers; 2 parks until notified; 3 parks until it crashes; 4
  // parks until teardown.
  std::atomic<bool> two_ready{false};
  std::array<std::atomic<int>, 5> calls{};
  cluster->register_handler(1, "m", [&](const gn::Request&) {
    calls[1].fetch_add(1);
    return gn::HandlerResult::reply(gn::Payload{1.0F});
  });
  cluster->register_handler(2, "m", [&](const gn::Request&) {
    calls[2].fetch_add(1);
    return two_ready.load() ? gn::HandlerResult::reply(gn::Payload{2.0F})
                            : gn::HandlerResult::not_ready();
  });
  for (gn::NodeId p : {gn::NodeId(3), gn::NodeId(4)}) {
    cluster->register_handler(p, "m", [&calls, p](const gn::Request&) {
      calls[p].fetch_add(1);
      return gn::HandlerResult::not_ready();
    });
  }
  std::thread side([&] {
    // Bounded, so a send that never reaches its handler fails the test
    // below instead of hanging it.
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while ((calls[2].load() == 0 || calls[3].load() == 0) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    two_ready.store(true);
    cluster->notify_ready(2);
    cluster->crash(3);
  });
  const std::vector<gn::NodeId> peers{1, 2, 3, 4};
  const std::vector<gn::Reply> replies =
      cluster->collect(0, peers, "m", 0, nullptr, peers.size(), 300ms);
  side.join();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].from, 1u);
  EXPECT_EQ(replies[1].from, 2u);
  const gn::NetStats before = cluster->stats();
  EXPECT_EQ(before.requests_sent, 5u);
  EXPECT_EQ(before.quorum_misses, 1u);
  EXPECT_EQ(before.dropped_tasks, 0u);
  EXPECT_EQ(before.wasted_replies, 0u);

  cluster.reset();
  // Peer 4's parked request is the one drop, counted once; the blocked
  // call then answers; every send resolved exactly once.
  EXPECT_EQ(transport->dropped_at_teardown, 1u);
  EXPECT_EQ(blocked_replies.load(), 1);
  ASSERT_EQ(transport->sends(), 5u);
  for (std::size_t s = 0; s < transport->sends(); ++s) {
    EXPECT_EQ(transport->resolved(s), 1) << "send " << s;
  }
}

namespace {

/// Records, per collect tag, the order handlers started in and the thread
/// each ran on.
class StartLog {
 public:
  struct Start {
    gn::NodeId node = 0;
    std::thread::id thread;
  };

  /// A handler for `node` that logs its start, stays busy for `busy`, then
  /// answers.
  gn::Handler handler(gn::NodeId node, std::chrono::milliseconds busy) {
    return [this, node, busy](const gn::Request& req) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        starts_[req.iteration].push_back(
            Start{node, std::this_thread::get_id()});
      }
      std::this_thread::sleep_for(busy);
      return gn::HandlerResult::reply(gn::Payload{float(node)});
    };
  }

  std::vector<Start> of(std::uint64_t tag) {
    std::lock_guard<std::mutex> lock(mutex_);
    return starts_[tag];
  }

 private:
  std::mutex mutex_;
  std::map<std::uint64_t, std::vector<Start>> starts_;
};

/// collect() from node 0 over `peers`, awaiting all; its replies must come
/// back sorted by sender.
void collect_all(gn::Cluster& cluster, const std::vector<gn::NodeId>& peers,
                 std::uint64_t tag) {
  const std::vector<gn::Reply> replies =
      cluster.collect(0, peers, "m", tag, nullptr, peers.size());
  ASSERT_EQ(replies.size(), peers.size()) << "collect " << tag;
  for (std::size_t k = 0; k < peers.size(); ++k) {
    EXPECT_EQ(replies[k].from, peers[k]) << "collect " << tag;
  }
}

/// Expect collect `tag` to have run every handler on `caller`, in peer
/// order.
void expect_peer_order_on(StartLog& log, std::uint64_t tag,
                          const std::vector<gn::NodeId>& peers,
                          std::thread::id caller) {
  const std::vector<StartLog::Start> starts = log.of(tag);
  ASSERT_EQ(starts.size(), peers.size()) << "collect " << tag;
  for (std::size_t k = 0; k < peers.size(); ++k) {
    EXPECT_EQ(starts[k].node, peers[k]) << "collect " << tag;
    EXPECT_EQ(starts[k].thread, caller) << "collect " << tag;
  }
}

}  // namespace

TEST(FanOut, ALoneCallerWithAHelperClaimsTheSlowestHandlerFirst) {
  // One caller, two pool threads: a helper can join, so each collect times
  // its sends and the next claims them longest first. Peer 8's handler,
  // last in peer order, is the slow one, by far more than a loaded host's
  // scheduling delay makes a fast one look slow.
  constexpr auto kSlow = 150ms;
  constexpr auto kFast = 10ms;
  gn::Cluster cluster(options(9, 2));
  StartLog log;
  const std::vector<gn::NodeId> peers = node_range(1, 8);
  for (gn::NodeId p : peers) {
    cluster.register_handler(p, "m", log.handler(p, p == 8 ? kSlow : kFast));
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::chrono::steady_clock::duration> walls;
  for (std::uint64_t it = 0; it < 6; ++it) {
    const auto entry = std::chrono::steady_clock::now();
    collect_all(cluster, peers, it);
    walls.push_back(std::chrono::steady_clock::now() - entry);
  }
  // The caller claims first and wakes the helper after that claim, so its
  // first handler is the head of the order: peer 1 while no duration is
  // known, the slow peer 8 from the second collect on.
  for (std::uint64_t it = 0; it < 6; ++it) {
    const std::vector<StartLog::Start> starts = log.of(it);
    ASSERT_EQ(starts.size(), peers.size()) << "collect " << it;
    const auto first = std::find_if(
        starts.begin(), starts.end(),
        [&](const StartLog::Start& s) { return s.thread == caller; });
    ASSERT_NE(first, starts.end()) << "collect " << it;
    EXPECT_EQ(first->node, it == 0 ? 1u : 8u) << "collect " << it;
  }
  // The helper runs the seven fast handlers beside the slow one, so a
  // collect takes about the slow handler alone. In peer order the slow
  // handler could not start before three rounds of fast ones: kSlow +
  // 3 * kFast at least.
  std::sort(walls.begin() + 1, walls.end());
  const auto median = walls[3];
  EXPECT_GE(median, kSlow);
  EXPECT_LT(median, kSlow + 2 * kFast);
}

TEST(FanOut, WithoutHelpersHandlersRunInPeerOrder) {
  const std::vector<gn::NodeId> peers = node_range(1, 5);
  const std::thread::id caller = std::this_thread::get_id();
  {
    // One pool thread spares no helper: the caller runs every send, in
    // peer order.
    gn::Cluster cluster(options(6, 1));
    StartLog log;
    for (gn::NodeId p : peers) {
      cluster.register_handler(p, "m", log.handler(p, p == 5 ? 5ms : 0ms));
    }
    for (std::uint64_t it = 0; it < 3; ++it) {
      collect_all(cluster, peers, it);
      expect_peer_order_on(log, it, peers, caller);
    }
  }
  {
    // As many callers as pool threads: each drains its own sends in peer
    // order, though a lone collect first timed peer 5 as the slowest.
    gn::Cluster cluster(options(7, 2));
    StartLog log;
    for (gn::NodeId p : peers) {
      cluster.register_handler(p, "m", log.handler(p, p == 5 ? 5ms : 0ms));
    }
    collect_all(cluster, peers, 0);
    std::promise<void> entered;
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    cluster.register_handler(6, "block", [&](const gn::Request&) {
      entered.set_value();
      released.wait();
      return gn::HandlerResult::reply(gn::Payload{6.0F});
    });
    // The second caller sits inside collect(), running node 6's handler.
    std::thread other([&] {
      const std::vector<gn::NodeId> six{6};
      EXPECT_EQ(cluster.collect(0, six, "block", 0, nullptr, 1).size(), 1u);
    });
    entered.get_future().wait();
    for (std::uint64_t it = 1; it < 4; ++it) {
      collect_all(cluster, peers, it);
      expect_peer_order_on(log, it, peers, caller);
    }
    release.set_value();
    other.join();
  }
}

TEST(WorkerBuffers, HeldGradientKeepsItsBytesAcrossLaterComputes) {
  // A worker computes into recycled buffers; one still referenced is never
  // reused, however many computes follow.
  gn::Cluster cluster(options(2, 1));
  gt::Rng data_rng(6);
  const gd::Dataset data =
      gd::make_cluster_dataset({16}, 10, 256, data_rng, 1.0F);
  gt::Rng model_rng(7);
  garfield::nn::ModelPtr model = garfield::nn::make_model("tiny_mlp", model_rng);
  const auto params =
      std::make_shared<const gn::Payload>(model->parameters());
  gc::Worker worker(1, cluster, std::move(model), data, 8, gt::Rng(9));
  const std::vector<gn::NodeId> workers{1};
  const auto pull = [&](std::uint64_t it) {
    const std::vector<gn::Reply> r =
        cluster.collect(0, workers, gc::kGetGradient, it, params, 1);
    EXPECT_EQ(r.size(), 1u);
    return r.empty() ? nullptr : r[0].payload;
  };

  const gn::PayloadPtr held = pull(0);
  ASSERT_NE(held, nullptr);
  const gn::Payload copy = *held;
  for (std::uint64_t it = 1; it <= gc::Worker::kGradientCacheDepth + 2; ++it) {
    const gn::PayloadPtr later = pull(it);
    ASSERT_NE(later, nullptr);
    EXPECT_NE(later.get(), held.get());
  }
  EXPECT_EQ(worker.gradients_computed(), gc::Worker::kGradientCacheDepth + 3);
  ASSERT_EQ(held->size(), copy.size());
  EXPECT_EQ(std::memcmp(held->data(), copy.data(), copy.size() * sizeof(float)),
            0);
}
