// Tests for garfield::net — thread pool, timer wheel, pull-RPC, fastest-q
// collection, crash and straggler injection, not-ready parking and
// notify_ready() wake-ups (no lost wake-up, crash and deadline), traffic
// accounting (including wasted replies and teardown drops), and the tcp
// endpoint's teardown rule: a clean exit past the done barrier is no death.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/tcp_transport.h"
#include "net/timer_wheel.h"
#include "util/thread_pool.h"

namespace gn = garfield::net;
namespace gu = garfield::util;
using namespace std::chrono_literals;

TEST(ThreadPool, ExecutesAllTasks) {
  gu::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (count.load() < 100 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  gu::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TimerWheel, FiresAfterDelayInDueOrder) {
  gu::ThreadPool pool(1);
  std::mutex mutex;
  std::vector<int> order;
  std::atomic<int> fired{0};
  {
    gn::TimerWheel wheel(pool);
    auto record = [&](int tag) {
      std::lock_guard lock(mutex);
      order.push_back(tag);
      fired.fetch_add(1);
    };
    // Scheduled out of due order; must fire in due order.
    EXPECT_TRUE(wheel.schedule_after(20ms, [&] { record(2); }));
    EXPECT_TRUE(wheel.schedule_after(5ms, [&] { record(1); }));
    EXPECT_TRUE(wheel.schedule_after(40ms, [&] { record(3); }));
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (fired.load() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, EqualDueTimesFireInScheduleOrder) {
  gu::ThreadPool pool(1);
  std::vector<int> order;
  std::atomic<int> fired{0};
  {
    gn::TimerWheel wheel(pool);
    for (int i = 0; i < 8; ++i) {
      // All due "immediately after" the same delay; sequence numbers must
      // break the ties deterministically.
      EXPECT_TRUE(wheel.schedule_after(10ms, [&order, &fired, i] {
        order.push_back(i);  // pool has 1 thread: no data race
        fired.fetch_add(1);
      }));
    }
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (fired.load() < 8 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TimerWheel, FlushesPendingEntriesOnDestruction) {
  gu::ThreadPool pool(1);
  std::atomic<int> fired{0};
  {
    gn::TimerWheel wheel(pool);
    // Far-future entries must still run (flushed) when the wheel dies.
    EXPECT_TRUE(wheel.schedule_after(1h, [&] { fired.fetch_add(1); }));
    EXPECT_TRUE(wheel.schedule_after(2h, [&] { fired.fetch_add(1); }));
    EXPECT_EQ(wheel.pending(), 2u);
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fired.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(fired.load(), 2);
}

namespace {

gn::Cluster::Options small_cluster(std::size_t n) {
  gn::Cluster::Options opts;
  opts.nodes = n;
  return opts;
}

/// Register an echo handler that replies with a constant payload.
void serve_constant(gn::Cluster& cluster, gn::NodeId node, float value,
                    std::size_t d = 4) {
  cluster.register_handler(node, "echo",
                           [value, d](const gn::Request&) {
                             return gn::HandlerResult::reply(
                                 gn::Payload(d, value));
                           });
}

/// Poll `pred` until it holds (true) or `timeout` passes (false).
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(100us);
  }
  return true;
}

}  // namespace

TEST(Cluster, RejectsZeroNodes) {
  gn::Cluster::Options opts;
  opts.nodes = 0;
  EXPECT_THROW(gn::Cluster cluster(opts), std::invalid_argument);
}

TEST(Cluster, SingleCallRoundTrip) {
  gn::Cluster cluster(small_cluster(2));
  serve_constant(cluster, 1, 7.0F);
  std::promise<gn::PayloadPtr> done;
  cluster.call(0, 1, "echo", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); });
  auto result = done.get_future().get();
  ASSERT_TRUE(result);
  EXPECT_FLOAT_EQ((*result)[0], 7.0F);
}

TEST(Cluster, UnknownMethodYieldsNoReply) {
  gn::Cluster cluster(small_cluster(2));
  std::promise<gn::PayloadPtr> done;
  cluster.call(0, 1, "nope", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); });
  EXPECT_FALSE(done.get_future().get());
}

TEST(Cluster, RequestCarriesArgumentAndIteration) {
  gn::Cluster cluster(small_cluster(2));
  cluster.register_handler(1, "probe", [](const gn::Request& req) {
    EXPECT_EQ(req.from, 0u);
    EXPECT_EQ(req.to, 1u);
    EXPECT_EQ(req.iteration, 42u);
    EXPECT_TRUE(req.argument);
    return gn::HandlerResult::reply(
        gn::Payload{float(req.argument->at(0) * 2)});
  });
  auto arg = std::make_shared<const gn::Payload>(gn::Payload{21.0F});
  std::promise<gn::PayloadPtr> done;
  cluster.call(0, 1, "probe", 42, arg,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); });
  auto result = done.get_future().get();
  ASSERT_TRUE(result);
  EXPECT_FLOAT_EQ((*result)[0], 42.0F);
}

TEST(Cluster, ZeroCopyReplySharesTheServedSnapshot) {
  gn::Cluster cluster(small_cluster(2));
  // The handler serves the same refcounted snapshot on every pull; callers
  // must receive that exact object, not a copy.
  auto snapshot = std::make_shared<const gn::Payload>(gn::Payload(16, 3.0F));
  cluster.register_handler(1, "snap", [snapshot](const gn::Request&) {
    return gn::HandlerResult::reply(snapshot);
  });
  std::vector<gn::NodeId> peers{1};
  auto first = cluster.collect(0, peers, "snap", 0, nullptr, 1);
  auto second = cluster.collect(0, peers, "snap", 1, nullptr, 1);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].payload.get(), snapshot.get());
  EXPECT_EQ(second[0].payload.get(), snapshot.get());
}

TEST(Cluster, CollectReturnsQFastest) {
  gn::Cluster cluster(small_cluster(5));
  for (gn::NodeId i = 1; i < 5; ++i) serve_constant(cluster, i, float(i));
  std::vector<gn::NodeId> peers{1, 2, 3, 4};
  auto replies = cluster.collect(0, peers, "echo", 0, nullptr, 3);
  EXPECT_EQ(replies.size(), 3u);
}

TEST(Cluster, CollectAllWhenQEqualsN) {
  gn::Cluster cluster(small_cluster(4));
  for (gn::NodeId i = 1; i < 4; ++i) serve_constant(cluster, i, float(i));
  std::vector<gn::NodeId> peers{1, 2, 3};
  auto replies = cluster.collect(0, peers, "echo", 0, nullptr, 3);
  EXPECT_EQ(replies.size(), 3u);
}

TEST(Cluster, CollectRejectsOversizedQuorum) {
  gn::Cluster cluster(small_cluster(3));
  std::vector<gn::NodeId> peers{1, 2};
  EXPECT_THROW((void)cluster.collect(0, peers, "echo", 0, nullptr, 3),
               std::invalid_argument);
}

TEST(Cluster, CrashedNodeNeverReplies) {
  gn::Cluster cluster(small_cluster(4));
  for (gn::NodeId i = 1; i < 4; ++i) serve_constant(cluster, i, float(i));
  cluster.crash(2);
  EXPECT_TRUE(cluster.is_crashed(2));
  std::vector<gn::NodeId> peers{1, 2, 3};
  // q = 2 is satisfiable by the two live nodes.
  auto replies = cluster.collect(0, peers, "echo", 0, nullptr, 2);
  EXPECT_EQ(replies.size(), 2u);
  for (const auto& r : replies) EXPECT_NE(r.from, 2u);
}

TEST(Cluster, CollectTimesOutGracefullyWhenQuorumImpossible) {
  gn::Cluster cluster(small_cluster(3));
  serve_constant(cluster, 1, 1.0F);
  cluster.crash(2);
  std::vector<gn::NodeId> peers{1, 2};
  // q = 2 but only one live replier: returns 1 reply once both callbacks
  // resolved (crashed responds nullptr), well before the deadline.
  auto replies = cluster.collect(0, peers, "echo", 0, nullptr, 2, 2s);
  EXPECT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].from, 1u);
}

TEST(Cluster, StragglersLoseTheRace) {
  gn::Cluster::Options opts = small_cluster(4);
  opts.conditions =
      gn::NetworkConditions::parse("straggler:nodes=1,lag=300ms");
  gn::Cluster cluster(opts);
  for (gn::NodeId i = 1; i < 4; ++i) serve_constant(cluster, i, float(i));
  std::vector<gn::NodeId> peers{1, 2, 3};
  auto replies = cluster.collect(0, peers, "echo", 0, nullptr, 2);
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& r : replies) EXPECT_NE(r.from, 1u);
}

TEST(Cluster, HandlerMayDeclineToReply) {
  gn::Cluster cluster(small_cluster(2));
  cluster.register_handler(1, "maybe", [](const gn::Request&) {
    return gn::HandlerResult::none();  // Byzantine "dropped"
  });
  std::promise<gn::PayloadPtr> done;
  cluster.call(0, 1, "maybe", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); });
  EXPECT_FALSE(done.get_future().get());
}

TEST(Cluster, NotReadyHandlerIsRedelivered) {
  std::atomic<int> runs{0};
  std::atomic<bool> ready{false};
  std::promise<gn::PayloadPtr> done;
  auto reply = done.get_future();
  gn::Cluster cluster(small_cluster(2));
  cluster.register_handler(1, "later", [&](const gn::Request&) {
    // Decide before counting, so a run the test has seen has decided.
    const bool answer = ready.load();
    runs.fetch_add(1);
    if (!answer) return gn::HandlerResult::not_ready();
    return gn::HandlerResult::reply(gn::Payload{9.0F});
  });
  cluster.call(0, 1, "later", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               5s);
  ASSERT_TRUE(eventually([&] { return runs.load() >= 1; }));
  // The request parked on its "not yet"; the notify is the only wake-up.
  ready.store(true);
  cluster.notify_ready(1);
  ASSERT_EQ(reply.wait_for(5s), std::future_status::ready);
  const gn::PayloadPtr payload = reply.get();
  ASSERT_NE(payload, nullptr);
  EXPECT_FLOAT_EQ((*payload)[0], 9.0F);
  // Nothing polled the handler in between: one "not yet", one answer.
  EXPECT_EQ(runs.load(), 2);
  // Only the final delivery produced a reply; redeliveries are not new
  // requests.
  const gn::NetStats stats = cluster.stats();
  EXPECT_EQ(stats.requests_sent, 1u);
  EXPECT_EQ(stats.replies_received, 1u);
}

TEST(Cluster, PerpetuallyNotReadyResolvesAtTheCallTimeout) {
  gn::Cluster cluster(small_cluster(2));
  cluster.register_handler(1, "never", [](const gn::Request&) {
    return gn::HandlerResult::not_ready();
  });
  std::vector<gn::NodeId> peers{1};
  const auto start = std::chrono::steady_clock::now();
  auto replies = cluster.collect(0, peers, "never", 0, nullptr, 1, 200ms);
  EXPECT_TRUE(replies.empty());
  // The retry loop must terminate around the timeout, not spin forever.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(Cluster, TeardownWithInFlightRetriesResolvesCallbacks) {
  // Destroying the cluster while a not-ready retry chain is live must
  // resolve the callback (as a dropped dispatch), not re-arm a dead timer
  // or leak the callback — the hang-then-timeout teardown failure mode.
  std::promise<gn::PayloadPtr> done;
  auto future = done.get_future();
  std::uint64_t dropped = 0;
  {
    gn::Cluster cluster(small_cluster(2));
    cluster.register_handler(1, "never", [](const gn::Request&) {
      return gn::HandlerResult::not_ready();
    });
    cluster.call(0, 1, "never", 0, nullptr,
                 [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
                 std::chrono::seconds(30));
    std::this_thread::sleep_for(5ms);  // let a few redeliveries happen
    dropped = cluster.stats().dropped_tasks;
    (void)dropped;
  }  // ~Cluster flushes the retry; the callback must have fired by now
  ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
  EXPECT_FALSE(future.get());
}

TEST(Cluster, NotifyRacingNotReadyLosesNoWakeup) {
  // Step t's publication and notify race the delivery of the one pull
  // waiting for it, and the next pull is issued only once this one has
  // resolved, so no later notify can rescue it. On odd steps the publisher
  // waits until the handler has said "not yet" and publishes while the
  // handler is still returning — the lost-wake-up window itself; on even
  // steps it publishes as soon as the pull is issued. A pull whose
  // "not yet" lost the race must redeliver, not park: a lost wake-up sits
  // parked until its 30 s deadline, so a pull unanswered after 2 s fails.
  constexpr std::uint64_t kSteps = 2000;
  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<bool> stop{false};
  gn::Cluster cluster(small_cluster(2));
  cluster.register_handler(1, "step", [&](const gn::Request& req) {
    if (req.iteration > published.load()) {
      refused.store(req.iteration);
      // Hold the window open; sleeping lets the publisher run inside it.
      std::this_thread::sleep_for(50us);
      return gn::HandlerResult::not_ready();
    }
    return gn::HandlerResult::reply(gn::Payload{float(req.iteration)});
  });
  std::thread publisher([&] {
    for (std::uint64_t t = 1; t <= kSteps; ++t) {
      while (issued.load() < t && !stop.load()) std::this_thread::yield();
      while (t % 2 == 1 && refused.load() < t && !stop.load()) {
        std::this_thread::yield();
      }
      if (stop.load()) return;
      published.store(t);
      cluster.notify_ready(1);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t t = 1; t <= kSteps; ++t) {
    cluster.call(0, 1, "step", t, nullptr,
                 [&](gn::PayloadPtr p) {
                   if (p) answered.fetch_add(1);
                   resolved.fetch_add(1);
                 },
                 30s);
    issued.store(t);
    const auto give_up = std::chrono::steady_clock::now() + 2s;
    while (resolved.load() < t && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    if (resolved.load() < t) {
      ADD_FAILURE() << "pull " << t << " lost its wake-up";
      break;
    }
  }
  stop.store(true);
  publisher.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  EXPECT_EQ(answered.load(), kSteps);
}

TEST(Cluster, CrashResolvesParkedRequestsAtOnce) {
  std::atomic<int> runs{0};
  std::promise<gn::PayloadPtr> done;
  auto reply = done.get_future();
  gn::Cluster cluster(small_cluster(2));
  cluster.register_handler(1, "never", [&runs](const gn::Request&) {
    runs.fetch_add(1);
    return gn::HandlerResult::not_ready();
  });
  cluster.call(0, 1, "never", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               30s);
  ASSERT_TRUE(eventually([&] { return runs.load() >= 1; }));
  const auto crashed_at = std::chrono::steady_clock::now();
  cluster.crash(1);
  // Fail-silent at once, not at the 30 s deadline.
  ASSERT_EQ(reply.wait_for(1s), std::future_status::ready);
  EXPECT_LT(std::chrono::steady_clock::now() - crashed_at, 1s);
  EXPECT_EQ(reply.get(), nullptr);
}

TEST(Cluster, StatsCountTraffic) {
  gn::Cluster cluster(small_cluster(3));
  serve_constant(cluster, 1, 1.0F, 10);
  serve_constant(cluster, 2, 2.0F, 10);
  auto arg = std::make_shared<const gn::Payload>(gn::Payload(5, 0.0F));
  std::vector<gn::NodeId> peers{1, 2};
  (void)cluster.collect(0, peers, "echo", 0, arg, 2);
  const gn::NetStats stats = cluster.stats();
  EXPECT_EQ(stats.requests_sent, 2u);
  EXPECT_EQ(stats.replies_received, 2u);
  // 2 requests x 5 floats + 2 replies x 10 floats.
  EXPECT_EQ(stats.floats_transferred, 30u);
  EXPECT_EQ(stats.wasted_replies, 0u);
  EXPECT_EQ(stats.dropped_tasks, 0u);
}

TEST(Cluster, StatsSnapshotStaysCoherentUnderConcurrentLoad) {
  // The traffic counters are relaxed atomics, except the replies_received
  // release/acquire pair that anchors the snapshot (see Cluster::stats()).
  // The audited contract: any snapshot taken mid-flight is per-counter
  // monotone against any earlier snapshot from the same thread, and never
  // shows more replies than requests — even while collects are racing.
  gn::Cluster cluster(small_cluster(4));
  for (gn::NodeId i = 1; i < 4; ++i) serve_constant(cluster, i, float(i), 4);
  std::atomic<bool> stop{false};
  std::thread load([&] {
    std::vector<gn::NodeId> peers{1, 2, 3};
    for (std::uint64_t it = 0; !stop.load(); ++it) {
      (void)cluster.collect(0, peers, "echo", it, nullptr, 2);
    }
  });
  gn::NetStats prev;
  for (int i = 0; i < 2000; ++i) {
    const gn::NetStats s = cluster.stats();
    ASSERT_LE(s.replies_received, s.requests_sent) << "sample " << i;
    ASSERT_GE(s.requests_sent, prev.requests_sent) << "sample " << i;
    ASSERT_GE(s.replies_received, prev.replies_received) << "sample " << i;
    ASSERT_GE(s.floats_transferred, prev.floats_transferred) << "sample " << i;
    ASSERT_GE(s.wasted_replies, prev.wasted_replies) << "sample " << i;
    ASSERT_GE(s.quorum_misses, prev.quorum_misses) << "sample " << i;
    ASSERT_GE(s.dropped_tasks, prev.dropped_tasks) << "sample " << i;
    prev = s;
  }
  stop = true;
  load.join();
  // Drain: the last collect returned at q=2, so its third reply may still
  // be in flight. At quiescence the cross-field relation is exact.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.stats().replies_received < cluster.stats().requests_sent &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const gn::NetStats end = cluster.stats();
  EXPECT_EQ(end.replies_received, end.requests_sent);
  EXPECT_EQ(end.dropped_tasks, 0u);
}

TEST(Cluster, RepliesBeyondTheQuorumCountAsWasted) {
  // One fast peer, three stragglers; q=1 means the stragglers' replies are
  // crafted after the quorum is met and must be counted, not stored.
  gn::Cluster::Options opts = small_cluster(5);
  opts.conditions =
      gn::NetworkConditions::parse("straggler:nodes=2-4,lag=50ms");
  gn::Cluster cluster(opts);
  for (gn::NodeId i = 1; i < 5; ++i) serve_constant(cluster, i, float(i));
  std::vector<gn::NodeId> peers{1, 2, 3, 4};
  auto replies = cluster.collect(0, peers, "echo", 0, nullptr, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].from, 1u);
  // The stragglers still answer; wait for their callbacks to land.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.stats().replies_received < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const gn::NetStats stats = cluster.stats();
  EXPECT_EQ(stats.replies_received, 4u);
  EXPECT_EQ(stats.wasted_replies, 3u);
}

TEST(Cluster, JitterIsDeterministicPerEdgeAndIteration) {
  // The jitter draw is a pure hash of (seed, from, to, method, iteration)
  // — the old shared-Rng draw made simulated latency depend on thread
  // interleaving. Assert the function directly: same inputs => same delay,
  // across repeated draws and across independently-built clusters.
  gn::Cluster::Options opts;
  opts.nodes = 4;
  opts.conditions = gn::NetworkConditions::parse("wan:jitter=10ms");
  opts.seed = 99;
  gn::Cluster a(opts), b(opts);

  std::vector<gn::Duration> draws;
  for (gn::NodeId from = 0; from < 4; ++from) {
    for (gn::NodeId to = 0; to < 4; ++to) {
      for (std::uint64_t it = 0; it < 5; ++it) {
        const gn::Duration d = a.jitter_for(from, to, "echo", it);
        EXPECT_GE(d.count(), 0);
        EXPECT_LT(d.count(), 10000);
        EXPECT_EQ(d, a.jitter_for(from, to, "echo", it));  // repeat draw
        EXPECT_EQ(d, b.jitter_for(from, to, "echo", it));  // fresh cluster
        draws.push_back(d);
      }
    }
  }
  // Distribution sanity: the edges/iterations must not all collapse onto
  // one value.
  std::sort(draws.begin(), draws.end());
  EXPECT_GT(draws.back() - draws.front(), gn::Duration{1000});
  // The method name is part of the edge key, and a different seed moves
  // the draw.
  EXPECT_NE(a.jitter_for(0, 1, "echo", 0), a.jitter_for(0, 1, "get", 0));
  opts.seed = 100;
  gn::Cluster c(opts);
  EXPECT_NE(a.jitter_for(0, 1, "echo", 0), c.jitter_for(0, 1, "echo", 0));
}

TEST(Cluster, ConcurrentCollectsDoNotInterfere) {
  gn::Cluster cluster(small_cluster(6));
  for (gn::NodeId i = 1; i < 6; ++i) serve_constant(cluster, i, float(i));
  std::vector<gn::NodeId> peers{1, 2, 3, 4, 5};
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cluster, &peers, &total] {
      for (int k = 0; k < 20; ++k) {
        auto replies =
            cluster.collect(0, peers, "echo", std::uint64_t(k), nullptr, 3);
        total.fetch_add(int(replies.size()));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 4 * 20 * 3);
}

TEST(Cluster, LatencyAndJitterDelayDelivery) {
  gn::Cluster::Options opts;
  opts.nodes = 2;
  opts.conditions = gn::NetworkConditions::parse("wan:latency=50ms");
  gn::Cluster cluster(opts);
  serve_constant(cluster, 1, 1.0F);
  const auto start = std::chrono::steady_clock::now();
  std::vector<gn::NodeId> peers{1};
  (void)cluster.collect(0, peers, "echo", 0, nullptr, 1);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 45ms);
}

// ----------------------------------------------------------- lifecycle FSM

TEST(Lifecycle, RetryGiveUpIsStrictlyAfterTheDeadline) {
  // The give-up comparison must be strict: a retry landing exactly AT the
  // deadline is the last legitimate attempt of a timeout-bounded exchange,
  // not one past it (the old `>=` silently dropped it).
  const auto deadline = gn::Clock::now() + 1s;
  EXPECT_FALSE(gn::retry_gives_up(deadline, deadline));
  EXPECT_FALSE(gn::retry_gives_up(deadline - 1us, deadline));
  EXPECT_TRUE(gn::retry_gives_up(deadline + 1us, deadline));
}

TEST(Lifecycle, CrashRecoverRoundTripRestoresService) {
  gn::Cluster cluster(small_cluster(2));
  serve_constant(cluster, 1, 5.0F);
  EXPECT_EQ(cluster.lifecycle(1), gn::NodeLifecycle::kRunning);

  cluster.crash(1);
  EXPECT_EQ(cluster.lifecycle(1), gn::NodeLifecycle::kCrashed);
  EXPECT_TRUE(cluster.is_crashed(1));
  std::vector<gn::NodeId> peers{1};
  EXPECT_TRUE(cluster.collect(0, peers, "echo", 0, nullptr, 1, 1s).empty());

  cluster.begin_recovery(1);
  EXPECT_EQ(cluster.lifecycle(1), gn::NodeLifecycle::kRecovering);
  // RECOVERING is still fail-silent.
  EXPECT_TRUE(cluster.is_crashed(1));
  EXPECT_TRUE(cluster.collect(0, peers, "echo", 1, nullptr, 1, 1s).empty());

  // A restarted process has no handlers: re-register before completing.
  serve_constant(cluster, 1, 6.0F);
  cluster.complete_recovery(1);
  EXPECT_EQ(cluster.lifecycle(1), gn::NodeLifecycle::kRunning);
  EXPECT_FALSE(cluster.is_crashed(1));
  auto replies = cluster.collect(0, peers, "echo", 2, nullptr, 1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FLOAT_EQ((*replies[0].payload)[0], 6.0F);
}

TEST(Lifecycle, CrashDropsRegisteredHandlers) {
  gn::Cluster cluster(small_cluster(2));
  serve_constant(cluster, 1, 5.0F);
  cluster.crash(1);
  cluster.begin_recovery(1);
  cluster.complete_recovery(1);
  // Recovered without re-registering: the old handler must be gone (a
  // restarted process does not keep the dead one's function pointers).
  std::promise<gn::PayloadPtr> done;
  cluster.call(0, 1, "echo", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); });
  EXPECT_FALSE(done.get_future().get());
}

TEST(Lifecycle, OutOfOrderTransitionsThrow) {
  gn::Cluster cluster(small_cluster(2));
  EXPECT_THROW(cluster.begin_recovery(1), std::logic_error);     // RUNNING
  EXPECT_THROW(cluster.complete_recovery(1), std::logic_error);  // RUNNING
  cluster.crash(1);
  EXPECT_THROW(cluster.complete_recovery(1), std::logic_error);  // CRASHED
  cluster.begin_recovery(1);
  EXPECT_THROW(cluster.begin_recovery(1), std::logic_error);  // RECOVERING
  cluster.complete_recovery(1);
  EXPECT_EQ(cluster.lifecycle(1), gn::NodeLifecycle::kRunning);
}

TEST(Lifecycle, ChurnScheduleDrivesCrashAndRecovery) {
  gn::Cluster::Options opts = small_cluster(3);
  opts.conditions =
      gn::NetworkConditions::parse("churn:crash=2,at_iter=5,recover_after=3");
  gn::Cluster cluster(opts);
  serve_constant(cluster, 2, 1.0F);
  std::atomic<int> recoveries{0};
  std::atomic<std::uint64_t> recovered_at{0};
  cluster.set_recovery_handler(2, [&](std::uint64_t up) {
    recoveries.fetch_add(1);
    recovered_at.store(up);
  });

  cluster.advance_lifecycle(4);
  EXPECT_FALSE(cluster.is_crashed(2));
  cluster.advance_lifecycle(5);
  EXPECT_TRUE(cluster.is_crashed(2));
  cluster.advance_lifecycle(7);
  EXPECT_TRUE(cluster.is_crashed(2));
  cluster.advance_lifecycle(8);  // up-edge: 5 + 3
  EXPECT_FALSE(cluster.is_crashed(2));
  EXPECT_EQ(recoveries.load(), 1);
  EXPECT_EQ(recovered_at.load(), 8u);
  // One-shot events: replaying old iterations must not re-crash the node.
  cluster.advance_lifecycle(6);
  EXPECT_FALSE(cluster.is_crashed(2));
  // wait_until_running on an already-running node reports the recovery.
  const auto resumed = cluster.wait_until_running(2, 1s);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(*resumed, 8u);
}

TEST(Lifecycle, JoinNodesStartCrashedAndComeUpAtTheirIteration) {
  gn::Cluster::Options opts = small_cluster(3);
  opts.conditions = gn::NetworkConditions::parse("churn:join=2,at_iter=10");
  gn::Cluster cluster(opts);
  // Down from construction, before any advance_lifecycle call.
  EXPECT_TRUE(cluster.is_crashed(2));
  EXPECT_FALSE(cluster.is_crashed(1));
  cluster.advance_lifecycle(9);
  EXPECT_TRUE(cluster.is_crashed(2));
  cluster.advance_lifecycle(10);
  EXPECT_FALSE(cluster.is_crashed(2));
}

TEST(Lifecycle, PermanentCrashNeverRecovers) {
  gn::Cluster::Options opts = small_cluster(2);
  opts.conditions = gn::NetworkConditions::parse("churn:crash=1,at_iter=3");
  gn::Cluster cluster(opts);
  cluster.advance_lifecycle(1000);
  EXPECT_TRUE(cluster.is_crashed(1));
  EXPECT_FALSE(cluster.wait_until_running(1, 50ms).has_value());
}

TEST(Lifecycle, QuorumMissesCountShortCollects) {
  gn::Cluster cluster(small_cluster(4));
  for (gn::NodeId i = 1; i < 4; ++i) serve_constant(cluster, i, float(i));
  cluster.crash(3);
  std::vector<gn::NodeId> peers{1, 2, 3};
  // Met quorum: no miss.
  EXPECT_EQ(cluster.collect(0, peers, "echo", 0, nullptr, 2).size(), 2u);
  EXPECT_EQ(cluster.stats().quorum_misses, 0u);
  // q = 3 with one crashed responder: resolves short, counts one miss.
  EXPECT_EQ(cluster.collect(0, peers, "echo", 1, nullptr, 3, 2s).size(), 2u);
  EXPECT_EQ(cluster.stats().quorum_misses, 1u);
}

// ------------------------------------------------------- tcp teardown

namespace {

/// A loopback listener on a kernel-assigned port, as the multi-process
/// orchestrator binds one per rank before forking.
int listen_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ADD_FAILURE() << "cannot listen on loopback";
    return -1;
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// Two TcpTransport endpoints (ranks 0 and 1) meshed in one process.
std::pair<std::unique_ptr<gn::TcpTransport>, std::unique_ptr<gn::TcpTransport>>
tcp_pair() {
  std::vector<std::uint16_t> ports(2);
  const int fd0 = listen_loopback(ports[0]);
  const int fd1 = listen_loopback(ports[1]);
  const auto make = [&](std::size_t rank, int fd) {
    gn::TcpTransport::Options opts;
    opts.rank = rank;
    opts.nodes = 2;
    opts.listen_fd = fd;
    opts.ports = ports;
    return std::make_unique<gn::TcpTransport>(opts);
  };
  auto a = make(0, fd0);
  auto b = make(1, fd1);
  const gn::Transport::DeliverFn ignore = [](gn::Request, gn::Clock::time_point,
                                             gn::Transport::Respond) {};
  const gn::Transport::Post refuse = [](std::function<void()>&&) {
    return false;
  };
  std::thread accept_side([&] { a->start(ignore, refuse); });
  b->start(ignore, refuse);
  accept_side.join();
  return {std::move(a), std::move(b)};
}

}  // namespace

TEST(TcpTeardown, EofBeforeTheDoneBarrierIsAPeerDeath) {
  auto [a, b] = tcp_pair();
  b.reset();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (a->peer_deaths() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(a->peer_deaths(), 1u);
}

TEST(TcpTeardown, ExitPastTheDoneBarrierIsNoPeerDeath) {
  auto [a, b] = tcp_pair();
  a->announce_done();
  b->announce_done();
  ASSERT_TRUE(a->await_done(2, 10s));
  ASSERT_TRUE(b->await_done(2, 10s));
  const std::uint64_t received = a->bytes_received();
  b.reset();
  // A death would be counted within microseconds on loopback.
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(a->peer_deaths(), 0u);
  // The exit announcement is teardown, not traffic.
  EXPECT_EQ(a->bytes_received(), received);
}

TEST(TcpTeardown, DelayedSendsInFlightResolveAtClusterTeardown) {
  // Calls still on the caller's timer wheel when its Cluster is destroyed
  // resolve exactly once, silent, before the destructor returns: ~Cluster
  // shuts the streams first, then flushes its wheel into the dead links.
  std::vector<std::uint16_t> ports(2);
  const int fd0 = listen_loopback(ports[0]);
  const int fd1 = listen_loopback(ports[1]);
  const auto options = [&](std::size_t rank, int fd) {
    gn::TcpTransport::Options topts;
    topts.rank = rank;
    topts.nodes = 2;
    topts.listen_fd = fd;
    topts.ports = ports;
    gn::Cluster::Options opts;
    opts.nodes = 2;
    opts.pool_threads = 1;
    opts.conditions = gn::NetworkConditions::parse("wan:latency=200ms");
    opts.transport = std::make_shared<gn::TcpTransport>(topts);
    return opts;
  };
  const gn::Cluster::Options opts0 = options(0, fd0);
  const gn::Cluster::Options opts1 = options(1, fd1);
  std::unique_ptr<gn::Cluster> caller;
  std::thread accept_side(
      [&] { caller = std::make_unique<gn::Cluster>(opts0); });
  gn::Cluster callee(opts1);
  accept_side.join();
  serve_constant(callee, 1, 7.0F);

  constexpr std::size_t kCalls = 8;
  std::array<std::atomic<int>, kCalls> fired{};
  std::atomic<int> replies{0};
  for (std::size_t i = 0; i < kCalls; ++i) {
    caller->call(0, 1, "echo", i, nullptr,
                 [&fired, &replies, i](gn::PayloadPtr p) {
                   fired[i].fetch_add(1);
                   if (p) replies.fetch_add(1);
                 });
  }
  caller.reset();
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "call " << i;
  }
  EXPECT_EQ(replies.load(), 0);
}
