// Schedule model-checker for the node-lifecycle FSM (README "Node
// lifecycle & churn", net/cluster.h).
//
// The churn/lifecycle tests elsewhere exercise a handful of hand-picked
// trajectories; this suite explores the *schedule space*. Every concurrent
// history of the lifecycle plane is some interleaving of three primitives —
// advance_lifecycle(iter) calls (any loop thread, any iteration order),
// message deliveries, and the manual crash/begin_recovery/complete_recovery
// edges — and because each primitive is executed to completion here
// (pool_threads=1, zero simulated delay, wait-per-callback), every distinct
// *order* of primitives is a distinct logical interleaving of the real
// implementation, not of a model of it.
//
// Two explorers:
//  - an exhaustive pass over every manual-edge sequence of depth 4 on two
//    nodes (6^4 = 1296 schedules), cross-checked against a shadow FSM, and
//  - a seeded DFS over advance/delivery interleavings of a two-event churn
//    schedule (budget 12'000 distinct schedules), cross-checked against
//    the NetworkConditions membership predicate `churn_down` — the same
//    oracle the analytic plane uses, so live FSM and sim plane cannot
//    drift apart anywhere in the explored space.
//
// Together the two passes explore >= 10'000 distinct schedules. Invariants
// checked on every schedule:
//  - no delivery to a non-RUNNING node (fail-silent: nullptr reply, the
//    handler never fires);
//  - the recovery edges are strict (CRASHED -> RECOVERING -> RUNNING;
//    anything else throws std::logic_error and leaves the state unchanged);
//  - advance_lifecycle never parks a node mid-recovery;
//  - a parked not-ready request is redelivered once per notify_ready()
//    and resolves silent at its deadline when nothing wakes it;
//  - the below-floor churn abort fires deterministically with a
//    byte-identical diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "net/cluster.h"
#include "net/conditions.h"
#include "tensor/parallel.h"

namespace gc = garfield::core;
namespace gn = garfield::net;

namespace {

/// Synchronous delivery: one call(), wait for its callback. With zero
/// simulated delay and a single pool thread the reply (or refusal)
/// resolves immediately, so the caller observes exactly the lifecycle
/// state the schedule put the callee in.
gn::PayloadPtr deliver(gn::Cluster& cluster, gn::NodeId from, gn::NodeId to,
                       std::uint64_t iteration,
                       gn::Duration timeout = std::chrono::seconds(5)) {
  std::promise<gn::PayloadPtr> done;
  std::future<gn::PayloadPtr> reply = done.get_future();
  cluster.call(from, to, "probe", iteration, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               timeout);
  return reply.get();
}

std::string schedule_name(const std::vector<int>& schedule) {
  std::string name;
  for (int a : schedule) {
    if (!name.empty()) name += ',';
    name += std::to_string(a);
  }
  return name;
}

}  // namespace

// ------------------------------------------------ exhaustive manual edges

namespace {

enum class ShadowState { kRunning, kCrashed, kRecovering };

struct ShadowNode {
  ShadowState state = ShadowState::kRunning;
  bool handlers_present = true;  // dropped at crash, like the real thing
};

/// Apply one manual edge to the shadow FSM. Returns true when the edge is
/// legal; an illegal edge leaves the shadow unchanged (the real cluster
/// must throw and do the same).
bool shadow_apply(ShadowNode& node, int op) {
  switch (op) {
    case 0:  // crash: any state -> CRASHED, handlers dropped
      node.state = ShadowState::kCrashed;
      node.handlers_present = false;
      return true;
    case 1:  // begin_recovery: CRASHED -> RECOVERING only
      if (node.state != ShadowState::kCrashed) return false;
      node.state = ShadowState::kRecovering;
      return true;
    default:  // complete_recovery: RECOVERING -> RUNNING only
      if (node.state != ShadowState::kRecovering) return false;
      node.state = ShadowState::kRunning;
      return true;
  }
}

gn::NodeLifecycle to_lifecycle(ShadowState s) {
  switch (s) {
    case ShadowState::kRunning:
      return gn::NodeLifecycle::kRunning;
    case ShadowState::kCrashed:
      return gn::NodeLifecycle::kCrashed;
    default:
      return gn::NodeLifecycle::kRecovering;
  }
}

}  // namespace

TEST(LifecycleModelCheck, ExhaustiveManualEdgeSequencesMatchShadowFsm) {
  // Every sequence of 4 ops over {crash, begin_recovery, complete_recovery}
  // x {node 0, node 1}: 6^4 = 1296 schedules, executed exhaustively.
  constexpr int kOpsPerNode = 3;
  constexpr std::size_t kNodes = 2;
  constexpr int kAlphabet = kOpsPerNode * int(kNodes);
  constexpr int kDepth = 4;

  std::uint64_t total = 1;
  for (int d = 0; d < kDepth; ++d) total *= kAlphabet;

  std::uint64_t explored = 0;
  for (std::uint64_t code = 0; code < total; ++code) {
    // Decode the schedule id into its op sequence (base-6 digits).
    std::vector<int> schedule(kDepth);
    std::uint64_t rest = code;
    for (int d = 0; d < kDepth; ++d) {
      schedule[d] = int(rest % kAlphabet);
      rest /= kAlphabet;
    }

    // Handler captures must outlive the cluster (teardown flushes the
    // timer backlog inline), so declare them first.
    std::array<ShadowNode, kNodes> shadow;
    std::array<int, kNodes> served{};
    gn::Cluster::Options opt;
    opt.nodes = kNodes;
    opt.pool_threads = 1;
    gn::Cluster cluster(opt);
    for (gn::NodeId node = 0; node < kNodes; ++node) {
      cluster.register_handler(
          node, "probe", [&served, node](const gn::Request&) {
            ++served[node];
            return gn::HandlerResult::reply(gn::Payload{float(node)});
          });
    }

    for (int action : schedule) {
      const auto node = gn::NodeId(action / kOpsPerNode);
      const int op = action % kOpsPerNode;
      const bool legal = shadow_apply(shadow[node], op);
      bool threw = false;
      try {
        if (op == 0) {
          cluster.crash(node);
        } else if (op == 1) {
          cluster.begin_recovery(node);
        } else {
          cluster.complete_recovery(node);
        }
      } catch (const std::logic_error&) {
        threw = true;
      }
      ASSERT_EQ(threw, !legal)
          << "schedule " << schedule_name(schedule) << " op " << action;
      // Legal or not, the cluster must agree with the shadow afterwards:
      // an illegal edge may not move the state.
      for (gn::NodeId check = 0; check < kNodes; ++check) {
        ASSERT_EQ(cluster.lifecycle(check), to_lifecycle(shadow[check].state))
            << "schedule " << schedule_name(schedule) << " node " << check;
      }
    }

    // Fail-silence at the end state: a delivery reaches the handler iff the
    // node is RUNNING *and* still has the handler (crash drops handlers; a
    // manually completed recovery without re-registration serves nothing —
    // exactly the restarted-empty-process semantics the trainer's recovery
    // hook exists to fix).
    const int before = served[0];
    const gn::PayloadPtr reply = deliver(cluster, 1, 0, /*iteration=*/0);
    const bool expect_served =
        shadow[0].state == ShadowState::kRunning && shadow[0].handlers_present;
    ASSERT_EQ(reply != nullptr, expect_served)
        << "schedule " << schedule_name(schedule);
    ASSERT_EQ(served[0], before + (expect_served ? 1 : 0))
        << "schedule " << schedule_name(schedule);
    ++explored;
  }
  EXPECT_EQ(explored, total);
  RecordProperty("schedules_explored", std::to_string(explored));
}

// ------------------------------------------- seeded DFS over churn space

namespace {

/// Two overlapping crash windows on four nodes: node 1 is down over
/// [2, 4), node 2 over [3, 6). Advancing past 6 must walk both nodes all
/// the way back up regardless of the order the horizon grew in.
constexpr const char* kChurnSpec =
    "churn:crash=1,at_iter=2,recover_after=2;"
    "churn:crash=2,at_iter=3,recover_after=3";

/// Action alphabet for the DFS. Advances deliberately include horizon
/// jumps (6 straight from 0 spans a whole crash window: the down-edge must
/// still fire before the up-edge) and deliveries probe the two churned
/// nodes at the current horizon.
constexpr std::array<std::uint64_t, 5> kAdvances{1, 2, 3, 4, 6};
constexpr int kDeliverTargets = 2;  // nodes 1 and 2
constexpr int kDfsAlphabet = int(kAdvances.size()) + kDeliverTargets;
constexpr int kDfsDepth = 6;
constexpr std::size_t kDfsBudget = 12'000;

/// Replay one schedule against a fresh cluster, asserting the membership
/// invariants after every action. Returns false (with a recorded gtest
/// failure) on the first violation.
void run_churn_schedule(const std::vector<int>& schedule,
                        const gn::NetworkConditions& conditions) {
  // Declared before the cluster: handler captures must outlive it.
  std::array<int, 4> served{};
  const auto probe_for = [&served](gn::NodeId node) {
    return [&served, node](const gn::Request&) {
      ++served[node];
      return gn::HandlerResult::reply(gn::Payload{float(node)});
    };
  };

  gn::Cluster::Options opt;
  opt.nodes = 4;
  opt.pool_threads = 1;
  opt.conditions = conditions;
  gn::Cluster cluster(opt);
  for (gn::NodeId node = 0; node < 4; ++node) {
    cluster.register_handler(node, "probe", probe_for(node));
  }
  // The recovery hook re-registers the probe handler — the miniature of
  // the trainer's re-register + state-transfer hook.
  for (gn::NodeId node = 1; node <= 2; ++node) {
    cluster.set_recovery_handler(
        node, [&cluster, &probe_for, node](std::uint64_t) {
          cluster.register_handler(node, "probe", probe_for(node));
        });
  }

  std::uint64_t horizon = 0;
  const auto check_membership = [&](const char* when) {
    for (gn::NodeId node = 0; node < 4; ++node) {
      // The live FSM and the plane-shared membership predicate must agree
      // at every step of every schedule — this is the live-vs-analytic
      // no-drift oracle.
      ASSERT_EQ(cluster.is_crashed(node),
                conditions.churn_down(node, horizon))
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
      // advance_lifecycle() must never park a node mid-recovery: the hook
      // runs inside the up-edge, so outside the call RECOVERING is not an
      // observable schedule-driven state.
      ASSERT_NE(cluster.lifecycle(node), gn::NodeLifecycle::kRecovering)
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
    }
  };

  check_membership("initially");
  for (int action : schedule) {
    if (action < int(kAdvances.size())) {
      const std::uint64_t iter = kAdvances[std::size_t(action)];
      cluster.advance_lifecycle(iter);
      horizon = std::max(horizon, iter);
    } else {
      const auto to = gn::NodeId(1 + (action - int(kAdvances.size())));
      const bool expect_up = !conditions.churn_down(to, horizon);
      const int before = served[std::size_t(to)];
      const gn::PayloadPtr reply = deliver(cluster, 3, to, horizon);
      ASSERT_EQ(reply != nullptr, expect_up)
          << "schedule " << schedule_name(schedule) << " deliver to " << to
          << " at horizon " << horizon;
      ASSERT_EQ(served[std::size_t(to)], before + (expect_up ? 1 : 0))
          << "schedule " << schedule_name(schedule) << " deliver to " << to
          << " at horizon " << horizon;
    }
    check_membership("after action");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

TEST(LifecycleModelCheck, SeededDfsOverChurnScheduleInterleavings) {
  const gn::NetworkConditions conditions =
      gn::NetworkConditions::parse(kChurnSpec);
  conditions.validate(4);

  // Enumerate distinct schedules by DFS over the action tree, visiting
  // children in seeded-shuffled order so the explored 12'000-schedule
  // subtree varies with the seed while staying fully reproducible
  // (GARFIELD_MODELCHECK_SEED overrides; the failure message names the
  // exact schedule either way).
  std::uint64_t seed = 20260808;
  if (const char* env = std::getenv("GARFIELD_MODELCHECK_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::mt19937_64 rng(seed);

  std::vector<std::vector<int>> schedules;
  schedules.reserve(kDfsBudget);
  std::vector<int> prefix;
  const std::function<void()> dfs = [&] {
    if (schedules.size() >= kDfsBudget) return;
    if (prefix.size() == kDfsDepth) {
      schedules.push_back(prefix);
      return;
    }
    std::array<int, kDfsAlphabet> order{};
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    for (int action : order) {
      if (schedules.size() >= kDfsBudget) return;
      prefix.push_back(action);
      dfs();
      prefix.pop_back();
    }
  };
  dfs();
  ASSERT_GE(schedules.size(), 10'000u)
      << "the model checker must explore at least 10k distinct schedules";

  for (const std::vector<int>& schedule : schedules) {
    run_churn_schedule(schedule, conditions);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "first violating schedule: " << schedule_name(schedule)
             << " (seed " << seed << ")";
    }
  }
  RecordProperty("schedules_explored", std::to_string(schedules.size()));
  RecordProperty("seed", std::to_string(seed));
}

// ------------------------------------------------- redelivery termination

TEST(LifecycleModelCheck, NotReadyRedeliveryTerminatesOnceReady) {
  std::atomic<int> attempts{0};
  std::promise<gn::PayloadPtr> done;
  std::future<gn::PayloadPtr> reply = done.get_future();
  gn::Cluster::Options opt;
  opt.nodes = 2;
  opt.pool_threads = 1;
  gn::Cluster cluster(opt);

  cluster.register_handler(0, "probe", [&attempts](const gn::Request&) {
    // Becomes ready on the 6th run. Nothing polls: each notify_ready()
    // below must redeliver the parked request exactly once.
    if (attempts.fetch_add(1) + 1 < 6) return gn::HandlerResult::not_ready();
    return gn::HandlerResult::reply(gn::Payload{1.0F});
  });

  cluster.call(1, 0, "probe", /*iteration=*/0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               std::chrono::seconds(5));
  for (int run = 1; run <= 5; ++run) {
    const auto deadline = gn::Clock::now() + std::chrono::seconds(5);
    while (attempts.load() < run && gn::Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(attempts.load(), run);
    cluster.notify_ready(0);
  }
  ASSERT_EQ(reply.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  ASSERT_NE(reply.get(), nullptr);
  EXPECT_EQ(attempts.load(), 6);
}

TEST(LifecycleModelCheck, NeverReadyRedeliveryGivesUpAtTheDeadline) {
  std::atomic<int> attempts{0};
  gn::Cluster::Options opt;
  opt.nodes = 2;
  opt.pool_threads = 1;
  gn::Cluster cluster(opt);

  cluster.register_handler(0, "probe", [&attempts](const gn::Request&) {
    ++attempts;
    return gn::HandlerResult::not_ready();
  });

  // A callee that never becomes ready must resolve the caller with nullptr
  // once the next retry would land past the deadline — the chain
  // terminates, it does not poll forever (and the doubling backoff bounds
  // the attempt count well below timeout/floor).
  const auto start = gn::Clock::now();
  const gn::PayloadPtr reply = deliver(cluster, 1, 0, /*iteration=*/0,
                                       std::chrono::milliseconds(5));
  const auto elapsed = gn::Clock::now() - start;
  EXPECT_EQ(reply, nullptr);
  EXPECT_GE(attempts.load(), 1);
  EXPECT_LE(attempts.load(), 64);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// ------------------------------------------- deterministic floor abort

TEST(LifecycleModelCheck, BelowFloorAbortIsDeterministic) {
  // multi_krum needs min_n = 2f+3 = 5 at fw=1; permanently crashing all
  // five workers' quorum down to 4 voids the (n, f) bound. The abort must
  // not only fire — it must fire with a byte-identical diagnostic on every
  // run, or churn CI triage turns into flaky-log archaeology.
  const auto run_once = []() -> std::string {
    gc::DeploymentConfig cfg;
    cfg.deployment = gc::Deployment::kSsmw;
    cfg.model = "tiny_mlp";
    cfg.dataset = "cluster";
    cfg.train_size = 256;
    cfg.test_size = 64;
    cfg.batch_size = 8;
    cfg.nw = 5;
    cfg.fw = 1;
    cfg.gradient_gar = "multi_krum";
    cfg.iterations = 4;
    cfg.eval_every = 1;
    cfg.seed = 20260808;
    cfg.asynchronous = false;  // q = nw = 5 passes config validation
    cfg.network = "churn:crash=5,at_iter=2";
    cfg.validate();
    try {
      (void)gc::train(cfg);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };

  garfield::tensor::set_parallel_threads(1);
  const std::string first = run_once();
  const std::string second = run_once();
  garfield::tensor::set_parallel_threads(0);

  ASSERT_FALSE(first.empty())
      << "a schedule below the GAR floor must abort the run";
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("resilience floor"), std::string::npos) << first;
  EXPECT_NE(first.find("min_n=5"), std::string::npos) << first;
}
