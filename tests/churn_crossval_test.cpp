// Elastic-membership cross-validation: one `churn:` spec string drives
// BOTH execution planes (README "Node lifecycle & churn") —
//   - the analytic simulator removes down nodes from every pull stage's
//     candidate pool (sim/deployment_sim.h), and
//   - the live cluster's lifecycle FSM refuses delivery to them and runs
//     the recovery hook (handler re-registration + checkpoint state
//     transfer) at the scheduled up-edge (net/cluster.h, core/trainer.cpp),
// and the two planes must walk the same per-iteration quorum trajectory.
//
// Also pinned here: the churn grammar (repeatable clauses, crash/join
// exclusivity), the shared membership predicates, the step-tagged
// stale-state rejection a recovering replica relies on, the below-floor
// loud abort, and the config-time checkpoint requirement for recovering
// server replicas.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/server.h"
#include "core/trainer.h"
#include "net/cluster.h"
#include "net/conditions.h"
#include "nn/zoo.h"
#include "sim/deployment_sim.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace gc = garfield::core;
namespace gn = garfield::net;
namespace gs = garfield::sim;

namespace {

gc::DeploymentConfig live_ssmw() {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.batch_size = 8;
  cfg.nw = 6;
  cfg.fw = 1;
  cfg.gradient_gar = "multi_krum";
  cfg.iterations = 5;
  cfg.eval_every = 1;
  cfg.seed = 20260808;
  return cfg;
}

/// The analytic plane's view of a live config: the same config, priced at
/// d = 1e6 on the CPU profile.
gs::SimSetup priced(const gc::DeploymentConfig& cfg) {
  gs::SimSetup s;
  s.config = cfg;
  s.d = 1'000'000;
  s.device = gs::cpu_profile();
  return s;
}

void expect_same_curve(const gc::TrainResult& a, const gc::TrainResult& b,
                       const char* what) {
  ASSERT_EQ(a.curve.size(), b.curve.size()) << what;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].accuracy, b.curve[i].accuracy) << what << " @" << i;
    EXPECT_EQ(a.curve[i].loss, b.curve[i].loss) << what << " @" << i;
  }
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("garfield_churn_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace

// ------------------------------------------------------- grammar & predicates

TEST(ChurnGrammar, ClausesMayRepeatAndEachSchedulesOneEvent) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "churn:crash=3,at_iter=4,recover_after=2;churn:join=5,at_iter=6");
  ASSERT_EQ(c.churn().size(), 2u);
  EXPECT_TRUE(c.has_churn());
  EXPECT_FALSE(c.ideal());
  const auto& crash = c.churn()[0];
  EXPECT_FALSE(crash.join);
  EXPECT_EQ(crash.nodes.lo, 3u);
  EXPECT_EQ(crash.at_iter, 4u);
  EXPECT_EQ(crash.recover_after, 2u);
  const auto& join = c.churn()[1];
  EXPECT_TRUE(join.join);
  EXPECT_EQ(join.nodes.lo, 5u);
  EXPECT_EQ(join.at_iter, 6u);
}

TEST(ChurnGrammar, CrashAndJoinAreMutuallyExclusive) {
  EXPECT_THROW((void)gn::NetworkConditions::parse(
                   "churn:crash=1,join=2,at_iter=3"),
               std::invalid_argument);
  // An event must name somebody.
  EXPECT_THROW((void)gn::NetworkConditions::parse("churn:at_iter=3"),
               std::invalid_argument);
}

TEST(ChurnGrammar, JoinRejectsRecoverAfter) {
  // A join IS the recovery of a node that was never alive; a
  // recover_after on it has no meaning and must not parse.
  EXPECT_THROW((void)gn::NetworkConditions::parse(
                   "churn:join=2,at_iter=3,recover_after=1"),
               std::invalid_argument);
}

TEST(ChurnGrammar, ValidateRejectsOutOfClusterNodes) {
  const gn::NetworkConditions c =
      gn::NetworkConditions::parse("churn:crash=9,at_iter=1");
  EXPECT_THROW(c.validate(5), std::invalid_argument);
  EXPECT_NO_THROW(c.validate(10));
}

TEST(ChurnPredicates, CrashWindowIsHalfOpenAndJoinIsAPrefix) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "churn:crash=3,at_iter=4,recover_after=2;churn:join=5,at_iter=6");
  // crash=3: down exactly over [4, 6).
  EXPECT_FALSE(c.churn_down(3, 3));
  EXPECT_TRUE(c.churn_down(3, 4));
  EXPECT_TRUE(c.churn_down(3, 5));
  EXPECT_FALSE(c.churn_down(3, 6));
  // join=5: down over [0, 6), up from 6 on.
  EXPECT_TRUE(c.churn_down(5, 0));
  EXPECT_TRUE(c.churn_down(5, 5));
  EXPECT_FALSE(c.churn_down(5, 6));
  // Bystanders are never down.
  EXPECT_FALSE(c.churn_down(4, 5));
  // next_up_iteration agrees with the windows.
  EXPECT_EQ(c.next_up_iteration(3, 4), std::optional<std::uint64_t>(6));
  EXPECT_EQ(c.next_up_iteration(5, 2), std::optional<std::uint64_t>(6));
  // count_down sums per node over a span.
  EXPECT_EQ(c.count_down(0, 8, 5), 2u);   // nodes 3 and 5
  EXPECT_EQ(c.count_down(0, 8, 6), 0u);
}

TEST(ChurnPredicates, PermanentCrashNeverComesBack) {
  const gn::NetworkConditions c =
      gn::NetworkConditions::parse("churn:crash=2,at_iter=3");
  EXPECT_FALSE(c.churn_down(2, 2));
  EXPECT_TRUE(c.churn_down(2, 3));
  EXPECT_TRUE(c.churn_down(2, 1'000'000));
  EXPECT_EQ(c.next_up_iteration(2, 3), std::nullopt);
}

TEST(ChurnPredicates, OverlappingEventsDownWheneverAnySaysSo) {
  // Node 1 crashes twice; the union of the windows holds it down.
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "churn:crash=1,at_iter=2,recover_after=2;"
      "churn:crash=1,at_iter=3,recover_after=3");
  EXPECT_TRUE(c.churn_down(1, 2));
  EXPECT_TRUE(c.churn_down(1, 4));  // first window over, second active
  EXPECT_TRUE(c.churn_down(1, 5));
  EXPECT_FALSE(c.churn_down(1, 6));
  // The up-edge skips to the end of the covering union.
  EXPECT_EQ(c.next_up_iteration(1, 2), std::optional<std::uint64_t>(6));
}

// --------------------------------------------------------- analytic plane

TEST(ChurnSim, CrashedStragglerStopsCostingItsLagInsideTheWindow) {
  // Worker 6 straggles with a 50ms lag the synchronous full-cohort pull
  // cannot dodge — until the churn schedule crashes it: a down node is
  // absent, not slow, so inside [2, 4) the stage loses both the
  // straggling responder and the wait for it. Outside the window the
  // breakdown is bit-identical to before.
  gs::SimSetup sim = priced(live_ssmw());
  sim.config.asynchronous = false;
  sim.config.network =
      "straggler:nodes=6,lag=50ms;churn:crash=6,at_iter=2,recover_after=2";
  sim.iteration = 0;
  const double before = gs::simulate_iteration(sim).total();
  sim.iteration = 2;
  const double inside = gs::simulate_iteration(sim).total();
  sim.iteration = 4;
  const double after = gs::simulate_iteration(sim).total();
  EXPECT_NEAR(before, after, 1e-12);
  EXPECT_LT(inside, before - 0.04);  // ~the 50ms lag vanished with the node
}

TEST(ChurnSim, ShrunkenQuorumTrimsTheJitterTail) {
  // With jitter, the q-th order statistic tail scales with q/(avail+1);
  // crashing a worker clamps the synchronous quorum from 6-of-6 to
  // 5-of-5, so the expected tail strictly drops inside the window.
  gs::SimSetup sim = priced(live_ssmw());
  sim.config.asynchronous = false;
  sim.config.network =
      "wan:jitter=10ms;churn:crash=6,at_iter=2,recover_after=2";
  sim.iteration = 0;
  const double before = gs::simulate_iteration(sim).communication;
  sim.iteration = 2;
  const double inside = gs::simulate_iteration(sim).communication;
  sim.iteration = 4;
  const double after = gs::simulate_iteration(sim).communication;
  EXPECT_LT(inside, before);
  EXPECT_NEAR(before, after, 1e-12);
}

// ------------------------------------------- live plane: quorum trajectory

TEST(ChurnLive, SsmwTrajectoryMatchesTheScheduleOnBothPlanes) {
  // Synchronous SSMW, worker 6 down over [2, 4): the reporting server's
  // per-iteration gradient reply counts must equal the analytic plane's
  // prediction span - count_down(span, it) — the cross-plane contract —
  // and every short pull must be visible as a quorum miss in the stats.
  const char* spec = "churn:crash=6,at_iter=2,recover_after=2";
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig live = live_ssmw();
  live.asynchronous = false;
  live.network = spec;
  ASSERT_NO_THROW(live.validate());
  const gc::TrainResult result = gc::train(live);
  garfield::tensor::set_parallel_threads(0);

  const gn::NetworkConditions c = gn::NetworkConditions::parse(spec);
  ASSERT_EQ(result.reporting_gradient_counts.size(), live.iterations);
  for (std::size_t it = 0; it < live.iterations; ++it) {
    const std::size_t predicted =
        live.nw - c.count_down(live.nps, live.nps + live.nw, it);
    EXPECT_EQ(result.reporting_gradient_counts[it], predicted) << "@" << it;
  }
  // Exactly the two window iterations returned short of q = nw.
  EXPECT_EQ(result.net_stats.quorum_misses, 2u);
}

// ---------------------------------- live plane: recovery w/ state transfer

TEST(ChurnLive, MsmwServerRecoveryRestoresBitwiseIdenticalLearning) {
  // Replicated servers, fps=0, synchronous, coordinate-wise median on
  // models: server 2 crashes over [2, 4) and recovers via the checkpoint
  // state transfer. The two live replicas stay bitwise in sync, so the
  // model median washes out whatever the recovering replica brings back —
  // the churned curve must equal the undisturbed one bit for bit.
  // Checkpointing stays on in BOTH runs so the trajectories only differ
  // by the churn itself.
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.batch_size = 8;
  cfg.nw = 4;
  cfg.fw = 0;
  cfg.nps = 3;
  cfg.fps = 0;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.asynchronous = false;
  cfg.iterations = 6;
  cfg.eval_every = 1;
  cfg.seed = 20260808;
  cfg.checkpoint_every = 1;

  garfield::tensor::set_parallel_threads(1);
  cfg.checkpoint_path = temp_path("msmw_ideal.ckpt");
  const gc::TrainResult ideal = gc::train(cfg);
  cfg.checkpoint_path = temp_path("msmw_churned.ckpt");
  cfg.network = "churn:crash=2,at_iter=2,recover_after=2";
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult churned = gc::train(cfg);
  garfield::tensor::set_parallel_threads(0);
  std::filesystem::remove(temp_path("msmw_ideal.ckpt"));
  std::filesystem::remove(temp_path("msmw_churned.ckpt"));

  ASSERT_FALSE(ideal.curve.empty());
  expect_same_curve(ideal, churned,
                    "recovery with state transfer is invisible to learning");
}

TEST(ChurnLive, MsmwPrimaryFailStopHandsReportingToReplicaOne) {
  // Server 0 fail-stops for good at iteration 2. The reporter is chosen
  // from the schedule before the run, so replica 1 reports from the start:
  // its full curve, not the dead primary's prefix. With fps = 0 the two
  // live replicas stay bitwise in sync and the median of their two models
  // is their shared state, so the curve equals the undisturbed run's.
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.batch_size = 8;
  cfg.nw = 4;
  cfg.fw = 0;
  cfg.nps = 3;
  cfg.fps = 0;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.iterations = 6;
  cfg.eval_every = 1;
  cfg.seed = 20260808;

  garfield::tensor::set_parallel_threads(1);
  const gc::TrainResult ideal = gc::train(cfg);
  cfg.network = "churn:crash=0,at_iter=2";
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult churned = gc::train(cfg);
  garfield::tensor::set_parallel_threads(0);

  ASSERT_EQ(churned.curve.size(), cfg.iterations);
  expect_same_curve(ideal, churned, "replica 1 reports the full curve");
  ASSERT_EQ(ideal.final_parameters.size(), churned.final_parameters.size());
  EXPECT_EQ(ideal.final_parameters, churned.final_parameters);
}

TEST(ChurnLive, DecentralizedPeerRecoversThroughTheModelExchange) {
  // Peer 3 crashes over [1, 3) and rejoins without a checkpoint — config
  // validation exempts decentralized peers because the step-tagged model
  // exchange re-syncs them. The run must complete all iterations with the
  // reporting peer observing the scheduled gradient-quorum trajectory.
  const char* spec = "churn:crash=3,at_iter=1,recover_after=2";
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.batch_size = 8;
  cfg.nw = 4;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.iterations = 5;
  cfg.eval_every = 1;
  cfg.seed = 20260808;
  cfg.network = spec;
  ASSERT_NO_THROW(cfg.validate());

  garfield::tensor::set_parallel_threads(1);
  const gc::TrainResult result = gc::train(cfg);
  garfield::tensor::set_parallel_threads(0);
  EXPECT_EQ(result.curve.size(), cfg.iterations);
  ASSERT_EQ(result.reporting_gradient_counts.size(), cfg.iterations);
}

// --------------------------------------- stale-step rejection on recovery

TEST(ChurnLive, RecoveredReplicaServesNothingStaleThroughTaggedPulls) {
  // A restarted replica has published nothing: its cleared publication
  // ring answers tagged pulls not_ready until it republishes, so a peer
  // can never aggregate the recovering node's pre-crash state under a
  // fresh iteration tag. Short-timeout collects make the decline visible
  // without waiting out the full RPC deadline.
  gn::Cluster::Options opts;
  opts.nodes = 2;
  gn::Cluster cluster(opts);
  garfield::tensor::Rng r0(21), r1(21);
  gc::Server puller(0, cluster, garfield::nn::make_model("tiny_mlp", r0), {},
                    {}, {1});
  gc::Server replica(1, cluster, garfield::nn::make_model("tiny_mlp", r1),
                     {}, {}, {0});
  replica.enable_step_tagged_serving();
  const std::vector<gn::NodeId> peers{1};
  const auto pull = [&](std::uint64_t tag) {
    return cluster.collect(0, peers, gc::kGetModel, tag, nullptr, 1,
                           std::chrono::milliseconds(150));
  };

  // Unpublished tag: not_ready until the collect deadline, empty result.
  EXPECT_TRUE(pull(0).empty());
  replica.publish_model(0);
  EXPECT_EQ(pull(0).size(), 1u);

  // Pre-crash publication for tag 1, then a restart: the cleared ring must
  // NOT serve the stale entry — the pull for tag 1 declines again until
  // the recovered replica republishes it.
  replica.publish_model(1);
  replica.rejoin();
  EXPECT_TRUE(pull(1).empty());
  replica.publish_model(1);
  EXPECT_EQ(pull(1).size(), 1u);
}

// ---------------------------------------------- below-floor loud abort

TEST(ChurnLive, ScheduleBelowTheGarFloorAbortsWithADiagnostic) {
  // multi_krum needs min_n = 2f+3 = 5 inputs at fw = 1; permanently
  // crashing one of five workers leaves 4 — aggregating there would void
  // the (n, f) bound, so train() must throw, naming the floor.
  gc::DeploymentConfig cfg = live_ssmw();
  cfg.nw = 5;
  cfg.asynchronous = false;  // q = nw = 5 passes config validation
  cfg.iterations = 4;
  cfg.network = "churn:crash=5,at_iter=2";
  ASSERT_NO_THROW(cfg.validate());
  garfield::tensor::set_parallel_threads(1);
  try {
    (void)gc::train(cfg);
    garfield::tensor::set_parallel_threads(0);
    FAIL() << "a schedule below the GAR floor must abort the run";
  } catch (const std::runtime_error& e) {
    garfield::tensor::set_parallel_threads(0);
    const std::string what = e.what();
    EXPECT_NE(what.find("resilience floor"), std::string::npos) << what;
    EXPECT_NE(what.find("min_n=5"), std::string::npos) << what;
    EXPECT_NE(what.find("iteration 2"), std::string::npos) << what;
  }
}

// ------------------------------------------- config-time churn validation

TEST(ChurnConfig, RecoveringAServerReplicaRequiresCheckpointing) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nw = 4;
  cfg.fw = 0;
  cfg.nps = 3;
  cfg.fps = 0;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.network = "churn:crash=1,at_iter=2,recover_after=2";
  try {
    cfg.validate();
    FAIL() << "server recovery without a checkpoint must not validate";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpointing is off"),
              std::string::npos)
        << e.what();
  }
  // With checkpointing on — or when the crash is permanent — it validates.
  cfg.checkpoint_path = "ckpt.bin";
  cfg.checkpoint_every = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.checkpoint_path.clear();
  cfg.checkpoint_every = 0;
  cfg.network = "churn:crash=1,at_iter=2";
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ChurnConfig, WorkerChurnNeedsNoCheckpoint) {
  // Workers hold no aggregate state worth transferring; recovering one
  // must not demand checkpointing.
  gc::DeploymentConfig cfg = live_ssmw();
  cfg.network = "churn:crash=6,at_iter=2,recover_after=2";
  EXPECT_NO_THROW(cfg.validate());
}
