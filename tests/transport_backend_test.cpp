// Transport backend parity: the pluggable-transport contract (README
// "Transport backends") is that `transport=` selects a wire, not a
// behavior. Sync deployments normalize reply order by origin id and wait
// for the full cohort, so their float reductions are bitwise
// deterministic — an `inproc` run (timer-wheel + thread pool in one
// address space) and a `tcp` run (one OS process per node, framed
// length-prefixed streams over localhost) of the same config must
// produce byte-identical final parameters, curves, and counters.
//
// Pinned here:
//   - vanilla / crash-tolerant / SSMW / MSMW / decentralized parity, each
//     rank its own process
//   - the same parity under the int8 and topk codecs (SSMW, attacked MSMW,
//     decentralized with two contraction rounds), and bytes_saved counted
//     by the rank that sends each frame
//   - crash/recovery over TCP: a `churn:` schedule derived independently
//     by every process walks the same trajectory as the in-process FSM
//   - primary fail-stop: a permanent `churn:crash=0` hands reporting to
//     the backup on both backends, with the undisturbed run's model
//   - a clean exit past the done barrier is not a peer death
//   - the orchestrator's run files: under $TMPDIR, removed after the run,
//     and a missing $TMPDIR named in the error
//   - config validation scope limits of the tcp backend
//   - the ScenarioMatrix `transports` axis: twins share one seed
//
// Tests that spawn node processes carry the `multiproc` ctest label and
// skip when the garfield_node launcher is not built.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "net/wire.h"
#include "support/test_support.h"

namespace gc = garfield::core;
namespace gn = garfield::net;
namespace ts = garfield::testsupport;

namespace {

/// Shared tiny-run shape: big enough to exercise quorums and eval probes,
/// small enough that a per-node-process run finishes in seconds.
gc::DeploymentConfig tiny(gc::Deployment deployment) {
  gc::DeploymentConfig cfg;
  cfg.deployment = deployment;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.batch_size = 8;
  cfg.iterations = 6;
  cfg.eval_every = 3;
  cfg.seed = 20260808;
  return cfg;
}

/// Run the config under transport=tcp. nullopt means the garfield_node
/// launcher is not available in this build — callers GTEST_SKIP; any
/// other failure, a GARFIELD_NODE_BIN that names no executable included,
/// propagates as the test failure it is.
std::optional<gc::TrainResult> try_tcp(gc::DeploymentConfig cfg) {
  cfg.transport = "tcp";
  try {
    return gc::train(cfg);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find(
            "cannot locate the garfield_node launcher") != std::string::npos) {
      return std::nullopt;
    }
    throw;
  }
}

gc::TrainResult run_inproc(gc::DeploymentConfig cfg) {
  cfg.transport = "inproc";
  return gc::train(cfg);
}

/// The parity contract: not "close", identical. Parameters byte-for-byte,
/// probes bit-for-bit, and the work counters (which count protocol
/// events, not wire bytes) equal.
void expect_bitwise(const gc::TrainResult& inproc, const gc::TrainResult& tcp,
                    const char* what) {
  ASSERT_FALSE(inproc.final_parameters.empty()) << what;
  ASSERT_EQ(inproc.final_parameters.size(), tcp.final_parameters.size())
      << what;
  EXPECT_EQ(std::memcmp(inproc.final_parameters.data(),
                        tcp.final_parameters.data(),
                        inproc.final_parameters.size() * sizeof(float)),
            0)
      << what << ": final parameters diverged across backends";
  ASSERT_EQ(inproc.curve.size(), tcp.curve.size()) << what;
  for (std::size_t i = 0; i < inproc.curve.size(); ++i) {
    EXPECT_EQ(inproc.curve[i].iteration, tcp.curve[i].iteration) << what;
    EXPECT_EQ(inproc.curve[i].accuracy, tcp.curve[i].accuracy)
        << what << " probe " << i;
    EXPECT_EQ(inproc.curve[i].loss, tcp.curve[i].loss) << what << " probe "
                                                       << i;
  }
  EXPECT_EQ(inproc.final_accuracy, tcp.final_accuracy) << what;
  EXPECT_EQ(inproc.final_loss, tcp.final_loss) << what;
  EXPECT_EQ(inproc.iterations_run, tcp.iterations_run) << what;
  EXPECT_EQ(inproc.reporting_gradient_counts, tcp.reporting_gradient_counts)
      << what;
  // Deliberately NOT compared: rejected_payloads / gradients_served /
  // gradients_computed. Those sum over the harvesting process's local
  // objects, and under tcp the serving happened in other ranks' processes
  // — a documented scope limit (core/node_runner.h), not a parity bug.
}

}  // namespace

// ------------------------------------------------------------ sync parity

TEST(TransportBackend, VanillaIsBitwiseIdenticalAcrossBackends) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kVanilla);
  cfg.nw = 3;
  cfg.nps = 1;
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  expect_bitwise(run_inproc(cfg), *tcp, "vanilla");
}

TEST(TransportBackend, CrashTolerantIsBitwiseIdenticalAcrossBackends) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kCrashTolerant);
  cfg.nw = 3;
  cfg.nps = 3;
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  expect_bitwise(run_inproc(cfg), *tcp, "crash_tolerant");
}

TEST(TransportBackend, SsmwIsBitwiseIdenticalAcrossBackends) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 3;
  cfg.fw = 0;
  cfg.nps = 1;
  cfg.gradient_gar = "median";
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  expect_bitwise(run_inproc(cfg), *tcp, "ssmw");
}

TEST(TransportBackend, MsmwIsBitwiseIdenticalAcrossBackends) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kMsmw);
  cfg.nps = 3;
  cfg.fps = 0;
  cfg.nw = 3;
  cfg.fw = 0;
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  expect_bitwise(run_inproc(cfg), *tcp, "msmw");
}

TEST(TransportBackend, DecentralizedIsBitwiseIdenticalAcrossBackends) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kDecentralized);
  cfg.nw = 3;
  cfg.fw = 0;
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  expect_bitwise(run_inproc(cfg), *tcp, "decentralized");
}

// ------------------------------------------------------------ codec parity

namespace {

/// A fixed codec is part of the config: its frames, error-feedback
/// residuals included, are a function of the run, so an int8 or topk run
/// is held to the same contract as an uncompressed one — identical on a
/// second in-process run and over tcp.
void expect_codec_parity(gc::DeploymentConfig cfg, const std::string& what) {
  for (const char* codec : {"int8", "topk:k=0.1"}) {
    cfg.codec = codec;
    const std::string label = what + " codec=" + codec;
    const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
    if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
    const gc::TrainResult inproc = run_inproc(cfg);
    EXPECT_GT(inproc.net_stats.bytes_saved, 0u) << label;
    expect_bitwise(inproc, run_inproc(cfg), (label + " rerun").c_str());
    expect_bitwise(inproc, *tcp, label.c_str());
  }
}

}  // namespace

TEST(TransportBackend, SsmwCodecRunsAreBitwiseIdentical) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 3;
  cfg.fw = 0;
  cfg.nps = 1;
  cfg.gradient_gar = "median";
  expect_codec_parity(cfg, "ssmw");
}

TEST(TransportBackend, MsmwCodecRunsUnderAttackAreBitwiseIdentical) {
  // Crafted frames too: the Byzantine workers' and server's replies are
  // encoded by the attackers themselves.
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kMsmw);
  cfg.nps = 4;
  cfg.fps = 1;
  cfg.nw = 7;
  cfg.fw = 2;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.worker_attack = "little_is_enough";
  cfg.server_attack = "reversed";
  expect_codec_parity(cfg, "msmw+attacks");
}

TEST(TransportBackend, DecentralizedCodecRunsAreBitwiseIdentical) {
  // Two contraction rounds: every peer's gossip frames carry its
  // gradient-class residual from one publication to the next.
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kDecentralized);
  cfg.nw = 3;
  cfg.fw = 0;
  cfg.contraction_steps = 2;
  expect_codec_parity(cfg, "decentralized");
}

TEST(TransportBackend, BytesSavedCountsEveryFrameSent) {
  // Each frame is counted by the rank that sends it, crafted ones
  // included. Under int8 every frame of this run — a server's snapshot
  // argument, an honest or a little_is_enough gradient reply — carries d
  // floats in 3 + ceil(d/4), and each iteration sends nw of each.
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.nps = 1;
  cfg.gradient_gar = "median";
  cfg.worker_attack = "little_is_enough";
  cfg.codec = "int8";
  cfg.iterations = 12;
  const gc::TrainResult inproc = run_inproc(cfg);
  const std::size_t d = inproc.final_parameters.size();
  const std::uint64_t saved_per_frame =
      gn::wire_size(d) - gn::wire_size(3 + (d + 3) / 4);
  const std::uint64_t frames_each_way = cfg.iterations * cfg.nw;
  // In process one Cluster sends both: the arguments and the replies.
  EXPECT_EQ(inproc.net_stats.bytes_saved,
            2 * frames_each_way * saved_per_frame);
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  // Over tcp the reporting rank is the server: it counts its arguments.
  EXPECT_EQ(tcp->net_stats.bytes_saved, frames_each_way * saved_per_frame);
}

// -------------------------------------------------- crash/recovery on TCP

TEST(TransportBackend, ChurnCrashRecoveryMatchesAcrossBackends) {
  // Node 3 (a worker: servers occupy [0, nps)) crashes at iteration 3 and
  // recovers at 7. Every process derives the same schedule from the
  // config's `churn:` spec, so the per-iteration quorum trajectory — and
  // with it the whole training run — must stay bitwise identical to the
  // in-process lifecycle FSM walking the same schedule.
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 4;
  cfg.fw = 1;
  cfg.nps = 1;
  cfg.gradient_gar = "median";
  cfg.iterations = 10;
  cfg.eval_every = 5;
  cfg.network = "churn:crash=3,at_iter=3,recover_after=4";
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  const gc::TrainResult inproc = run_inproc(cfg);
  // The crash must actually have bitten: the reporting replica sees the
  // quorum dip from 4 to 3 inside [3, 7).
  ASSERT_EQ(inproc.reporting_gradient_counts.size(), 10u);
  EXPECT_EQ(inproc.reporting_gradient_counts[2], 4u);
  EXPECT_EQ(inproc.reporting_gradient_counts[4], 3u);
  EXPECT_EQ(inproc.reporting_gradient_counts[8], 4u);
  expect_bitwise(inproc, *tcp, "ssmw+churn");
}

TEST(TransportBackend, PrimaryFailStopHandsReportingToTheBackup) {
  // Crash-tolerant primary/backup: server 0 fail-stops for good at
  // iteration 3. The schedule is config, so every process picks replica 1
  // as the reporter before the run; it trains undisturbed (no model
  // exchange ties it to the primary), so both backends report its full
  // curve and the no-churn run's model, bit for bit.
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kCrashTolerant);
  cfg.nw = 3;
  cfg.nps = 3;
  cfg.iterations = 8;
  cfg.eval_every = 2;
  const gc::TrainResult undisturbed = run_inproc(cfg);
  cfg.network = "churn:crash=0,at_iter=3";
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  const gc::TrainResult inproc = run_inproc(cfg);
  ASSERT_FALSE(inproc.curve.empty());
  EXPECT_EQ(inproc.curve.back().iteration, cfg.iterations - 1);
  expect_bitwise(inproc, *tcp, "crash_tolerant+primary fail-stop");
  expect_bitwise(undisturbed, inproc, "fail-stop vs undisturbed");
}

TEST(TransportBackend, FaultFreeRunsCountNoPeerDeaths) {
  // A rank that passes the done barrier and closes its streams exits
  // cleanly; the ranks still harvesting must not count it as dead.
  for (const gc::Deployment d :
       {gc::Deployment::kSsmw, gc::Deployment::kMsmw,
        gc::Deployment::kDecentralized}) {
    gc::DeploymentConfig cfg = tiny(d);
    cfg.nw = 4;
    cfg.nps = d == gc::Deployment::kMsmw ? 3 : 1;
    cfg.iterations = 5;
    for (int run = 0; run < 5; ++run) {
      const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
      if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
      EXPECT_EQ(tcp->net_stats.peer_deaths, 0u)
          << gc::to_string(d) << " run " << run;
    }
  }
}

// ------------------------------------------------- fault-injection parity

TEST(TransportBackend, FaultInjectionIsBitwiseIdenticalAcrossBackends) {
  // A `fault:` clause derives every drop/corrupt/dup verdict from a pure
  // hash of (seed, edge, method, iteration, attempt) — the inproc dispatch
  // path and the tcp frame path must inject the SAME faults, and the
  // bounded retry layer must recover every one of them, so the run stays
  // bitwise identical across backends AND to a fault-free run.
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 3;
  cfg.fw = 0;
  cfg.nps = 1;
  cfg.gradient_gar = "median";
  cfg.network = "fault:drop=0.1,corrupt=0.05,dup=0.05";
  const std::optional<gc::TrainResult> tcp = try_tcp(cfg);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  const gc::TrainResult inproc = run_inproc(cfg);

  // The fault plane actually fired and the retry layer absorbed it: no
  // give-ups, no quorum damage.
  EXPECT_GT(inproc.net_stats.faults_injected, 0u);
  EXPECT_GT(inproc.net_stats.retries, 0u);
  EXPECT_EQ(inproc.net_stats.retry_give_ups, 0u);
  EXPECT_EQ(inproc.net_stats.quorum_misses, 0u);
  // The tcp result blob (v2) carries the reporting rank's fault counters;
  // its own edges are under the same clause, so it saw faults too.
  EXPECT_GT(tcp->net_stats.faults_injected, 0u);
  EXPECT_EQ(tcp->net_stats.retry_give_ups, 0u);

  expect_bitwise(inproc, *tcp, "ssmw+fault");

  // Retries make recovered wire faults invisible to synchronous learning:
  // the faulted run's trajectory equals the clean run's, bit for bit.
  gc::DeploymentConfig clean = cfg;
  clean.network.clear();
  const gc::TrainResult baseline = run_inproc(clean);
  ASSERT_EQ(baseline.final_parameters.size(),
            inproc.final_parameters.size());
  EXPECT_EQ(std::memcmp(baseline.final_parameters.data(),
                        inproc.final_parameters.data(),
                        baseline.final_parameters.size() * sizeof(float)),
            0)
      << "recovered faults leaked into the learning trajectory";
  EXPECT_EQ(baseline.net_stats.retries, 0u);
}

// ------------------------------------------------- orchestrator run files

namespace {

/// Sets an environment variable for one scope, then restores it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

gc::DeploymentConfig tiny_ssmw() {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 3;
  cfg.fw = 0;
  cfg.nps = 1;
  cfg.gradient_gar = "median";
  return cfg;
}

}  // namespace

TEST(TransportBackend, TcpRunFilesLiveUnderTmpdirAndAreRemoved) {
  std::string tmpdir = testing::TempDir() + "garfield_tmpdir.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpdir.data()), nullptr) << std::strerror(errno);
  std::optional<gc::TrainResult> tcp;
  {
    const ScopedEnv env("TMPDIR", tmpdir);
    tcp = try_tcp(tiny_ssmw());
  }
  const bool left_nothing = std::filesystem::is_empty(tmpdir);
  std::filesystem::remove_all(tmpdir);
  if (!tcp) GTEST_SKIP() << "garfield_node launcher not built";
  EXPECT_EQ(tcp->iterations_run, tiny_ssmw().iterations);
  EXPECT_TRUE(left_nothing) << "the tcp run left files under TMPDIR";
}

TEST(TransportBackend, MissingTmpdirFailsNamingIt) {
  const std::string missing = testing::TempDir() + "garfield_no_such_tmpdir";
  std::filesystem::remove_all(missing);
  const ScopedEnv env("TMPDIR", missing);
  try {
    if (!try_tcp(tiny_ssmw())) {
      GTEST_SKIP() << "garfield_node launcher not built";
    }
    ADD_FAILURE() << "train() ran with TMPDIR pointing nowhere";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- validation scope

TEST(TransportBackend, ValidateRejectsWhatTcpCannotHonor) {
  gc::DeploymentConfig cfg = tiny(gc::Deployment::kSsmw);
  cfg.nw = 3;
  cfg.gradient_gar = "median";
  cfg.transport = "bogus";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg.transport = "tcp";
  EXPECT_NO_THROW(cfg.validate());
  // The alignment probe reads every replica's parameters in one address
  // space: inproc-only, and it must fail loudly at validate(), not
  // silently diverge at runtime.
  cfg.alignment_every = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.alignment_every = 0;
  EXPECT_NO_THROW(cfg.validate());
}

// -------------------------------------------------- ScenarioMatrix axis

TEST(TransportBackend, MatrixTransportTwinsShareSeedsAndResults) {
  // The `transports` axis exists so deployment suites sweep identical
  // cells across backends: twins are the SAME cell, so they share one
  // seed, and anything seeded off the cell (here: run_scenario's
  // backend-independent ingress model) must agree exactly.
  ts::ScenarioMatrix matrix;
  matrix.gars = {"median", "krum"};
  matrix.attacks = {"sign_flip"};
  matrix.byzantine_fs = {1};
  matrix.quorum_slacks = {0};
  matrix.transports = {"inproc", "tcp"};
  std::vector<ts::Scenario> cells;
  const std::size_t count =
      matrix.for_each([&](const ts::Scenario& s) { cells.push_back(s); });
  ASSERT_EQ(count, cells.size());
  ASSERT_EQ(count % 2, 0u);
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const ts::Scenario& a = cells[i];
    const ts::Scenario& b = cells[i + 1];
    EXPECT_EQ(a.transport, "inproc");
    EXPECT_EQ(b.transport, "tcp");
    EXPECT_EQ(a.seed, b.seed) << "twins must share the cell seed";
    if (i + 2 < cells.size()) {
      EXPECT_NE(a.seed, cells[i + 2].seed) << "distinct cells decorrelate";
    }
    const ts::ScenarioResult ra = ts::run_scenario(a);
    const ts::ScenarioResult rb = ts::run_scenario(b);
    ASSERT_EQ(ra.aggregate.size(), rb.aggregate.size());
    EXPECT_EQ(std::memcmp(ra.aggregate.data(), rb.aggregate.data(),
                          ra.aggregate.size() * sizeof(float)),
              0);
    EXPECT_EQ(ra.received, rb.received);
  }
}
