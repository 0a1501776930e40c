// Cross-validation of the NetworkConditions model across the two execution
// planes (README "Network conditions"): every scenario here writes ONE
// spec string and runs it through
//   - the analytic simulator (sim::simulate_iteration on the calibrated
//     cost model), and
//   - the live in-process cluster (core::train on tiny models),
// then asserts that the paper-shaped qualitative invariants agree:
//
//   1. straggler lag favors an asynchronous n-f quorum over a synchronous
//      full-cohort wait (the paper's asynchrony argument, §2/§6),
//   2. heterogeneous slow links shift the Fig 7 breakdown toward
//      communication,
//   3. a partition window is pure delay — it binds exactly while the
//      window is active and never changes what a synchronous deployment
//      learns (messages are delayed, not dropped),
//   4. decentralized all-to-all communication dominates the parameter
//      server as n grows (the O(n^2) fabric load of Fig 9a).
//
// Live-plane timing assertions are HARD FLOORS: a conditioned synchronous
// run cannot finish before its injected timer-wheel delays, no matter how
// loaded the machine is — unlike run-vs-run wall-clock differences, which
// CPU contention can swamp. The one differential assertion (sync vs async
// under a straggler) rides a 300ms injected gap, far above any plausible
// differential noise between two adjacent tiny runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <optional>

#include "core/config.h"
#include "core/trainer.h"
#include "net/cluster.h"
#include "sim/deployment_sim.h"
#include "support/test_support.h"
#include "tensor/parallel.h"

namespace gc = garfield::core;
namespace gs = garfield::sim;
namespace gt = garfield::testsupport;

namespace {

/// Shared spec: nodes 0..6 with server 0 and workers 1..6 (the SSMW
/// layout both planes agree on); worker 6 straggles from iteration 0.
constexpr const char* kStragglerSpec = "straggler:nodes=6,lag=60ms";

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
  cfg.seed = 20260728;
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

double live_seconds(const gc::DeploymentConfig& cfg) {
  const auto start = std::chrono::steady_clock::now();
  (void)gc::train(cfg);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void expect_same_curve(const gc::TrainResult& a, const gc::TrainResult& b,
                       const char* what) {
  ASSERT_EQ(a.curve.size(), b.curve.size()) << what;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].accuracy, b.curve[i].accuracy) << what << " @" << i;
    EXPECT_EQ(a.curve[i].loss, b.curve[i].loss) << what << " @" << i;
  }
}

}  // namespace

// ------------------------------------------------- scenario 1: stragglers

TEST(NetcondCrossval, StragglerLagFavorsAsyncQuorumOnBothPlanes) {
  // Analytic plane: the synchronous full-cohort pull waits the straggler
  // lag out; the asynchronous n-f quorum dodges it.
  gs::SimSetup sim = priced(live_ssmw());
  sim.config.network = kStragglerSpec;
  sim.config.asynchronous = false;
  const double sim_sync = gs::simulate_iteration(sim).total();
  sim.config.asynchronous = true;
  const double sim_async = gs::simulate_iteration(sim).total();
  gs::SimSetup ideal = priced(live_ssmw());
  ideal.config.asynchronous = false;
  const double sim_ideal_sync = gs::simulate_iteration(ideal).total();
  EXPECT_GT(sim_sync, sim_async);
  EXPECT_GT(sim_sync - sim_ideal_sync, 0.045)  // ~the 60ms lag, not noise
      << "sync plane did not absorb the straggler lag";
  // The async quorum pays (nearly) nothing for the straggler.
  ideal.config.asynchronous = true;
  EXPECT_NEAR(sim_async, gs::simulate_iteration(ideal).total(), 0.002);

  // Live plane: same spec string, same ordering. 5 iterations x 60ms lag
  // bound the synchronous run from below; the asynchronous quorum never
  // waits for worker 6. The lag is sized to dominate scheduler noise even
  // on a loaded ASan runner, so the margins are absolute, not ratios.
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig live = live_ssmw();
  live.network = kStragglerSpec;
  ASSERT_NO_THROW(live.validate());
  live.asynchronous = false;
  const double live_sync = live_seconds(live);
  live.asynchronous = true;
  const double live_async = live_seconds(live);
  garfield::tensor::set_parallel_threads(0);
  EXPECT_GT(live_sync, 0.25);  // >= 5 iterations x 60ms, minus slack
  EXPECT_GT(live_sync, live_async + 0.15);
}

// ------------------------------------- scenario 2: heterogeneous links

TEST(NetcondCrossval, SlowLinksShiftTheBreakdownTowardCommunication) {
  const char* spec = "wan:latency=5ms;hetero:slow_links=1-2,factor=10";
  // Analytic plane: degraded edges inflate the communication share of the
  // Fig 7 breakdown; computation and aggregation stay put.
  gs::SimSetup sim = priced(live_ssmw());
  sim.config.asynchronous = false;
  const gs::IterationBreakdown ideal = gs::simulate_iteration(sim);
  sim.config.network = spec;
  const gs::IterationBreakdown hetero = gs::simulate_iteration(sim);
  EXPECT_GT(hetero.communication, ideal.communication);
  EXPECT_DOUBLE_EQ(hetero.computation, ideal.computation);
  EXPECT_DOUBLE_EQ(hetero.aggregation, ideal.aggregation);
  EXPECT_GT(hetero.communication / hetero.total(),
            ideal.communication / ideal.total());

  // Live plane: the same spec slows the synchronous run (workers 1-2 serve
  // over 10x-degraded links the full-cohort quorum cannot dodge) without
  // changing a single bit of what it learns. The timing claim is a hard
  // floor — every iteration's quorum waits a 50ms slow-edge delivery the
  // timer wheel will not release early — because an ideal-vs-conditioned
  // wall-clock *difference* is swamped by CPU contention on a loaded
  // runner.
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig live = live_ssmw();
  live.iterations = 3;
  live.asynchronous = false;
  const gc::TrainResult plain = gc::train(live);
  live.network = spec;
  ASSERT_NO_THROW(live.validate());
  const auto t0 = std::chrono::steady_clock::now();
  const gc::TrainResult slowed = gc::train(live);
  const double slowed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  garfield::tensor::set_parallel_threads(0);
  EXPECT_GT(slowed_s, 0.12);  // >= 3 iterations x 50ms, minus slack
  expect_same_curve(plain, slowed, "hetero links are pure latency");
}

// ------------------------------------------ scenario 3: partition window

TEST(NetcondCrossval, PartitionWindowBindsOnlyWhileActiveOnBothPlanes) {
  // Window [1, 3): server 0 loses workers 5-6 for two iterations; the
  // messages arrive late (delayed, never dropped).
  const char* spec = "partition:a=0,b=5-6,from_iter=1,len=2,lag=100ms";
  // Analytic plane: the breakdown is a function of *when* you look — the
  // partition lag binds inside the window and heals at GST.
  gs::SimSetup sim = priced(live_ssmw());
  sim.config.asynchronous = false;
  sim.config.network = spec;
  sim.iteration = 0;
  const double before = gs::simulate_iteration(sim).total();
  sim.iteration = 1;
  const double inside = gs::simulate_iteration(sim).total();
  sim.iteration = 3;
  const double after = gs::simulate_iteration(sim).total();
  EXPECT_NEAR(before, after, 1e-12);
  EXPECT_GT(inside, before + 0.08);  // ~the 100ms lag

  // Live plane: the two affected iterations each wait a 100ms cross-cut
  // delivery — a hard floor no scheduler noise can undercut (run-vs-run
  // differences can; see the hetero scenario) — and learning is bitwise
  // unaffected (the delayed replies still make the synchronous quorum).
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig live = live_ssmw();
  live.asynchronous = false;
  const gc::TrainResult ideal = gc::train(live);
  live.network = spec;
  ASSERT_NO_THROW(live.validate());
  const auto t0 = std::chrono::steady_clock::now();
  const gc::TrainResult partitioned = gc::train(live);
  const double part_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  garfield::tensor::set_parallel_threads(0);
  EXPECT_GT(part_s, 0.18);  // >= 2 window iterations x 100ms, minus slack
  expect_same_curve(ideal, partitioned,
                    "pre-GST delays never change sync learning");
}

// --------------------------------- scenario 4: O(n^2) decentralized load

TEST(NetcondCrossval, DecentralizedFabricLoadDominatesOnBothPlanes) {
  // Analytic plane: doubling n grows decentralized communication
  // super-linearly but parameter-server communication ~linearly.
  const auto shape = [](gc::Deployment dep, std::size_t n) {
    gc::DeploymentConfig cfg;
    cfg.deployment = dep;
    cfg.model = "tiny_mlp";
    cfg.train_size = 256;
    cfg.test_size = 64;
    cfg.batch_size = 8;
    cfg.nw = n;
    cfg.fw = 0;
    cfg.nps = 1;
    cfg.gradient_gar = "median";
    cfg.model_gar = "median";
    cfg.iterations = 2;
    cfg.eval_every = 0;
    cfg.seed = 7;
    return cfg;
  };
  const auto sim_comm = [&shape](gc::Deployment dep, std::size_t n) {
    gs::SimSetup s = priced(shape(dep, n));
    s.d = 10'000'000;
    return gs::communication_time(s);
  };
  const double sim_dec_ratio =
      sim_comm(gc::Deployment::kDecentralized, 8) /
      sim_comm(gc::Deployment::kDecentralized, 4);
  const double sim_ps_ratio = sim_comm(gc::Deployment::kSsmw, 8) /
                              sim_comm(gc::Deployment::kSsmw, 4);
  // Super-linear vs linear: the analytic mix of the linear NIC term and
  // the quadratic fabric term puts decentralized clearly above the
  // parameter server's ~2x without reaching the pure (8/4)^2.
  EXPECT_GT(sim_dec_ratio, 2.5);
  EXPECT_LT(sim_ps_ratio, 2.3);

  // Live plane: floats_transferred is exact on the in-process transport —
  // the decentralized all-to-all moves O(n^2) floats per iteration where
  // the parameter server moves O(n).
  garfield::tensor::set_parallel_threads(1);
  const auto live_floats = [&shape](gc::Deployment dep, std::size_t n) {
    return double(gc::train(shape(dep, n)).net_stats.floats_transferred);
  };
  const double live_dec_ratio =
      live_floats(gc::Deployment::kDecentralized, 8) /
      live_floats(gc::Deployment::kDecentralized, 4);
  const double live_ps_ratio = live_floats(gc::Deployment::kSsmw, 8) /
                               live_floats(gc::Deployment::kSsmw, 4);
  garfield::tensor::set_parallel_threads(0);
  EXPECT_GT(live_dec_ratio, 3.0);
  EXPECT_LT(live_ps_ratio, 3.0);
  // The planes agree on the ordering itself.
  EXPECT_GT(live_dec_ratio, live_ps_ratio);
  EXPECT_GT(sim_dec_ratio, sim_ps_ratio);
}

// ------------------------------------------- scenario 5: fault injection

TEST(NetcondCrossval, FaultRetryTailBindsOnlyInsideTheWindowOnBothPlanes) {
  // Window [1, 3): every edge drops 40% of attempts and spikes half its
  // deliveries by 20ms. The analytic plane charges the expected retry
  // tail plus the expected spike mass inside the window and EXACTLY zero
  // outside it; the live plane retries every lost attempt within the
  // budget, so the synchronous run learns the same bits as the ideal one.
  // (The rate is sized so the 12 in-window edge draws under this seed
  // really contain drops — the verdict is a pure hash, so if they fire
  // once they fire forever.)
  const char* spec =
      "fault:drop=0.4,delay_spike=20ms,spike=0.5,from_iter=1,len=2";
  gs::SimSetup sim = priced(live_ssmw());
  sim.config.asynchronous = false;
  sim.config.network = spec;
  sim.iteration = 0;
  const double before = gs::simulate_iteration(sim).total();
  sim.iteration = 1;
  const double inside = gs::simulate_iteration(sim).total();
  sim.iteration = 3;
  const double after = gs::simulate_iteration(sim).total();
  gs::SimSetup ideal_setup = priced(live_ssmw());
  ideal_setup.config.asynchronous = false;
  const double ideal = gs::simulate_iteration(ideal_setup).total();
  EXPECT_DOUBLE_EQ(before, ideal);
  EXPECT_DOUBLE_EQ(after, ideal);
  EXPECT_GT(inside, ideal + 0.009);  // >= the 10ms expected spike mass

  // Live plane: same spec string. Faults really fired, every one was
  // recovered (no give-ups), and the curve is bitwise the ideal curve.
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig live = live_ssmw();
  live.asynchronous = false;
  const gc::TrainResult plain = gc::train(live);
  live.network = spec;
  ASSERT_NO_THROW(live.validate());
  const gc::TrainResult faulted = gc::train(live);
  garfield::tensor::set_parallel_threads(0);
  EXPECT_GT(faulted.net_stats.faults_injected, 0u);
  EXPECT_GT(faulted.net_stats.retries, 0u);
  EXPECT_EQ(faulted.net_stats.retry_give_ups, 0u);
  expect_same_curve(plain, faulted, "recovered faults are pure latency");
}

// ------------------------------------------- scenario 6: bandwidth caps

TEST(NetcondCrossval, BandwidthMakesBytesCostTimeOnBothPlanes) {
  // A `bw=` cap turns payload size into delivery time. Both planes must
  // agree on the shape: a full-gradient exchange costs measurably more
  // than a scalar exchange under the same spec, and without the cap the
  // two cost (nearly) the same.
  const char* spec = "wan:latency=1ms,bw=10Mbps";  // 1.25 MB/s

  // Analytic plane: capping the edge rate inflates communication by the
  // serialization time of the d-float gradient; a scalar-sized payload
  // barely notices the same cap.
  // d = 1e6 floats = 4 MB => ~3.2 s/frame
  gs::SimSetup big = priced(live_ssmw());
  big.config.asynchronous = false;
  const double big_ideal = gs::simulate_iteration(big).communication;
  big.config.network = spec;
  const double big_capped = gs::simulate_iteration(big).communication;
  gs::SimSetup scalar = priced(live_ssmw());
  scalar.config.asynchronous = false;
  scalar.d = 100;
  const double scalar_ideal = gs::simulate_iteration(scalar).communication;
  scalar.config.network = spec;
  const double scalar_capped = gs::simulate_iteration(scalar).communication;
  EXPECT_GT(big_capped - big_ideal, 1.0)
      << "the 4 MB exchange must pay seconds of serialization at 1.25 MB/s";
  EXPECT_LT(scalar_capped - scalar_ideal, 0.01)
      << "a 100-float exchange pays microseconds under the same cap";

  // Live plane: same spec string on a raw two-node cluster. The serving
  // handler is free (no compute), so elapsed time is the timer wheel's
  // serialization charge — a hard floor no loaded runner can undercut.
  garfield::net::Cluster::Options opts;
  opts.nodes = 2;
  opts.conditions = garfield::net::NetworkConditions::parse(spec);
  opts.seed = 3;
  garfield::net::Cluster cluster(opts);
  constexpr std::size_t kBigD = 125'000;  // 500 KB frame => 0.4 s at the cap
  auto big_payload = std::make_shared<const garfield::net::Payload>(
      garfield::net::Payload(kBigD, 1.0F));
  auto scalar_payload = std::make_shared<const garfield::net::Payload>(
      garfield::net::Payload(1, 1.0F));
  cluster.register_handler(1, "grad", [&](const garfield::net::Request&) {
    return garfield::net::HandlerResult::reply(big_payload);
  });
  cluster.register_handler(1, "scalar", [&](const garfield::net::Request&) {
    return garfield::net::HandlerResult::reply(scalar_payload);
  });
  const garfield::net::NodeId peer[] = {1};
  const auto timed = [&](const char* method) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto replies = cluster.collect(0, peer, method, 0, nullptr, 1);
    EXPECT_EQ(replies.size(), 1u) << method;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const double scalar_s = timed("scalar");
  const double grad_s = timed("grad");
  EXPECT_GT(grad_s, 0.35) << "500 KB at 1.25 MB/s is a 0.4 s hard floor";
  // Differential with a margin far above scheduler noise (the injected
  // serialization gap is ~0.4 s; the scalar reply pays ~1 ms of latency).
  EXPECT_GT(grad_s, scalar_s + 0.3);
}

TEST(NetcondCrossval, BandwidthRunsStayBitwiseDeterministicAcrossBackends) {
  // Serialization delays and the per-link busy queue shape *time*, never
  // the trajectory: a synchronous run under a bw= cap is bitwise
  // reproducible run-to-run, and identical across transport backends.
  gc::DeploymentConfig live = live_ssmw();
  live.network = "wan:latency=200us,jitter=100us,bw=50Mbps";
  live.asynchronous = false;
  ASSERT_NO_THROW(live.validate());
  const gc::TrainResult a = gc::train(live);
  const gc::TrainResult b = gc::train(live);
  ASSERT_FALSE(a.final_parameters.empty());
  ASSERT_EQ(a.final_parameters.size(), b.final_parameters.size());
  EXPECT_EQ(std::memcmp(a.final_parameters.data(), b.final_parameters.data(),
                        a.final_parameters.size() * sizeof(float)),
            0)
      << "bandwidth shaping changed the learned bits run-to-run";
  expect_same_curve(a, b, "bw= is pure timing");
  EXPECT_EQ(a.net_stats.bytes_sent, b.net_stats.bytes_sent);

  gc::DeploymentConfig tcp_cfg = live;
  tcp_cfg.transport = "tcp";
  std::optional<gc::TrainResult> tcp;
  try {
    tcp = gc::train(tcp_cfg);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find("garfield_node") == std::string::npos) {
      throw;
    }
  }
  if (!tcp.has_value()) {
    GTEST_SKIP() << "garfield_node launcher unavailable in this build";
  }
  ASSERT_EQ(a.final_parameters.size(), tcp->final_parameters.size());
  EXPECT_EQ(std::memcmp(a.final_parameters.data(),
                        tcp->final_parameters.data(),
                        a.final_parameters.size() * sizeof(float)),
            0)
      << "bw= broke the inproc|tcp parity contract";
  expect_same_curve(a, *tcp, "bw= parity across backends");
}

// -------------------------------------- matrix: (GAR x attack x network)

TEST(NetcondCrossval, ScenarioMatrixSweepsTheNetworkAxis) {
  // Every robustness cell now carries a network column: the same GAR x
  // attack cell runs ideal, under a straggler phase and under a partition
  // window. Degraded cells silence at most the two nodes the sizing
  // spares (slack 2 + the f = 1 Byzantine budget keeps every quorum
  // above its GAR floor).
  gt::ScenarioMatrix matrix;
  matrix.gars = {"median", "multi_krum"};
  matrix.attacks = {"sign_flip", "little_is_enough:z=1.5"};
  matrix.byzantine_fs = {1};
  matrix.quorum_slacks = {2};
  matrix.networks = {
      "",
      "straggler:nodes=0,lag=10ms",           // silence one honest node
      "partition:a=1,b=0,from_iter=0,len=5",  // cut another one off
  };
  std::size_t cells = 0;
  std::size_t degraded_cells = 0;
  matrix.for_each([&](const gt::Scenario& cell) {
    ++cells;
    const gt::ScenarioResult result = gt::run_scenario(cell);
    EXPECT_LE(result.rms_deviation, gt::robustness_tolerance(cell))
        << cell.gar << " x " << cell.attack << " x '" << cell.network << "'";
    if (!cell.network.empty()) {
      ++degraded_cells;
      // The degraded node's payload really missed the quorum.
      EXPECT_LT(result.received, cell.n)
          << cell.gar << " x " << cell.attack << " x '" << cell.network
          << "'";
    }
  });
  EXPECT_EQ(cells, 2u * 2u * 3u);
  EXPECT_EQ(degraded_cells, 2u * 2u * 2u);
}

TEST(NetcondCrossval, ScenarioMatrixSweepsTheFaultAxis) {
  // The `faults` axis rides inside the network axis. The ingress model
  // mirrors the live retry budget: a modest drop rate is always recovered
  // (the quorum stays whole), while a near-certain drop rate on one edge
  // exhausts all attempts — a give-up, the node reads as silent. Cell
  // sizing (slack 2 + the f = 1 budget) spares the silenced node, so the
  // robustness bound must hold either way.
  gt::ScenarioMatrix matrix;
  matrix.gars = {"median", "multi_krum"};
  matrix.attacks = {"sign_flip"};
  matrix.byzantine_fs = {1};
  matrix.quorum_slacks = {2};
  matrix.faults = {
      "",
      "fault:drop=0.3",            // lossy but inside the retry budget
      "fault:drop=0.999,edges=0",  // one edge almost certainly gives up
  };
  std::size_t cells = 0;
  std::size_t silenced = 0;
  matrix.for_each([&](const gt::Scenario& cell) {
    ++cells;
    const gt::ScenarioResult result = gt::run_scenario(cell);
    EXPECT_LE(result.rms_deviation, gt::robustness_tolerance(cell))
        << cell.gar << " x " << cell.attack << " x '" << cell.fault << "'";
    if (cell.fault == "fault:drop=0.3") {
      EXPECT_EQ(result.received, cell.n)
          << "a 0.3 drop rate must never survive 8 retry attempts";
    }
    if (result.received < cell.n) ++silenced;
  });
  EXPECT_EQ(cells, 2u * 3u);
  EXPECT_GE(silenced, 1u) << "the give-up spec never silenced its edge";
}
