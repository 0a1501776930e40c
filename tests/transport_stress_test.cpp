// Transport stress: the zero-copy snapshots, the per-iteration gradient
// cache, the hash-derived jitter and the step-tagged model exchange must
// preserve the `unit-serial` determinism contract under real contention.
//
// Each cell runs a full deployment at high fan-in on the multi-threaded
// in-process cluster and asserts that the training curve (accuracy AND
// loss, compared bitwise as doubles) is identical
//   - run-to-run (same configuration, fresh cluster, different thread
//     interleavings), and
//   - across GARFIELD_THREADS-style kernel thread counts
//     (tensor::set_parallel_threads 1 vs 4 — the CTest harness additionally
//     reruns this whole binary under GARFIELD_THREADS=1).
//
// This is exactly what the old transport could NOT guarantee: the batch
// sampler advanced per request (so reply arrival order perturbed the data
// sequence) and model exchange served whatever state a racing replica
// happened to hold.
//
// The last two cases pin the worker's single-flight compute directly on a
// small cluster: a duplicate pull parks instead of holding a pool thread,
// and rejoin() cannot slip between a compute and its cache insert.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "core/worker.h"
#include "data/dataset.h"
#include "net/cluster.h"
#include "nn/zoo.h"
#include "tensor/parallel.h"

namespace gc = garfield::core;

namespace {

/// Restore the global kernel-thread override when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { garfield::tensor::set_parallel_threads(0); }
};

gc::DeploymentConfig stress_base() {
  gc::DeploymentConfig cfg;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 512;
  cfg.test_size = 128;
  cfg.batch_size = 8;
  cfg.iterations = 5;
  cfg.eval_every = 1;  // probe every iteration: the whole curve is pinned
  cfg.seed = 20260728;
  return cfg;
}

/// Bitwise curve comparison: EvalPoints carry doubles produced by
/// deterministic float kernels, so == (not NEAR) is the contract.
void expect_identical(const gc::TrainResult& a, const gc::TrainResult& b,
                      const char* what) {
  ASSERT_EQ(a.curve.size(), b.curve.size()) << what;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].iteration, b.curve[i].iteration) << what;
    EXPECT_EQ(a.curve[i].accuracy, b.curve[i].accuracy)
        << what << " accuracy diverged at probe " << i;
    EXPECT_EQ(a.curve[i].loss, b.curve[i].loss)
        << what << " loss diverged at probe " << i;
  }
  EXPECT_EQ(a.final_accuracy, b.final_accuracy) << what;
  EXPECT_EQ(a.final_loss, b.final_loss) << what;
  EXPECT_EQ(a.net_stats.floats_transferred, b.net_stats.floats_transferred)
      << what << " traffic diverged";
}

}  // namespace

TEST(TransportStress, MsmwHighFanInIsBitwiseDeterministic) {
  // 5 replicated servers x 16 workers, synchronous: every pull waits for
  // the full cohort, so the quorum membership — and therefore the whole
  // run — must be schedule-independent.
  ThreadGuard guard;
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nps = 5;
  cfg.nw = 16;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";

  garfield::tensor::set_parallel_threads(1);
  const gc::TrainResult serial = gc::train(cfg);
  const gc::TrainResult serial_again = gc::train(cfg);
  expect_identical(serial, serial_again, "msmw run-to-run (serial kernels)");

  garfield::tensor::set_parallel_threads(4);
  const gc::TrainResult threaded = gc::train(cfg);
  expect_identical(serial, threaded, "msmw serial vs 4-thread kernels");

  ASSERT_FALSE(serial.curve.empty());
  // Synchronous pulls await the whole cohort: nothing is crafted past the
  // quorum and teardown must not drop dispatches.
  EXPECT_EQ(serial.net_stats.wasted_replies, 0u);
  EXPECT_EQ(serial.net_stats.dropped_tasks, 0u);
  // Traffic is exactly computable: per iteration every server moves
  // nw request arguments + nw gradient replies + (nps-1) model replies.
  const std::uint64_t d = 874;  // tiny_mlp parameter count
  const std::uint64_t per_iter =
      cfg.nps * (2 * cfg.nw * d + (cfg.nps - 1) * d);
  EXPECT_EQ(serial.net_stats.floats_transferred,
            cfg.iterations * per_iter);
  // The gradient cache must actually bite: all nps replicas are bitwise
  // identical here, so every worker runs ONE forward/backward per
  // iteration and serves it nps times.
  EXPECT_EQ(serial.gradients_served, cfg.iterations * cfg.nps * cfg.nw);
  EXPECT_EQ(serial.gradients_computed, cfg.iterations * cfg.nw);
}

TEST(TransportStress, MsmwWithWorkerMomentumStaysDeterministic) {
  // Distributed momentum folds the velocity once per iteration; under
  // cache hits from 3 replicas the fold must still happen exactly once.
  ThreadGuard guard;
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nps = 3;
  cfg.nw = 8;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.worker_momentum = 0.9F;

  garfield::tensor::set_parallel_threads(1);
  const gc::TrainResult a = gc::train(cfg);
  const gc::TrainResult b = gc::train(cfg);
  expect_identical(a, b, "msmw+momentum run-to-run");
}

TEST(TransportStress, DecentralizedWithContractionIsBitwiseDeterministic) {
  // Peer-to-peer cell with a contract() gossip round: gradient pulls,
  // tagged aggregated-gradient gossip and tagged model exchange all ride
  // the same transport.
  ThreadGuard guard;
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.nw = 6;
  cfg.fw = 0;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.contraction_steps = 1;
  cfg.iterations = 4;

  garfield::tensor::set_parallel_threads(1);
  const gc::TrainResult serial = gc::train(cfg);
  const gc::TrainResult serial_again = gc::train(cfg);
  expect_identical(serial, serial_again, "decentralized run-to-run");

  garfield::tensor::set_parallel_threads(4);
  const gc::TrainResult threaded = gc::train(cfg);
  expect_identical(serial, threaded, "decentralized serial vs 4-thread");

  EXPECT_EQ(serial.net_stats.wasted_replies, 0u);
  EXPECT_EQ(serial.net_stats.dropped_tasks, 0u);
}

TEST(TransportStress, PoolSizeDoesNotChangeTheCurve) {
  // pool_threads is a pure performance knob: 1 handler thread and 8
  // handler threads must produce the same bits.
  ThreadGuard guard;
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nps = 3;
  cfg.nw = 8;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";

  cfg.pool_threads = 1;
  const gc::TrainResult one = gc::train(cfg);
  cfg.pool_threads = 8;
  const gc::TrainResult eight = gc::train(cfg);
  expect_identical(one, eight, "pool_threads 1 vs 8");
}

TEST(TransportStress, SimulatedLatencyPreservesTheSynchronousCurve) {
  // With synchronous quorums the hash-jittered link delays reorder reply
  // *arrival*, never membership — the curve must not move.
  ThreadGuard guard;
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.nw = 8;
  cfg.fw = 1;
  cfg.gradient_gar = "multi_krum";
  cfg.iterations = 3;

  const gc::TrainResult instant = gc::train(cfg);
  cfg.network = "wan:latency=200us,jitter=300us";
  const gc::TrainResult delayed = gc::train(cfg);
  expect_identical(instant, delayed, "latency 0 vs jittered links");
}

TEST(TransportStress, FaultInjectionStaysBitwiseDeterministic) {
  // The fault plane under contention: drop/corrupt/dup verdicts are pure
  // hashes, the retry layer's backoff is hash-jittered, and both run on
  // the multi-threaded cluster — so a faulted run must be bitwise
  // identical run-to-run, across kernel thread counts, and (because every
  // lost attempt is recovered within the budget) its CURVE must equal the
  // fault-free one. Traffic counters legitimately differ from the clean
  // run (retransmits and duplicates are real traffic), but must agree
  // between faulted runs exactly.
  ThreadGuard guard;
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nps = 3;
  cfg.nw = 8;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.iterations = 4;

  garfield::tensor::set_parallel_threads(1);
  const gc::TrainResult clean = gc::train(cfg);
  cfg.network = "fault:drop=0.08,corrupt=0.04,dup=0.04";
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult faulted = gc::train(cfg);
  const gc::TrainResult faulted_again = gc::train(cfg);
  expect_identical(faulted, faulted_again, "faulted run-to-run");
  EXPECT_EQ(faulted.net_stats.faults_injected,
            faulted_again.net_stats.faults_injected);
  EXPECT_EQ(faulted.net_stats.retries, faulted_again.net_stats.retries);

  garfield::tensor::set_parallel_threads(4);
  const gc::TrainResult threaded = gc::train(cfg);
  expect_identical(faulted, threaded, "faulted serial vs 4-thread kernels");

  // The faults really happened, and really were absorbed.
  EXPECT_GT(faulted.net_stats.faults_injected, 0u);
  EXPECT_GT(faulted.net_stats.retries, 0u);
  EXPECT_EQ(faulted.net_stats.retry_give_ups, 0u);
  ASSERT_EQ(clean.curve.size(), faulted.curve.size());
  for (std::size_t i = 0; i < clean.curve.size(); ++i) {
    EXPECT_EQ(clean.curve[i].accuracy, faulted.curve[i].accuracy)
        << "probe " << i;
    EXPECT_EQ(clean.curve[i].loss, faulted.curve[i].loss) << "probe " << i;
  }
}

TEST(TransportStress, AdverseConditionsStayBitwiseDeterministic) {
  // The whole NetworkConditions surface at once — WAN latency + jitter,
  // heterogeneous slow links, an iteration-scheduled straggler phase and a
  // partition window (delayed, never dropped) — under a synchronous MSMW
  // deployment. Synchronous quorums await the full cohort, so conditions
  // reorder arrival but never membership: the curve must be identical
  // run-to-run AND identical to the ideal-network curve.
  ThreadGuard guard;
  garfield::tensor::set_parallel_threads(1);
  gc::DeploymentConfig cfg = stress_base();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nps = 3;
  cfg.nw = 8;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.iterations = 4;

  const gc::TrainResult ideal = gc::train(cfg);
  // Node ids: servers [0, 3), workers [3, 11). Worker 10 straggles from
  // iteration 1; iteration 2 opens a one-iteration partition cutting
  // workers 9-10 off the servers; workers 3-4 sit on 10x slower links.
  cfg.network =
      "wan:latency=150us,jitter=250us;"
      "hetero:slow_links=3-4,factor=10;"
      "straggler:nodes=10,lag=2ms,from_iter=1;"
      "partition:a=0-2,b=9-10,from_iter=2,len=1,lag=3ms";
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult adverse = gc::train(cfg);
  const gc::TrainResult adverse_again = gc::train(cfg);
  expect_identical(adverse, adverse_again, "adverse run-to-run");
  expect_identical(ideal, adverse, "ideal vs adverse (sync membership)");
}

// ------------------------------------------------ single-flight worker

namespace {

namespace gn = garfield::net;

/// A worker on `node` running zoo model `model` over a synthetic dataset
/// shaped for it, and the parameters it was initialized with.
struct TestWorker {
  std::unique_ptr<gc::Worker> worker;
  gn::PayloadPtr params;
};

TestWorker make_worker(gn::Cluster& cluster, gn::NodeId node,
                       const std::string& model, std::size_t batch) {
  garfield::tensor::Rng rng(node);
  garfield::nn::ModelPtr m = garfield::nn::make_model(model, rng);
  garfield::data::Dataset data = garfield::data::make_cluster_dataset(
      m->input_shape(), 10, 4 * batch, rng, 1.0F);
  TestWorker out;
  out.params = std::make_shared<const gn::Payload>(m->parameters());
  out.worker = std::make_unique<gc::Worker>(node, cluster, std::move(m),
                                            std::move(data), batch,
                                            garfield::tensor::Rng(node + 7));
  return out;
}

}  // namespace

TEST(TransportStress, DuplicatePullDoesNotHoldAPoolThread) {
  // Two pool threads. A, then B, pull worker 1's slow (cifarnet) gradient
  // at the same (iteration, parameters); C then pulls worker 2's fast
  // (tiny_mlp) one. B must park on A's compute rather than hold the second
  // thread through it, so C is answered before either worker-1 reply.
  std::atomic<int> replies{0};
  std::array<std::atomic<int>, 3> rank{};
  gn::Cluster::Options opts;
  opts.nodes = 3;
  opts.pool_threads = 2;
  gn::Cluster cluster(opts);
  const TestWorker slow = make_worker(cluster, 1, "cifarnet", 32);
  const TestWorker fast = make_worker(cluster, 2, "tiny_mlp", 8);
  const auto pull = [&](gn::NodeId to, const gn::PayloadPtr& params,
                        std::size_t slot) {
    cluster.call(0, to, gc::kGetGradient, 0, params,
                 [&replies, &rank, slot](gn::PayloadPtr p) {
                   rank[slot] = p ? replies.fetch_add(1) : -1;
                 });
  };
  pull(1, slow.params, 0);
  pull(1, slow.params, 1);
  pull(2, fast.params, 2);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (replies.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(replies.load(), 3);
  EXPECT_LT(rank[2].load(), rank[0].load());
  EXPECT_LT(rank[2].load(), rank[1].load());
  EXPECT_EQ(slow.worker->gradients_computed(), 1u);
  EXPECT_EQ(slow.worker->gradients_served(), 2u);
}

TEST(TransportStress, RejoinDuringAnInFlightComputeLeavesNoStaleGradient) {
  // rejoin() issued mid-backprop returns only once that compute is cached
  // and counted, and then clears it: a re-pull of the same (iteration,
  // parameters) recomputes instead of serving the pre-rejoin gradient.
  gn::Cluster::Options opts;
  opts.nodes = 2;
  opts.pool_threads = 2;
  gn::Cluster cluster(opts);
  const TestWorker w = make_worker(cluster, 1, "cifarnet", 128);
  const auto pull = [&] {
    auto done = std::make_shared<std::promise<gn::PayloadPtr>>();
    std::future<gn::PayloadPtr> reply = done->get_future();
    cluster.call(0, 1, gc::kGetGradient, 0, w.params,
                 [done](gn::PayloadPtr p) { done->set_value(std::move(p)); });
    return reply;
  };
  std::future<gn::PayloadPtr> first = pull();
  // Into the backprop (tens of milliseconds at batch 128).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  w.worker->rejoin();
  EXPECT_EQ(w.worker->gradients_computed(), 1u);
  ASSERT_NE(first.get(), nullptr);
  ASSERT_NE(pull().get(), nullptr);
  EXPECT_EQ(w.worker->gradients_computed(), 2u);
}
