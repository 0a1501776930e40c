// Tests for garfield::core — config validation, controller parsing,
// Server/Worker objects over the live cluster, and integration tests of
// all five deployments (convergence, determinism, fault injection).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/server.h"
#include "core/trainer.h"
#include "core/worker.h"
#include "nn/zoo.h"

namespace gc = garfield::core;
namespace gt = garfield::tensor;
namespace gd = garfield::data;
namespace gn = garfield::net;

namespace {

/// Small fast config shared by the integration tests.
gc::DeploymentConfig fast_config() {
  gc::DeploymentConfig cfg;
  cfg.model = "tiny_mlp";
  cfg.train_size = 1024;
  cfg.test_size = 256;
  cfg.batch_size = 16;
  cfg.optimizer.lr.gamma0 = 0.1F;
  cfg.dataset_noise = 1.0F;
  cfg.iterations = 120;
  cfg.eval_every = 30;
  cfg.seed = 3;
  return cfg;
}

/// Per-process, so the parallel and serial ctest runs never share a file.
std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("garfield_core_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace

// ------------------------------------------------------------------ config

TEST(Config, ValidatesClusterShape) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.nw = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = fast_config();
  cfg.fw = cfg.nw;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = fast_config();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nps = 2;
  cfg.fps = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, ValidatesGarPreconditions) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.gradient_gar = "krum";
  cfg.nw = 4;
  cfg.fw = 1;  // krum needs 2f+3 = 5
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.nw = 5;
  EXPECT_NO_THROW(cfg.validate());
}

namespace {

gc::DeploymentConfig plan_shape(gc::Deployment deployment, bool asynchronous,
                                std::size_t nw, std::size_t fw,
                                std::size_t nps, std::size_t fps,
                                const char* gradient_gar,
                                const char* model_gar) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = deployment;
  cfg.asynchronous = asynchronous;
  cfg.nw = nw;
  cfg.fw = fw;
  cfg.nps = nps;
  cfg.fps = fps;
  cfg.gradient_gar = gradient_gar;
  cfg.model_gar = model_gar;
  return cfg;
}

}  // namespace

TEST(Config, ValidatesEveryPlanStageAtItsFloor) {
  // One row per stage of the round plan: the shape whose stage sees
  // exactly its rule's floor of inputs, and `shrink` taking one node away
  // from it. multi_krum needs 2f+3 inputs, median 2f+1; a model stage's
  // inputs are the peers awaited plus the replica's own state.
  using D = gc::Deployment;
  using Cfg = gc::DeploymentConfig;
  gc::DeploymentConfig dec_grad =
      plan_shape(D::kDecentralized, false, 6, 1, 1, 0, "multi_krum", "median");
  dec_grad.contraction_steps = 2;
  gc::DeploymentConfig dec_model =
      plan_shape(D::kDecentralized, false, 6, 1, 1, 0, "median", "multi_krum");
  dec_model.contraction_steps = 2;
  const struct {
    const char* stage;
    gc::DeploymentConfig at_floor;
    std::size_t Cfg::*shrink;
    bool floor_accepted;
  } rows[] = {
      // Vanilla and crash_tolerant average, whatever the configured rules.
      {"vanilla average",
       plan_shape(D::kVanilla, true, 1, 0, 1, 0, "krum", "krum"), &Cfg::nw,
       true},
      {"crash_tolerant average",
       plan_shape(D::kCrashTolerant, true, 1, 0, 3, 1, "krum", "krum"),
       &Cfg::nw, true},
      {"ssmw sync gradients",
       plan_shape(D::kSsmw, false, 5, 1, 1, 0, "multi_krum", "median"),
       &Cfg::nw, true},
      {"ssmw async gradients",
       plan_shape(D::kSsmw, true, 6, 1, 1, 0, "multi_krum", "median"),
       &Cfg::nw, true},
      // Awaits nw, the same check sync SSMW gets for this stage.
      {"msmw sync gradients",
       plan_shape(D::kMsmw, false, 5, 1, 4, 1, "multi_krum", "median"),
       &Cfg::nw, true},
      {"msmw sync models",
       plan_shape(D::kMsmw, false, 6, 1, 3, 1, "multi_krum", "median"),
       &Cfg::nps, true},
      {"msmw async gradients",
       plan_shape(D::kMsmw, true, 6, 1, 4, 1, "multi_krum", "median"),
       &Cfg::nw, true},
      {"msmw async models",
       plan_shape(D::kMsmw, true, 6, 1, 4, 1, "multi_krum", "median"),
       &Cfg::nps, true},
      {"decentralized gradients", dec_grad, &Cfg::nw, true},
      {"decentralized models", dec_model, &Cfg::nw, true},
      // The option floor m + f + 2 = 6 binds above multi_krum's 2f+3 = 5.
      {"ssmw multi_krum:m=3",
       plan_shape(D::kSsmw, false, 6, 1, 1, 0, "multi_krum:m=3", "median"),
       &Cfg::nw, true},
  };
  for (const auto& row : rows) {
    if (row.floor_accepted) {
      EXPECT_NO_THROW(row.at_floor.validate()) << row.stage;
    } else {
      EXPECT_THROW(row.at_floor.validate(), std::invalid_argument)
          << row.stage;
    }
    gc::DeploymentConfig below = row.at_floor;
    --(below.*row.shrink);
    EXPECT_THROW(below.validate(), std::invalid_argument) << row.stage;
  }
}

TEST(Config, SyncMsmwAtTheGradientFloorTrainsOnFullQuorums) {
  // nw = 5, fw = 1 with multi_krum (floor 5): the sync loop awaits all
  // five gradients, so validate() accepts it, and every aggregation of the
  // reporting replica really sees five.
  gc::DeploymentConfig cfg = plan_shape(gc::Deployment::kMsmw, false, 5, 1,
                                        4, 1, "multi_krum", "median");
  cfg.iterations = 5;
  cfg.eval_every = 0;
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult result = gc::train(cfg);
  ASSERT_EQ(result.reporting_gradient_counts.size(), cfg.iterations);
  for (std::size_t count : result.reporting_gradient_counts) {
    EXPECT_EQ(count, 5u);
  }
}

TEST(Config, TotalNodes) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.nw = 5;
  cfg.nps = 3;
  cfg.deployment = gc::Deployment::kMsmw;
  EXPECT_EQ(cfg.total_nodes(), 8u);
  cfg.deployment = gc::Deployment::kDecentralized;
  EXPECT_EQ(cfg.total_nodes(), 5u);
}

TEST(Config, DeploymentNamesRoundTrip) {
  for (gc::Deployment d :
       {gc::Deployment::kVanilla, gc::Deployment::kCrashTolerant,
        gc::Deployment::kSsmw, gc::Deployment::kMsmw,
        gc::Deployment::kDecentralized}) {
    EXPECT_EQ(gc::deployment_from_string(gc::to_string(d)), d);
  }
  EXPECT_THROW((void)gc::deployment_from_string("p2p"),
               std::invalid_argument);
}

// -------------------------------------------------------------- controller

TEST(Controller, ParsesKeyValueText) {
  const gc::DeploymentConfig cfg = gc::parse_config(R"(
    deployment = msmw
    model = cifarnet          # comment
    nw = 10   fw = 3
    nps = 3   fps = 1
    gradient_gar = multi_krum
    asynchronous = true
    lr = 0.05
    iterations = 500
  )");
  EXPECT_EQ(cfg.deployment, gc::Deployment::kMsmw);
  EXPECT_EQ(cfg.model, "cifarnet");
  EXPECT_EQ(cfg.nw, 10u);
  EXPECT_EQ(cfg.fw, 3u);
  EXPECT_EQ(cfg.nps, 3u);
  EXPECT_EQ(cfg.fps, 1u);
  EXPECT_EQ(cfg.gradient_gar, "multi_krum");
  EXPECT_TRUE(cfg.asynchronous);
  EXPECT_FLOAT_EQ(cfg.optimizer.lr.gamma0, 0.05F);
  EXPECT_EQ(cfg.iterations, 500u);
}

TEST(Controller, ParsesSpaceSeparatedAssignments) {
  const gc::DeploymentConfig cfg = gc::parse_config("nw = 7\nfw=2\nseed =9");
  EXPECT_EQ(cfg.nw, 7u);
  EXPECT_EQ(cfg.fw, 2u);
  EXPECT_EQ(cfg.seed, 9u);
}

TEST(Controller, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)gc::parse_config("warp_speed = 9"),
               std::invalid_argument);
  EXPECT_THROW((void)gc::parse_config("nw = many"), std::invalid_argument);
  EXPECT_THROW((void)gc::parse_config("asynchronous = maybe"),
               std::invalid_argument);
  EXPECT_THROW((void)gc::parse_config("nw"), std::invalid_argument);
}

TEST(Controller, FormatRoundTrips) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.nw = 9;
  cfg.fw = 2;
  cfg.worker_attack = "reversed";
  cfg.non_iid = true;
  const gc::DeploymentConfig back = gc::parse_config(gc::format_config(cfg));
  EXPECT_EQ(back.deployment, cfg.deployment);
  EXPECT_EQ(back.nw, cfg.nw);
  EXPECT_EQ(back.fw, cfg.fw);
  EXPECT_EQ(back.worker_attack, cfg.worker_attack);
  EXPECT_EQ(back.non_iid, cfg.non_iid);
  EXPECT_EQ(back.iterations, cfg.iterations);
}

// ------------------------------------------------- server/worker objects

TEST(ServerWorker, GradientPullRoundTrip) {
  gn::Cluster::Options opts;
  opts.nodes = 3;
  gn::Cluster cluster(opts);
  gt::Rng rng(5);

  auto server_model = garfield::nn::make_model("tiny_mlp", rng);
  const std::size_t dim = server_model->dimension();
  gt::Rng data_rng(6);
  gd::Dataset data = gd::make_cluster_dataset({16}, 10, 64, data_rng, 1.0F);

  gc::Server server(0, cluster, std::move(server_model), {}, {1, 2}, {});
  gt::Rng w1(7), w2(8);
  gc::Worker worker1(1, cluster, garfield::nn::make_model("tiny_mlp", w1),
                     data, 8, gt::Rng(9));
  gc::Worker worker2(2, cluster, garfield::nn::make_model("tiny_mlp", w2),
                     data, 8, gt::Rng(10));

  auto grads = server.get_gradients(0, 2);
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_EQ(grads[0]->size(), dim);
  EXPECT_EQ(grads[1]->size(), dim);
  EXPECT_TRUE(gt::all_finite(*grads[0]));
  EXPECT_EQ(worker1.gradients_served() + worker2.gradients_served(), 2u);
}

TEST(ServerWorker, PullHandsTheGarTheServedPayload) {
  // Ingress copies nothing: what get_gradients returns (and the round loop
  // hands its GAR as rows) is the very payload the worker served, the one
  // a direct collect at the same iteration and parameters receives.
  gn::Cluster::Options opts;
  opts.nodes = 2;
  gn::Cluster cluster(opts);
  gt::Rng rng(5);
  gt::Rng data_rng(6);
  gd::Dataset data = gd::make_cluster_dataset({16}, 10, 64, data_rng, 1.0F);
  gc::Server server(0, cluster, garfield::nn::make_model("tiny_mlp", rng), {},
                    {1}, {});
  gt::Rng w1(7);
  gc::Worker worker(1, cluster, garfield::nn::make_model("tiny_mlp", w1), data,
                    8, gt::Rng(9));

  const std::vector<gn::PayloadPtr> grads = server.get_gradients(0, 1);
  ASSERT_EQ(grads.size(), 1u);
  const std::vector<gn::NodeId> workers{1};
  const std::vector<gn::Reply> direct = cluster.collect(
      0, workers, gc::kGetGradient, 0, server.snapshot(), 1);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(grads[0].get(), direct[0].payload.get());
  EXPECT_EQ(worker.gradients_computed(), 1u);
}

TEST(ServerWorker, MalformedGradientArgumentAnswersSilence) {
  // The ingress gate covers plain arguments too: a missing model or one of
  // the wrong dimension answers silence, like a malformed codec frame,
  // instead of crashing the worker's process.
  gn::Cluster::Options opts;
  opts.nodes = 2;
  gn::Cluster cluster(opts);
  gt::Rng data_rng(6);
  gd::Dataset data = gd::make_cluster_dataset({16}, 10, 64, data_rng, 1.0F);
  gt::Rng w1(7);
  garfield::nn::ModelPtr model = garfield::nn::make_model("tiny_mlp", w1);
  const std::size_t dim = model->dimension();
  gc::Worker worker(1, cluster, std::move(model), data, 8, gt::Rng(9));
  const auto pull = [&cluster](gn::PayloadPtr argument) {
    auto done = std::make_shared<std::promise<gn::PayloadPtr>>();
    std::future<gn::PayloadPtr> reply = done->get_future();
    cluster.call(
        0, 1, gc::kGetGradient, 0, std::move(argument),
        [done](gn::PayloadPtr p) { done->set_value(std::move(p)); },
        std::chrono::seconds(10));
    return reply.get();
  };
  EXPECT_EQ(pull(nullptr), nullptr);
  EXPECT_EQ(pull(std::make_shared<const gn::Payload>(dim - 1, 0.1F)), nullptr);
  // The rejected pulls left the single-flight slot free: a well-formed one
  // is answered, not parked into its deadline.
  const gn::PayloadPtr grad =
      pull(std::make_shared<const gn::Payload>(dim, 0.1F));
  ASSERT_NE(grad, nullptr);
  EXPECT_EQ(grad->size(), dim);
  EXPECT_EQ(worker.gradients_computed(), 1u);
}

TEST(ServerWorker, UpdateModelAppliesSgdStep) {
  gn::Cluster::Options opts;
  opts.nodes = 1;
  gn::Cluster cluster(opts);
  gt::Rng rng(11);
  garfield::nn::SgdOptimizer::Options sgd;
  sgd.lr.gamma0 = 1.0F;
  gc::Server server(0, cluster, garfield::nn::make_model("tiny_mlp", rng),
                    sgd, {}, {});
  const gn::Payload before = server.parameters();
  gn::Payload grad(before.size(), 1.0F);
  server.update_model(grad);
  const gn::Payload after = server.parameters();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_FLOAT_EQ(after[i], before[i] - 1.0F);
  EXPECT_EQ(server.steps_taken(), 1u);
}

TEST(ServerWorker, WriteModelOverwritesState) {
  gn::Cluster::Options opts;
  opts.nodes = 1;
  gn::Cluster cluster(opts);
  gt::Rng rng(12);
  gc::Server server(0, cluster, garfield::nn::make_model("tiny_mlp", rng),
                    {}, {}, {});
  gn::Payload target(server.dimension(), 0.25F);
  server.write_model(target);
  EXPECT_EQ(server.parameters(), target);
}

TEST(ServerWorker, GetModelsPullsPeerState) {
  gn::Cluster::Options opts;
  opts.nodes = 2;
  gn::Cluster cluster(opts);
  gt::Rng r1(13), r2(13);
  gc::Server s0(0, cluster, garfield::nn::make_model("tiny_mlp", r1), {}, {},
                {1});
  gc::Server s1(1, cluster, garfield::nn::make_model("tiny_mlp", r2), {}, {},
                {0});
  gn::Payload marker(s1.dimension(), 9.0F);
  s1.write_model(marker);
  auto models = s0.get_models(0, 1);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(*models[0], marker);
}

TEST(ServerWorker, ByzantineServerServesCorruptedModel) {
  gn::Cluster::Options opts;
  opts.nodes = 2;
  gn::Cluster cluster(opts);
  gt::Rng r1(14), r2(14);
  gc::Server honest(0, cluster, garfield::nn::make_model("tiny_mlp", r1), {},
                    {}, {1});
  gc::ByzantineServer byz(1, cluster,
                          garfield::nn::make_model("tiny_mlp", r2), {}, {},
                          {0}, garfield::attacks::make_attack("reversed"),
                          gt::Rng(15));
  gn::Payload marker(byz.dimension(), 1.0F);
  byz.write_model(marker);
  auto models = honest.get_models(0, 1);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_FLOAT_EQ((*models[0])[0], -100.0F);  // reversed & amplified
}

TEST(ServerWorker, AggrGradGossip) {
  gn::Cluster::Options opts;
  opts.nodes = 2;
  gn::Cluster cluster(opts);
  gt::Rng r1(16), r2(16);
  gc::Server s0(0, cluster, garfield::nn::make_model("tiny_mlp", r1), {}, {},
                {1});
  gc::Server s1(1, cluster, garfield::nn::make_model("tiny_mlp", r2), {}, {},
                {0});
  // Before publication the tagged pull answers not-ready and redelivers
  // until the collect deadline: nothing arrives.
  const std::vector<gn::NodeId> peers{1};
  EXPECT_TRUE(cluster
                  .collect(0, peers, gc::kGetAggrGrad, 0, nullptr, 1,
                           std::chrono::milliseconds(150))
                  .empty());
  gn::Payload grad(s1.dimension(), 2.5F);
  s1.publish_aggr_grad(0, grad);
  auto got = s0.get_aggr_grads(0, 1, 0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(*got[0], grad);
}

TEST(ServerWorker, LatePullOfAPublishedGossipTagShipsItsFrame) {
  // A gossip publication is encoded once, when it is published, and its
  // error-feedback residual advances once: every peer pulling the tag gets
  // that frame, however late. Each round here also serves one model frame,
  // and tag 0 is pulled again after 14 publications, still in the ring.
  gn::Cluster::Options opts;
  opts.nodes = 3;
  opts.codec = gn::CodecSpec::parse("int8");
  gn::Cluster cluster(opts);
  gt::Rng rng(18);
  gc::Server server(0, cluster, garfield::nn::make_model("tiny_mlp", rng), {},
                    {}, {1, 2});
  server.enable_step_tagged_serving();
  const std::size_t dim = server.dimension();
  const auto pull = [&cluster](gn::NodeId from, const char* method,
                               std::uint64_t tag) {
    const std::vector<gn::NodeId> publisher{0};
    const std::vector<gn::Reply> got = cluster.collect(
        from, publisher, method, tag, nullptr, 1, std::chrono::seconds(5));
    return got.empty() ? gn::PayloadPtr{} : got[0].payload;
  };
  gn::PayloadPtr early;
  for (std::uint64_t t = 0; t < 14; ++t) {
    gn::Payload grad(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      grad[i] = 0.001F * float((i * 37 + t * 11) % 101) - 0.05F;
    }
    server.publish_aggr_grad(t, grad);
    if (t == 0) early = pull(1, gc::kGetAggrGrad, 0);
    server.update_model(gn::Payload(dim, 0.01F));
    server.publish_model(t);
    ASSERT_NE(pull(1, gc::kGetModel, t), nullptr) << "round " << t;
  }
  const gn::PayloadPtr late = pull(2, gc::kGetAggrGrad, 0);
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);
  EXPECT_TRUE(gn::Codec::looks_encoded(*early));
  // Byte-equal (a frame opens with a NaN magic word, so not operator==).
  ASSERT_EQ(late->size(), early->size());
  EXPECT_EQ(std::memcmp(late->data(), early->data(),
                        early->size() * sizeof(float)),
            0)
      << "a late pull re-encoded tag 0";
}

TEST(ServerWorker, IngressValidationRejectsMalformedPayloads) {
  gn::Cluster::Options opts;
  opts.nodes = 3;
  gn::Cluster cluster(opts);
  gt::Rng r1(17), r2(17), r3(17);
  gc::Server s0(0, cluster, garfield::nn::make_model("tiny_mlp", r1), {}, {},
                {1, 2});
  gc::Server s1(1, cluster, garfield::nn::make_model("tiny_mlp", r2), {}, {},
                {0, 2});
  gc::Server s2(2, cluster, garfield::nn::make_model("tiny_mlp", r3), {}, {},
                {0, 1});
  // s1 gossips a wrong-dimension vector, s2 a NaN-poisoned one.
  s1.publish_aggr_grad(0, gn::Payload{1.0F, 2.0F});
  gn::Payload poisoned(s2.dimension(), 1.0F);
  poisoned[3] = std::numeric_limits<float>::quiet_NaN();
  s2.publish_aggr_grad(0, poisoned);
  auto got = s0.get_aggr_grads(0, 2, 0);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(s0.rejected_payloads(), 2u);
}

// ---------------------------------------------------------- deployments

TEST(Deployments, VanillaConverges) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.nw = 4;
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.75);
  ASSERT_GE(result.curve.size(), 2u);
  EXPECT_GT(result.final_accuracy, result.curve.front().accuracy);
}

TEST(Deployments, SsmwWithEachGarConverges) {
  for (const char* gar : {"median", "multi_krum", "mda"}) {
    gc::DeploymentConfig cfg = fast_config();
    cfg.deployment = gc::Deployment::kSsmw;
    cfg.nw = 7;
    cfg.fw = 1;
    cfg.gradient_gar = gar;
    const gc::TrainResult result = gc::train(cfg);
    EXPECT_GT(result.final_accuracy, 0.7) << gar;
  }
}

TEST(Deployments, MsmwConvergesAndAligns) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nw = 7;
  cfg.fw = 1;
  cfg.nps = 3;
  cfg.fps = 0;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.alignment_every = 30;
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.7);
  ASSERT_FALSE(result.alignment.empty());
  for (const auto& a : result.alignment) {
    EXPECT_GE(a.max_diff1, a.max_diff2);
  }
}

TEST(Deployments, DecentralizedConverges) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.nw = 7;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(Deployments, DecentralizedNonIidWithContraction) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.nw = 5;
  cfg.fw = 0;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.non_iid = true;
  cfg.contraction_steps = 2;
  cfg.iterations = 150;
  const gc::TrainResult result = gc::train(cfg);
  // Non-iid is harder; require clear learning, not full accuracy.
  EXPECT_GT(result.final_accuracy, 0.4);
}

TEST(Deployments, CrashTolerantSurvivesPrimaryCrash) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kCrashTolerant;
  cfg.nw = 4;
  cfg.nps = 3;
  cfg.network = "churn:crash=0,at_iter=40";
  const gc::TrainResult result = gc::train(cfg);
  // Failover replica finishes the run and reaches good accuracy.
  EXPECT_GT(result.final_accuracy, 0.7);
  EXPECT_GE(result.curve.back().iteration, cfg.iterations - cfg.eval_every);
}

TEST(Deployments, CrashTolerantReporterRecordsGradientCounts) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kCrashTolerant;
  cfg.nw = 4;
  cfg.nps = 3;
  cfg.iterations = 20;
  const gc::TrainResult result = gc::train(cfg);
  ASSERT_EQ(result.reporting_gradient_counts.size(), cfg.iterations);
  for (std::size_t count : result.reporting_gradient_counts) {
    EXPECT_EQ(count, cfg.nw);
  }
}

TEST(Deployments, DecentralizedReporterWritesCheckpoints) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.nw = 4;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.iterations = 12;
  cfg.checkpoint_every = 5;
  cfg.checkpoint_path = temp_path("dec_reporter.ckpt");
  std::remove(cfg.checkpoint_path.c_str());
  const gc::TrainResult result = gc::train(cfg);
  const gc::Checkpoint ckpt = gc::load_checkpoint(cfg.checkpoint_path);
  std::remove(cfg.checkpoint_path.c_str());
  EXPECT_EQ(ckpt.iteration, cfg.iterations);
  EXPECT_EQ(ckpt.parameters, result.final_parameters);
}

TEST(Deployments, LoopFailureThrowsFromTrain) {
  // A driving loop that throws (the reporter's checkpoint write into a
  // directory that does not exist) ends the run with its reason, at once:
  // its node goes down with it, so replicas parked on its next
  // publication hear silence instead of waiting out their deadline.
  for (const gc::Deployment d :
       {gc::Deployment::kSsmw, gc::Deployment::kMsmw,
        gc::Deployment::kDecentralized}) {
    gc::DeploymentConfig cfg = fast_config();
    cfg.deployment = d;
    cfg.nw = 4;
    cfg.nps = d == gc::Deployment::kMsmw ? 3 : 1;
    cfg.iterations = 4;
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path = temp_path("missing_dir") + "/run.ckpt";
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)gc::train(cfg);
      ADD_FAILURE() << gc::to_string(d) << ": train() returned";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(cfg.checkpoint_path),
                std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10))
        << gc::to_string(d);
  }
}

TEST(Deployments, NodeBinaryOverrideWithoutAFileThrowsAtLookup) {
  // A GARFIELD_NODE_BIN that names no executable fails a tcp run at the
  // launcher lookup, naming the variable and the path, not later as a
  // forked rank's "exit code 127".
  struct RestoreNodeBin {
    std::optional<std::string> saved;
    RestoreNodeBin() {
      if (const char* v = std::getenv("GARFIELD_NODE_BIN")) saved = v;
    }
    ~RestoreNodeBin() {
      if (saved) {
        ::setenv("GARFIELD_NODE_BIN", saved->c_str(), 1);
      } else {
        ::unsetenv("GARFIELD_NODE_BIN");
      }
    }
  } restore;
  const std::string missing = temp_path("no_such_garfield_node");
  ::setenv("GARFIELD_NODE_BIN", missing.c_str(), 1);
  gc::DeploymentConfig cfg = fast_config();
  cfg.transport = "tcp";
  cfg.iterations = 2;
  try {
    (void)gc::train(cfg);
    ADD_FAILURE() << "train() returned";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("GARFIELD_NODE_BIN"), std::string::npos) << what;
    EXPECT_NE(what.find(missing), std::string::npos) << what;
    EXPECT_EQ(what.find("exit code"), std::string::npos) << what;
  }
}

TEST(Deployments, ResumeFromACheckpointOfAnotherModelThrows) {
  // A checkpoint of another model fails the run before any loop starts,
  // naming the key, the file and both sizes.
  const std::string path = temp_path("other_model.ckpt");
  gc::save_checkpoint(path, gc::Checkpoint{3, gn::Payload(10, 0.5F), {}});
  gt::Rng rng(20);
  const std::size_t dim =
      garfield::nn::make_model("tiny_mlp", rng)->dimension();
  for (const gc::Deployment d :
       {gc::Deployment::kSsmw, gc::Deployment::kMsmw,
        gc::Deployment::kDecentralized}) {
    gc::DeploymentConfig cfg = fast_config();
    cfg.deployment = d;
    cfg.nw = 4;
    cfg.nps = d == gc::Deployment::kMsmw ? 3 : 1;
    cfg.iterations = 20;
    cfg.eval_every = 5;
    cfg.resume_from = path;
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)gc::train(cfg);
      ADD_FAILURE() << gc::to_string(d) << ": train() returned";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("resume_from"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(" 10 "), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(dim)), std::string::npos) << what;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10))
        << gc::to_string(d);
  }
  std::remove(path.c_str());
}

TEST(Deployments, MsmwSurvivesByzantineWorkersAndServers) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nw = 8;
  cfg.fw = 1;
  cfg.nps = 4;
  cfg.fps = 1;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.worker_attack = "reversed";
  cfg.server_attack = "reversed";
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.7);
}

TEST(Deployments, VanillaCollapsesUnderReversedAttack) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.nw = 8;
  cfg.fw = 1;
  cfg.worker_attack = "reversed";
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_LT(result.final_accuracy, 0.3);
}

TEST(Deployments, SsmwToleratesDroppedWorkersAsynchronously) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.nw = 8;
  cfg.fw = 2;
  cfg.gradient_gar = "median";
  cfg.asynchronous = true;  // wait for nw - fw only
  cfg.worker_attack = "dropped";
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.7);
}

TEST(Deployments, SurvivesNanPoisonEvenWithAveraging) {
  // The ingress gate (not the GAR) is what stops NaN poisoning: a single
  // NaN would survive plain averaging and destroy the model. With the
  // gate, even the vanilla deployment keeps learning.
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.nw = 8;
  cfg.fw = 2;
  cfg.worker_attack = "nan_poison";
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.7);
  EXPECT_GT(result.rejected_payloads, 0u);
}

TEST(Deployments, TopkFramesCarryNanPoisonToTheGate) {
  // At fraction=0.001, nan_poison hides one NaN or inf among tiny_mlp's
  // finite coordinates. topk ranks a NaN above every finite value, as it
  // does inf, so each poisoned frame keeps its poison and the ingress gate
  // rejects every Byzantine reply, as it does under codec=none.
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.nw = 8;
  cfg.fw = 2;
  cfg.worker_attack = "nan_poison:fraction=0.001";
  cfg.codec = "topk:k=0.1";
  cfg.iterations = 100;
  cfg.eval_every = 0;
  cfg.seed = 7;
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_EQ(result.rejected_payloads, cfg.iterations * cfg.fw);
}

TEST(Deployments, WorkerMomentumStillConverges) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.nw = 7;
  cfg.fw = 1;
  cfg.gradient_gar = "multi_krum";
  cfg.worker_momentum = 0.9F;
  cfg.optimizer.lr.gamma0 = 0.02F;  // momentum amplifies the step ~1/(1-m)
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.final_accuracy, 0.7);
}

TEST(Deployments, NetStatsAccumulateTraffic) {
  gc::DeploymentConfig cfg = fast_config();
  cfg.deployment = gc::Deployment::kVanilla;
  cfg.nw = 3;
  cfg.iterations = 10;
  cfg.eval_every = 0;
  const gc::TrainResult result = gc::train(cfg);
  // 10 iterations x 3 workers: one request+reply per worker per iteration.
  EXPECT_EQ(result.net_stats.requests_sent, 30u);
  EXPECT_EQ(result.net_stats.replies_received, 30u);
  EXPECT_GT(result.net_stats.floats_transferred, 0u);
}

TEST(Deployments, DecentralizedUsesQuadraticMessages) {
  gc::DeploymentConfig base = fast_config();
  base.deployment = gc::Deployment::kDecentralized;
  base.fw = 0;
  base.gradient_gar = "median";
  base.model_gar = "median";
  base.iterations = 5;
  base.eval_every = 0;

  auto msgs = [&](std::size_t n) {
    gc::DeploymentConfig cfg = base;
    cfg.nw = n;
    return gc::train(cfg).net_stats.requests_sent;
  };
  const auto m3 = msgs(3), m6 = msgs(6);
  // Per iteration: each of n nodes pulls gradients from n peers and models
  // from n-1 peers -> Theta(n^2) messages. Doubling n should roughly
  // quadruple traffic.
  EXPECT_GT(double(m6), 3.0 * double(m3));
}

TEST(Deployments, RunExperimentFromText) {
  const gc::TrainResult result = gc::run_experiment(R"(
    deployment = ssmw
    model = tiny_mlp
    nw = 5  fw = 1
    gradient_gar = median
    train_size = 512  test_size = 128
    batch_size = 16   lr = 0.1
    iterations = 60   eval_every = 20
    seed = 4
  )");
  EXPECT_GT(result.final_accuracy, 0.5);
}
