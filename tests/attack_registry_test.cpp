// AttackRegistry / spec / plan tests — the attack-side twin of
// registry_test.cpp's GAR drift guard: the exact built-in name set, option
// semantics, unknown-name/-option rejection, plan grammar and shape
// validation, config-time rejection through DeploymentConfig::validate(),
// an end-to-end SSMW round-trip of a typed spec, and runtime registration
// of a custom attack.
//
// Test order matters within this binary: the exact-name-set guard runs
// before the runtime-registration test extends the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attacks/attack.h"
#include "attacks/registry.h"
#include "core/controller.h"
#include "core/trainer.h"
#include "tensor/rng.h"

namespace ga = garfield::attacks;
namespace gc = garfield::core;
namespace gt = garfield::tensor;

using gt::FlatVector;

// ------------------------------------------------------------ drift guard

TEST(AttackRegistry, ExactBuiltinNameSet) {
  // The advertised list and the registry can no longer drift apart (both
  // are the same list); this pins the *content* so a rename or an
  // accidentally dropped registration fails loudly. Runs before any
  // runtime registration in this binary.
  const std::vector<std::string> expected = {
      "random",          "reversed",       "dropped",
      "sign_flip",       "zero",           "little_is_enough",
      "fall_of_empires", "nan_poison",     "alternating",
      "adaptive_z",      "window_striker", "corrupt_recovery"};
  EXPECT_EQ(ga::attack_names(), expected);
}

TEST(AttackRegistry, EveryAdvertisedAttackConstructsAndCrafts) {
  gt::Rng rng(7);
  const FlatVector honest(16, 1.0F);
  const std::vector<FlatVector> view(5, FlatVector(16, 1.0F));
  for (const std::string& name : ga::attack_names()) {
    ga::AttackPtr attack;
    ASSERT_NO_THROW(attack = ga::make_attack(name)) << name;
    ASSERT_NE(attack, nullptr) << name;
    EXPECT_EQ(attack->name(), name);
    ga::AttackContext ctx(rng);
    ctx.n = 6;
    ctx.f = 1;
    if (ga::attack_is_omniscient(name)) ctx.honest = view;
    std::optional<FlatVector> out;
    ASSERT_NO_THROW(out = attack->craft(honest, ctx)) << name;
    if (out) {
      EXPECT_EQ(out->size(), honest.size()) << name;
    }
  }
}

TEST(AttackRegistry, OmniscienceFlagsMatchTheLiterature) {
  for (const char* omniscient :
       {"little_is_enough", "fall_of_empires", "adaptive_z"}) {
    EXPECT_TRUE(ga::attack_is_omniscient(omniscient)) << omniscient;
  }
  for (const char* blind :
       {"random", "reversed", "dropped", "sign_flip", "zero", "nan_poison"}) {
    EXPECT_FALSE(ga::attack_is_omniscient(blind)) << blind;
  }
  // Spec options don't change the flag; unknown names throw.
  EXPECT_TRUE(ga::attack_is_omniscient("little_is_enough:z=2.5"));
  EXPECT_THROW((void)ga::attack_is_omniscient("nuke"), std::invalid_argument);
}

// --------------------------------------------------------- option semantics

TEST(AttackRegistry, UnknownAttackAndUnknownOptionAreRejected) {
  EXPECT_THROW((void)ga::make_attack("nuke"), std::invalid_argument);
  // A typo'd option must fail loudly, not be silently ignored.
  EXPECT_THROW((void)ga::make_attack("little_is_enough:zz=2.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("sign_flip:scale=2"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("random:scale=ten"),
               std::invalid_argument);
}

TEST(AttackRegistry, OptionRangesAreValidated) {
  EXPECT_NO_THROW((void)ga::make_attack("random:scale=100"));
  EXPECT_THROW((void)ga::make_attack("random:scale=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("reversed:factor=-2"),
               std::invalid_argument);
  EXPECT_NO_THROW((void)ga::make_attack("nan_poison:fraction=0.1"));
  EXPECT_THROW((void)ga::make_attack("nan_poison:fraction=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("nan_poison:fraction=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("little_is_enough:z=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("alternating:period=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("alternating:first=nuke"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("adaptive_z:z_max=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::make_attack("adaptive_z:steps=0"),
               std::invalid_argument);
  // adaptive_z's probe is a GAR spec: unknown rules or options in it must
  // surface at construction, i.e. at validate() time.
  EXPECT_NO_THROW((void)ga::make_attack("adaptive_z:probe=median"));
  EXPECT_THROW((void)ga::make_attack("adaptive_z:probe=resilient_mean_9000"),
               std::invalid_argument);
}

TEST(AttackRegistry, OptionsChangeBehavior) {
  gt::Rng rng(21);
  const FlatVector honest{2.0F, -3.0F};
  ga::AttackContext ctx(rng);
  auto weak = ga::make_attack("reversed:factor=2")->craft(honest, ctx);
  ASSERT_TRUE(weak.has_value());
  EXPECT_FLOAT_EQ((*weak)[0], -4.0F);
  auto strong = ga::make_attack("reversed:factor=50")->craft(honest, ctx);
  ASSERT_TRUE(strong.has_value());
  EXPECT_FLOAT_EQ((*strong)[0], -100.0F);
}

// ------------------------------------------------------------ plan grammar

TEST(AttackPlan, ParsesUniformAndShapedPlans) {
  const ga::AttackPlan uniform = ga::parse_attack_plan("reversed");
  EXPECT_TRUE(uniform.uniform());
  EXPECT_EQ(uniform.expand(3).size(), 3u);
  EXPECT_EQ(uniform.expand(3)[2].name, "reversed");
  // Uniform plans stretch to any cohort, including none.
  EXPECT_TRUE(uniform.expand(0).empty());

  const ga::AttackPlan mixed =
      ga::parse_attack_plan("little_is_enough:z=1.5;2*sign_flip");
  EXPECT_FALSE(mixed.uniform());
  EXPECT_EQ(mixed.declared_attackers(), 3u);
  const std::vector<ga::AttackSpec> specs = mixed.expand(3);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "little_is_enough");
  EXPECT_DOUBLE_EQ(specs[0].options.get_double("z", 0.0), 1.5);
  EXPECT_EQ(specs[1].name, "sign_flip");
  EXPECT_EQ(specs[2].name, "sign_flip");

  EXPECT_TRUE(ga::parse_attack_plan("").empty());
}

TEST(AttackPlan, RejectsGrammarAndShapeViolations) {
  EXPECT_THROW((void)ga::parse_attack_plan(";"), std::invalid_argument);
  EXPECT_THROW((void)ga::parse_attack_plan("reversed;"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::parse_attack_plan("0*reversed"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::parse_attack_plan("x*reversed"),
               std::invalid_argument);
  EXPECT_THROW((void)ga::parse_attack_plan("*reversed"),
               std::invalid_argument);
  // Shape mismatches surface at expand time with both numbers named.
  const ga::AttackPlan mixed = ga::parse_attack_plan("2*zero;sign_flip");
  EXPECT_EQ(mixed.expand(3).size(), 3u);
  EXPECT_THROW((void)mixed.expand(2), std::invalid_argument);
  EXPECT_THROW((void)mixed.expand(4), std::invalid_argument);
  // A count makes even a single entry shaped.
  const ga::AttackPlan counted = ga::parse_attack_plan("2*zero");
  EXPECT_FALSE(counted.uniform());
  EXPECT_THROW((void)counted.expand(3), std::invalid_argument);
}

// ----------------------------------------------------- config-time checks

TEST(ConfigValidation, RejectsBadAttackSpecsUpFront) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.worker_attack = "nuke";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.worker_attack = "little_is_enough:zz=1";  // typo'd option
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.worker_attack = "little_is_enough:z=2.5";
  EXPECT_NO_THROW(cfg.validate());
  // Plan shape vs fw: a shaped plan must cover exactly fw attackers.
  cfg.worker_attack = "zero;sign_flip";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.fw = 2;
  cfg.nw = 7;
  EXPECT_NO_THROW(cfg.validate());
  // Same for the server cohort.
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.nw = 9;  // multi_krum needs qw = nw - fw >= 2fw + 3
  cfg.nps = 4;
  cfg.fps = 1;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.worker_attack = "reversed";
  cfg.server_attack = "2*reversed";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.server_attack = "reversed";
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidation, ErrorMessagesNameTheCohort) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.worker_attack = "nuke";
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker_attack"), std::string::npos) << what;
    EXPECT_NE(what.find("nuke"), std::string::npos) << what;
  }
}

// ------------------------------------------------------ end-to-end round trip

TEST(AttackSpecRoundTrip, TypedSpecSurvivesConfigTrainerAndSsmwRun) {
  // The ISSUE's acceptance bar: a typed attack spec flows config-file text
  // -> DeploymentConfig -> validate() -> trainer -> a full SSMW run.
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.model = "tiny_mlp";
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.worker_attack = "little_is_enough:z=2.5";
  cfg.batch_size = 8;
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.iterations = 4;
  cfg.eval_every = 2;
  cfg.seed = 5;

  // Config text round trip preserves the spec verbatim.
  const gc::DeploymentConfig back =
      gc::parse_config(gc::format_config(cfg));
  EXPECT_EQ(back.worker_attack, "little_is_enough:z=2.5");

  const gc::TrainResult result = gc::train(back);
  EXPECT_EQ(result.iterations_run, cfg.iterations);
  EXPECT_FALSE(result.curve.empty());
  EXPECT_TRUE(std::isfinite(result.final_loss));
}

TEST(AttackSpecRoundTrip, MixedPlanDrivesAnMsmwRun) {
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kMsmw;
  cfg.model = "tiny_mlp";
  cfg.nw = 9;  // qw = nw - fw must clear multi_krum's 2fw + 3 floor
  cfg.fw = 2;
  cfg.nps = 3;
  cfg.fps = 0;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.worker_attack = "little_is_enough:z=1.5;sign_flip";
  cfg.batch_size = 8;
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.iterations = 3;
  cfg.eval_every = 0;
  cfg.seed = 6;
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_EQ(result.iterations_run, cfg.iterations);
}

TEST(AttackSpecRoundTrip, DecentralizedServerOnlyPlanIsActuallyMounted) {
  // Regression: the decentralized builder used to gate *both* halves of a
  // Byzantine peer on the worker plan, so a server-only plan passed
  // validate() but mounted nothing. nan_poison makes the mount observable:
  // poisoned model replies are dropped at ingress and counted.
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kDecentralized;
  cfg.model = "tiny_mlp";
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.server_attack = "nan_poison:fraction=0.5";  // worker_attack stays ""
  cfg.batch_size = 8;
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.iterations = 10;
  cfg.eval_every = 0;
  cfg.seed = 9;
  // Zero-latency pulls answer in submission order, which always ranks the
  // (last-built) Byzantine peer behind the fastest-q cut; jitter mixes the
  // arrival order so its poisoned model replies actually reach ingress.
  // The jitter must dominate the skew between the peers' publications: a
  // step-tagged model pull parks on its peer until that peer publishes
  // (notify_ready), so with small jitter the last peer to publish would
  // land behind the cut every iteration.
  cfg.network = "wan:jitter=8ms";
  ASSERT_NO_THROW(cfg.validate());
  const gc::TrainResult result = gc::train(cfg);
  EXPECT_GT(result.rejected_payloads, 0u)
      << "server-only attack plan was never mounted";
}

TEST(AttackRegistry, AdaptiveZProbesTheDeploymentsActualGar) {
  // Default probe is "deployment": the adversary tunes itself against the
  // GAR the deployment's config actually declares for its cohort
  // (AttackContext::gar, wired from gradient_gar/model_gar by the trainer)
  // instead of a separately configured guess.
  gt::Rng rng(11);
  const ga::AttackPtr attack = ga::make_attack("adaptive_z");
  auto* adaptive = dynamic_cast<ga::AdaptiveZAttack*>(attack.get());
  ASSERT_NE(adaptive, nullptr);
  gt::Rng cloud_rng(5);
  std::vector<FlatVector> view(8, FlatVector(16));
  for (FlatVector& v : view) {
    for (float& x : v) x = 1.0F + cloud_rng.normal(0.0F, 0.2F);
  }
  const FlatVector honest = view.front();
  ga::AttackContext ctx(rng);
  ctx.n = 9;
  ctx.f = 1;
  ctx.honest = view;
  ctx.gar = "median";
  ASSERT_TRUE(attack->craft(honest, ctx).has_value());
  EXPECT_EQ(adaptive->last_probe(), "median");
  // A different deployment GAR retargets the probe on the next craft...
  ctx.gar = "multi_krum";
  ASSERT_TRUE(attack->craft(honest, ctx).has_value());
  EXPECT_EQ(adaptive->last_probe(), "multi_krum");
  // ...a config-less context falls back to the classic krum probe...
  ctx.gar.clear();
  ASSERT_TRUE(attack->craft(honest, ctx).has_value());
  EXPECT_EQ(adaptive->last_probe(), "krum");
  // ...and an explicitly pinned probe ignores the deployment's GAR.
  const ga::AttackPtr pinned = ga::make_attack("adaptive_z:probe=median");
  auto* pinned_z = dynamic_cast<ga::AdaptiveZAttack*>(pinned.get());
  ASSERT_NE(pinned_z, nullptr);
  ctx.gar = "multi_krum";
  ASSERT_TRUE(pinned->craft(honest, ctx).has_value());
  EXPECT_EQ(pinned_z->last_probe(), "median");
}

// --------------------------------------------------------------- extension

TEST(AttackRegistry, RuntimeRegistrationExtendsTheStringApi) {
  // An attack registered at runtime is immediately reachable through
  // attack_names / make_attack / attack plans — the registry is the single
  // source of truth. Registered once per process; idempotent across gtest
  // repeats via the duplicate check.
  const std::string name = "registry_test_echo";
  if (ga::AttackRegistry::instance().find(name) == nullptr) {
    ga::AttackRegistry::instance().add(
        {.name = name, .omniscient = false, .factory = [](
             const ga::AttackOptions& options) -> ga::AttackPtr {
           class Echo final : public ga::Attack {
            public:
             explicit Echo(float gain) : gain_(gain) {}
             std::optional<FlatVector> craft(const FlatVector& honest,
                                             ga::AttackContext&) override {
               FlatVector out = honest;
               for (float& x : out) x *= gain_;
               return out;
             }
             [[nodiscard]] std::string name() const override {
               return "registry_test_echo";
             }

            private:
             float gain_;
           };
           return std::make_unique<Echo>(
               float(options.get_double("gain", 1.0)));
         }});
  }
  const auto names = ga::attack_names();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
  gt::Rng rng(3);
  ga::AttackContext ctx(rng);
  const FlatVector honest{2.0F};
  auto out = ga::make_attack(name + ":gain=3")->craft(honest, ctx);
  ASSERT_TRUE(out.has_value());
  EXPECT_FLOAT_EQ((*out)[0], 6.0F);
  // And it participates in plans like any built-in.
  const auto specs =
      ga::parse_attack_plan("2*" + name + ";sign_flip").expand(3);
  EXPECT_EQ(specs[0].name, name);

  // Duplicate registration is a hard error.
  EXPECT_THROW(ga::AttackRegistry::instance().add(
                   {.name = name,
                    .omniscient = false,
                    .factory = [](const ga::AttackOptions&) -> ga::AttackPtr {
                      return nullptr;
                    }}),
               std::invalid_argument);
}
