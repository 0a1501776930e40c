// GarRegistry / spec-string tests: the drift guard the ISSUE asks for
// (every advertised rule constructible through the registry exactly at its
// resilience floor, rejected below it), the spec grammar, typed options,
// unknown-option rejection, the universal pre_clip decorator, and runtime
// extensibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "gars/gar.h"
#include "gars/registry.h"
#include "support/test_support.h"
#include "tensor/rng.h"

namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using gt::FlatVector;

namespace {

std::vector<FlatVector> cloud(std::size_t n, std::size_t d,
                              std::uint64_t seed, float center = 1.0F,
                              float spread = 0.1F) {
  gt::Rng rng(seed);
  return ts::honest_cloud({n, d, center, spread}, rng);
}

}  // namespace

// ------------------------------------------------------------ drift guard

TEST(GarRegistry, EveryAdvertisedRuleIsConstructibleAtItsFloor) {
  // gar_names() and the registry can no longer drift apart (both are the
  // same list), but min_n and the factories still can: every advertised
  // rule must construct at exactly gar_min_n(name, f) and reject n below
  // it, for every small f.
  for (const std::string& name : gg::gar_names()) {
    for (std::size_t f : {0u, 1u, 2u}) {
      const std::size_t min_n = gg::gar_min_n(name, f);
      ASSERT_GE(min_n, 1u) << name;
      EXPECT_NO_THROW((void)gg::make_gar(name, min_n, f))
          << name << " f=" << f << " n=" << min_n;
      if (min_n > 1) {
        EXPECT_THROW((void)gg::make_gar(name, min_n - 1, f),
                     std::invalid_argument)
            << name << " f=" << f << " n=" << min_n - 1;
      }
    }
  }
}

TEST(GarRegistry, EveryRuleAcceptsANonDefaultOptionSpec) {
  // The ISSUE's acceptance bar: every rule selectable AND tunable through a
  // spec string. Rules without a natural knob take the universal pre_clip.
  const std::map<std::string, std::string> specs = {
      {"average", "average:pre_clip=100"},
      {"median", "median:pre_clip=100"},
      {"trimmed_mean", "trimmed_mean:trim=2"},
      {"krum", "krum:pre_clip=100"},
      {"multi_krum", "multi_krum:m=2"},
      {"mda", "mda:pre_clip=100"},
      {"bulyan", "bulyan:pre_clip=100"},
      {"geometric_median", "geometric_median:max_iterations=64"},
      {"centered_clip", "centered_clip:tau=0.5,iterations=20"},
      {"cge", "cge:keep=3"},
  };
  for (const std::string& name : gg::gar_names()) {
    const auto it = specs.find(name);
    // Runtime-registered extras (other suites may add rules) default to the
    // universal option; the built-in list stays exhaustive.
    const std::string spec =
        it != specs.end() ? it->second : name + ":pre_clip=100";
    const std::size_t f = 1;
    const std::size_t n = gg::gar_min_n(name, f) + 2;
    gg::GarPtr gar;
    ASSERT_NO_THROW(gar = gg::make_gar(spec, n, f)) << spec;
    ASSERT_NE(gar, nullptr);
    EXPECT_EQ(gar->name(), name);
    const auto inputs = cloud(n, 16, 7 + n);
    gg::AggregationContext ctx;
    FlatVector out;
    EXPECT_NO_THROW(gar->aggregate_into(inputs, ctx, out)) << spec;
    EXPECT_EQ(out.size(), 16u);
  }
}

// ------------------------------------------------------------ spec parsing

TEST(GarSpec, ParsesBareNamesAndOptionLists) {
  const gg::GarSpec bare = gg::parse_gar_spec("krum");
  EXPECT_EQ(bare.name, "krum");
  EXPECT_TRUE(bare.options.empty());

  const gg::GarSpec rich =
      gg::parse_gar_spec("centered_clip:tau=0.5,iterations=20");
  EXPECT_EQ(rich.name, "centered_clip");
  EXPECT_TRUE(rich.options.contains("tau"));
  EXPECT_TRUE(rich.options.contains("iterations"));
  EXPECT_DOUBLE_EQ(rich.options.get_double("tau", -1.0), 0.5);
  EXPECT_EQ(rich.options.get_size("iterations", 0), 20u);
}

TEST(GarSpec, RejectsGrammarViolations) {
  EXPECT_THROW((void)gg::parse_gar_spec(""), std::invalid_argument);
  EXPECT_THROW((void)gg::parse_gar_spec(":tau=1"), std::invalid_argument);
  EXPECT_THROW((void)gg::parse_gar_spec("krum:"), std::invalid_argument);
  EXPECT_THROW((void)gg::parse_gar_spec("krum:tau"), std::invalid_argument);
  EXPECT_THROW((void)gg::parse_gar_spec("krum:tau="), std::invalid_argument);
  EXPECT_THROW((void)gg::parse_gar_spec("krum:=1"), std::invalid_argument);
  EXPECT_THROW((void)gg::parse_gar_spec("krum:a=1,a=2"),
               std::invalid_argument);  // duplicate key
  EXPECT_THROW((void)gg::parse_gar_spec("bad name:a=1"),
               std::invalid_argument);
}

TEST(GarSpec, TypedGettersRejectMalformedValues) {
  const gg::GarSpec spec = gg::parse_gar_spec("x:count=ten,rate=fast,neg=-3");
  EXPECT_THROW((void)spec.options.get_size("count", 0),
               std::invalid_argument);
  EXPECT_THROW((void)spec.options.get_double("rate", 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)spec.options.get_size("neg", 0), std::invalid_argument);
  // Absent keys fall back.
  EXPECT_EQ(spec.options.get_size("missing", 17), 17u);
  EXPECT_DOUBLE_EQ(spec.options.get_double("missing", 2.5), 2.5);
}

// -------------------------------------------------------- option semantics

TEST(GarRegistry, UnknownRuleAndUnknownOptionAreRejected) {
  EXPECT_THROW((void)gg::make_gar("resilient_mean_9000", 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::gar_min_n("nope", 1), std::invalid_argument);
  // A typo'd option must fail loudly, not be silently ignored.
  EXPECT_THROW((void)gg::make_gar("median:tua=0.5", 3, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("krum:iterations=5", 5, 1),
               std::invalid_argument);
}

TEST(GarRegistry, OptionRangesAreValidated) {
  // trimmed_mean: trim must leave at least one survivor.
  EXPECT_NO_THROW((void)gg::make_gar("trimmed_mean:trim=2", 5, 1));
  EXPECT_THROW((void)gg::make_gar("trimmed_mean:trim=3", 5, 1),
               std::invalid_argument);
  // multi_krum: m in [1, n-f-2].
  EXPECT_NO_THROW((void)gg::make_gar("multi_krum:m=1", 9, 2));
  EXPECT_NO_THROW((void)gg::make_gar("multi_krum:m=5", 9, 2));
  EXPECT_THROW((void)gg::make_gar("multi_krum:m=0", 9, 2),
               std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("multi_krum:m=6", 9, 2),
               std::invalid_argument);
  // cge: keep in [1, n].
  EXPECT_THROW((void)gg::make_gar("cge:keep=0", 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("cge:keep=6", 5, 1),
               std::invalid_argument);
  // pre_clip must be a positive radius.
  EXPECT_THROW((void)gg::make_gar("median:pre_clip=0", 3, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("median:pre_clip=-1", 3, 1),
               std::invalid_argument);
  // centered_clip / geometric_median option sanity.
  EXPECT_THROW((void)gg::make_gar("centered_clip:iterations=0", 3, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("geometric_median:max_iterations=0", 3, 1),
               std::invalid_argument);
  EXPECT_THROW((void)gg::make_gar("geometric_median:smoothing=0", 3, 1),
               std::invalid_argument);
}

TEST(GarRegistry, OptionsChangeBehavior) {
  // trimmed_mean with trim=0 is the plain mean; with trim=2 it sheds the
  // two extremes per side — materially different on a cloud with outliers.
  auto inputs = cloud(7, 8, 99);
  for (float& x : inputs[0]) x = 1000.0F;  // magnitude outlier
  const FlatVector trim0 =
      ts::aggregate(*gg::make_gar("trimmed_mean:trim=0", 7, 1), inputs);
  const FlatVector trim2 =
      ts::aggregate(*gg::make_gar("trimmed_mean:trim=2", 7, 1), inputs);
  EXPECT_GT(trim0[0], 100.0F);  // mean dragged by the outlier
  EXPECT_LT(trim2[0], 5.0F);    // trimmed mean sheds it

  // multi_krum:m=n-f-2 equals the default construction.
  const auto mk_inputs = cloud(9, 8, 100);
  const FlatVector def =
      ts::aggregate(*gg::make_gar("multi_krum", 9, 2), mk_inputs);
  const FlatVector m5 =
      ts::aggregate(*gg::make_gar("multi_krum:m=5", 9, 2), mk_inputs);
  EXPECT_EQ(def, m5);
  const FlatVector m1 =
      ts::aggregate(*gg::make_gar("multi_krum:m=1", 9, 2), mk_inputs);
  EXPECT_NE(def, m1);  // m=1 degenerates to plain Krum's single pick
}

TEST(GarRegistry, PreClipCapsMagnitudeOutliers) {
  // Un-clipped average is dragged arbitrarily far by one huge vector;
  // pre_clip bounds every input's leverage to radius/n.
  auto inputs = cloud(5, 4, 101, 0.0F, 0.01F);
  for (float& x : inputs[4]) x = 1e6F;
  const FlatVector plain =
      ts::aggregate(*gg::make_gar("average", 5, 0), inputs);
  const FlatVector clipped =
      ts::aggregate(*gg::make_gar("average:pre_clip=1", 5, 0), inputs);
  EXPECT_GT(gt::norm(plain), 1e4);
  EXPECT_LE(gt::norm(clipped), 1.0 + 1e-3);
  // Inputs inside the radius pass through untouched: all-honest clouds
  // aggregate identically with a generous radius.
  const auto tame = cloud(5, 4, 102);
  EXPECT_EQ(ts::aggregate(*gg::make_gar("average", 5, 0), tame),
            ts::aggregate(*gg::make_gar("average:pre_clip=1000", 5, 0), tame));
}

// -------------------------------------------------------------- extension

TEST(GarRegistry, RuntimeRegistrationExtendsTheStringApi) {
  // A rule registered at runtime is immediately reachable through
  // gar_names / gar_min_n / make_gar — the registry is the single source
  // of truth. Registered once per process; idempotent across gtest
  // repeats via the duplicate check.
  const std::string name = "registry_test_mean";
  if (gg::GarRegistry::instance().find(name) == nullptr) {
    gg::GarRegistry::instance().add(
        {.name = name,
         .min_n = [](std::size_t f) { return f + 1; },
         .option_floor = {},
       .factory = [](std::size_t n, std::size_t f, const gg::GarOptions&)
             -> gg::GarPtr { return std::make_unique<gg::Average>(n, f); }});
  }
  const auto names = gg::gar_names();
  EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
  EXPECT_EQ(gg::gar_min_n(name, 2), 3u);
  const auto inputs = cloud(4, 8, 103);
  const FlatVector out = ts::aggregate(*gg::make_gar(name, 4, 0), inputs);
  EXPECT_EQ(out.size(), 8u);

  // Duplicate registration is a hard error.
  EXPECT_THROW(
      gg::GarRegistry::instance().add(
          {.name = name,
           .min_n = [](std::size_t) { return std::size_t(1); },
           .option_floor = {},
       .factory = [](std::size_t, std::size_t, const gg::GarOptions&)
               -> gg::GarPtr { return nullptr; }}),
      std::invalid_argument);
}

TEST(GarRegistry, OptionsRaiseTheResilienceFloor) {
  // An option implying a larger quorum must raise gar_min_n for the spec,
  // and make_gar must reject below that raised floor — otherwise a legally
  // degraded quorum passes the trainer's min-quorum gate and the factory
  // throws mid-training (attacker-triggerable via dropped replies).
  EXPECT_EQ(gg::gar_min_n("multi_krum", 1), 5u);
  EXPECT_EQ(gg::gar_min_n("multi_krum:m=8", 1), 11u);
  EXPECT_THROW((void)gg::make_gar("multi_krum:m=8", 10, 1),
               std::invalid_argument);
  EXPECT_NO_THROW((void)gg::make_gar("multi_krum:m=8", 11, 1));

  EXPECT_EQ(gg::gar_min_n("trimmed_mean", 1), 3u);
  EXPECT_EQ(gg::gar_min_n("trimmed_mean:trim=3", 1), 7u);
  EXPECT_THROW((void)gg::make_gar("trimmed_mean:trim=3", 6, 1),
               std::invalid_argument);
  EXPECT_NO_THROW((void)gg::make_gar("trimmed_mean:trim=3", 7, 1));

  EXPECT_EQ(gg::gar_min_n("cge:keep=6", 1), 6u);
  EXPECT_THROW((void)gg::make_gar("cge:keep=6", 5, 1),
               std::invalid_argument);
  EXPECT_NO_THROW((void)gg::make_gar("cge:keep=6", 6, 1));
}
