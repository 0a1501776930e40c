// Steady-state aggregation allocates nothing: every registered rule's
// one-shard aggregate_into, called again and again with one reused
// AggregationContext, makes no heap allocation once the context has grown
// to the call's shape (gars/gar.h). The binary replaces the global
// operator new to count the allocations made between two points of a test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gars/gar.h"
#include "support/allocation_counter.h"
#include "support/test_support.h"
#include "tensor/rng.h"

namespace gg = garfield::gars;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using ts::allocations_in;

TEST(GarAllocations, CounterSeesAnAllocation) {
  // The probe itself works: a vector's storage is one counted allocation.
  std::vector<float>* v = nullptr;
  EXPECT_EQ(allocations_in([&] { v = new std::vector<float>(8); }), 2u);
  delete v;
}

TEST(GarAllocations, OneShardSteadyStateAllocatesNothing) {
  // The benchmark workloads' shapes (n = 8 gradients, f = 1; tiny_mlp's
  // and small_mlp's dimensions), every registered rule, and a fast path
  // (median at n = 3).
  const ts::ShardCount one_shard(1);
  for (const std::size_t d : {std::size_t(874), std::size_t(17226)}) {
    for (const std::string& name : gg::gar_names()) {
      for (const std::size_t n : {std::size_t(8), std::size_t(3)}) {
        const std::size_t f = n == 3 ? 0 : 1;
        if (n < gg::gar_min_n(name, f)) continue;
        gt::Rng rng(17);
        const std::vector<gt::FlatVector> vectors =
            ts::honest_cloud(ts::CloudSpec{.n = n, .d = d}, rng);
        const std::vector<gg::Row> rows = ts::rows(vectors);
        const gg::GarPtr gar = gg::make_gar(name, n, f);
        gg::AggregationContext ctx;
        gt::FlatVector out;
        gar->aggregate_into(rows, ctx, out);  // grows the context
        const std::size_t made = allocations_in([&] {
          for (int call = 0; call < 100; ++call) {
            gar->aggregate_into(rows, ctx, out);
          }
        });
        EXPECT_EQ(made, 0u) << name << " n=" << n << " d=" << d;
      }
    }
  }
}
