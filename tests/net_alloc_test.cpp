// Heap allocations on the net plane's hot paths, counted by replacing the
// global operator new (support/allocation_counter.h): a steady-state
// collect() that awaits every peer, run by the caller alone and ordered
// with a helper, and a codec encode. Each bound is the
// count the code makes today; a change may lower one, never raise it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/cluster.h"
#include "net/codec.h"
#include "support/allocation_counter.h"
#include "tensor/rng.h"

namespace gn = garfield::net;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

using ts::allocations_in;

namespace {

/// tiny_mlp's dimension: the payload size of the ssmw-byz and dec-mlp
/// benchmark workloads' gradient replies.
constexpr std::size_t kTinyMlp = 874;

gn::Payload random_payload(std::size_t d, std::uint64_t seed) {
  gt::Rng rng(seed);
  gn::Payload out(d);
  for (float& x : out) x = rng.normal(0.0F, 1.0F);
  return out;
}

/// Allocations per steady-state collect() from one caller over eight echo
/// peers, awaiting all. The peers answer with one shared payload, so every
/// allocation counted is the dispatch path's own.
double allocations_per_collect(std::size_t pool_threads) {
  gn::Cluster::Options o;
  o.nodes = 9;
  o.pool_threads = pool_threads;
  gn::Cluster cluster(o);
  const auto reply = std::make_shared<const gn::Payload>(kTinyMlp, 1.0F);
  const auto argument = std::make_shared<const gn::Payload>(kTinyMlp, 2.0F);
  std::vector<gn::NodeId> peers;
  for (gn::NodeId p = 1; p <= 8; ++p) {
    peers.push_back(p);
    cluster.register_handler(p, "m", [reply](const gn::Request&) {
      return gn::HandlerResult::reply(reply);
    });
  }
  const auto collect = [&](std::uint64_t it) {
    EXPECT_EQ(cluster.collect(0, peers, "m", it, argument, peers.size())
                  .size(),
              peers.size());
  };
  for (std::uint64_t it = 0; it < 10; ++it) collect(it);
  constexpr std::size_t kCollects = 1000;
  const std::size_t made = allocations_in([&] {
    for (std::uint64_t it = 0; it < kCollects; ++it) collect(10 + it);
  });
  return double(made) / double(kCollects);
}

}  // namespace

TEST(NetAllocations, SteadyStateSyncCollect) {
  // One pool thread: the caller runs every send, and no helper task adds
  // its own.
  EXPECT_LE(allocations_per_collect(1), 45.0);
}

TEST(NetAllocations, SteadyStateOrderedCollect) {
  // Two pool threads and one caller: helpers can join, so collect() orders
  // the sends longest first, in place, and wakes one helper. Its pool task
  // adds one allocation, and the pool's task deque a chunk every 16 tasks.
  EXPECT_LE(allocations_per_collect(2), 46.1);
}

TEST(NetAllocations, AnEncodeAllocatesOnlyItsFrame) {
  const gn::Payload dense = random_payload(kTinyMlp, 3);
  for (const char* spec : {"topk:k=0.1", "topk:k=0.01", "int8"}) {
    const gn::Codec codec(gn::CodecSpec::parse(spec));
    gn::Payload frame;
    EXPECT_EQ(allocations_in([&] { frame = codec.encode_gradient(dense); }),
              1u)
        << spec;
    // With error feedback: the residual is sized on first use, then
    // reused in place.
    gn::Payload residual;
    frame = codec.encode_gradient(dense, &residual);
    EXPECT_EQ(allocations_in(
                  [&] { frame = codec.encode_gradient(dense, &residual); }),
              1u)
        << spec;
  }
}
