// Worker and ByzantineWorker (§3.2 "Main objects").
//
// The worker is passive: it owns a data shard and a private model replica,
// and answers get_gradient pulls from servers. The request carries the
// requesting server's current parameter vector (the pull-based equivalent
// of the server broadcasting its parameters), the reply is the gradient of
// the loss on the worker's mini-batch for that iteration at those
// parameters.
//
// Gradient serving is cached per iteration: the forward/backward for
// iteration t runs ONCE and the resulting (refcounted, immutable) gradient
// is served to every server replica pulling for t — Garfield's actual
// semantics, where one worker computes one estimate per step regardless of
// how many parameter servers replicate it. The cache key is
// (iteration, requested parameters): replicas whose parameter vectors are
// bitwise identical (the synchronous steady state) share one computation;
// genuinely diverged replicas each get an honest gradient at their own
// parameters. The mini-batch is keyed on the iteration
// (BatchSampler::batch_for), not on request arrival, so concurrent pulls
// cannot perturb the data order — the determinism contract the
// transport_stress_test pins.
//
// Computation is single-flight: one forward/backward at a time, and no
// puller ever waits on a worker lock across one. A pull that misses
// the cache while another compute is in flight answers not-ready and
// parks on the cluster; the compute's end (cached, counted) notifies, and
// the redelivered pull is usually a cache hit.
//
// A compute runs on whichever thread delivered the pull — a pool thread,
// or a server loop draining its own collect() — so gradients are computed
// into buffers the worker recycles, not fresh allocations: a buffer comes
// back through its payload's deleter once the last PayloadPtr to it is
// gone, and never earlier. Fresh buffers would be freed on whatever thread
// drops them last, and spread over every thread's malloc arena.
//
// The wire codec is the cluster's (net::Cluster::Options::codec). A
// request argument — a server snapshot, possibly a state-class frame — is
// decoded at ingress. Each reply is encoded once, as it is served to its
// requester: a pull answers one requester's iteration once, so nothing
// caches frames. The cluster counts what each frame saved.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "attacks/attack.h"
#include "data/dataset.h"
#include "net/cluster.h"
#include "net/codec.h"
#include "nn/model.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::core {

/// RPC method served by workers.
inline constexpr const char* kGetGradient = "get_gradient";

class Worker {
 public:
  /// Cached computations retained. Server replicas drift by at most a few
  /// iterations (model exchange bounds them), so a short ring covers every
  /// live pull; an evicted (very old) iteration is simply recomputed — the
  /// keyed batch sampler makes the recomputation bitwise identical for
  /// momentum-free workers. With momentum the recomputation folds against
  /// the *current* pre-commit velocity base, not the one that was live
  /// when the iteration was first served — an approximation only reachable
  /// in asynchronous runs whose replicas already drift by more than this
  /// many iterations, where quorum membership is timing-dependent anyway.
  static constexpr std::size_t kGradientCacheDepth = 8;

  /// momentum > 0 enables *worker-side* momentum (distributed momentum,
  /// [23] in the paper): the worker replies with its exponentially-averaged
  /// gradient v = m*v + g instead of the raw estimate. This reduces the
  /// variance the GAR sees, which §8 points at as the technique restoring
  /// GAR resilience guarantees when the variance condition is violated.
  /// The velocity advances once per iteration (first compute wins), not
  /// once per requesting server.
  Worker(net::NodeId id, net::Cluster& cluster, nn::ModelPtr model,
         data::Dataset shard, std::size_t batch_size, tensor::Rng rng,
         float momentum = 0.0F);
  virtual ~Worker() = default;

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] net::NodeId id() const { return id_; }

  /// Come back from a crash: re-register the get_gradient handler (the
  /// cluster dropped it at crash time) and forget the gradient caches and
  /// momentum state — a restarted worker process has computed nothing, and
  /// replaying a pre-crash velocity would double-count the iterations the
  /// crash window skipped.
  void rejoin();

  /// Mean training loss of the gradients served so far (diagnostics).
  [[nodiscard]] double mean_loss() const;
  /// Replies served (cache hits included).
  [[nodiscard]] std::uint64_t gradients_served() const;
  /// Forward/backward passes actually run for honest serving; the gap to
  /// gradients_served() is what the per-iteration cache saved.
  [[nodiscard]] std::uint64_t gradients_computed() const;

 protected:
  /// A served (possibly cached) honest gradient.
  struct ServedGradient {
    net::PayloadPtr gradient;
    double loss = 0.0;
  };

  /// The honest gradient for this request — cached per (iteration,
  /// parameters), computed on first demand (thread-safe). nullopt when
  /// the cache misses while another compute is in flight: the caller
  /// answers not_ready(), and that compute's end notifies the cluster.
  [[nodiscard]] std::optional<ServedGradient> honest_gradient(
      const net::Request& req) GARFIELD_EXCLUDES(mutex_, compute_mutex_);

  /// k extra raw gradient estimates at the requested parameters, drawn
  /// deterministically from this node's own shard (no momentum, no loss
  /// accounting) — the local cohort estimate an omniscient-style attacker
  /// builds when it cannot see other nodes' payloads. Probe batches are
  /// keyed on (iteration, probe index), so the estimate is reproducible
  /// and independent of request arrival order — which also makes it
  /// cacheable per (iteration, parameters), the same once-per-iteration
  /// discipline as honest serving, and the same single flight: nullopt
  /// while another compute is in flight. Thread-safe.
  [[nodiscard]] std::optional<std::vector<net::Payload>> local_gradient_cloud(
      const net::Request& req, std::size_t k)
      GARFIELD_EXCLUDES(mutex_, compute_mutex_);

  /// Handler body; ByzantineWorker overrides to corrupt the reply.
  [[nodiscard]] virtual net::HandlerResult serve_gradient(
      const net::Request& req);

  /// Rewrite the request argument to the dense model vector it stands for
  /// (net::Codec::dense), in place. Returns false on Byzantine garbage — a
  /// missing argument, a plain one whose size is not the model's
  /// dimension, or a frame that does not decode — and the caller answers
  /// with silence, exactly like a crashed peer. Well-formed plain
  /// arguments pass through untouched.
  [[nodiscard]] bool decode_argument(net::Request& req) const;

  /// Encode one outbound gradient for requester `from`, once. The
  /// error-feedback residual is keyed on the requesting node: each
  /// requester's stream of gradients is corrected independently, which
  /// keeps the encoding a pure function of (requester, computed-gradient
  /// sequence) — request arrival order across requesters, which real
  /// transports do not make deterministic, cannot leak into the frames.
  /// Identity codec returns `dense` unchanged.
  [[nodiscard]] net::PayloadPtr encode_reply(const net::PayloadPtr& dense,
                                             net::NodeId from)
      GARFIELD_EXCLUDES(mutex_);

  /// The cluster's wire codec (net::Cluster::Options::codec).
  [[nodiscard]] net::Codec codec() const { return cluster_.codec(); }

  tensor::Rng rng_;

 private:
  /// One cached computation. `params` pins the exact parameter vector the
  /// gradient was taken at; lookups match on pointer identity first (the
  /// same server pulling again / the collector fanning out one snapshot),
  /// then on bitwise content (distinct replicas in the synchronous steady
  /// state).
  struct CacheEntry {
    std::uint64_t iteration = 0;
    net::PayloadPtr params;
    net::PayloadPtr gradient;
    double loss = 0.0;
  };

  /// (Re-)register the get_gradient handler (construction and rejoin()).
  void register_handlers();

  /// Forward/backward at the request's parameters on its iteration's
  /// batch, with worker momentum folded in.
  [[nodiscard]] ServedGradient compute_locked(const net::Request& req)
      GARFIELD_REQUIRES(compute_mutex_);

  /// Releases a claimed compute slot (computing_) when it leaves scope,
  /// on a throw too: clears the flag unless the compute already did
  /// (under compute_mutex_, next to its cache insert), then wakes the
  /// pulls parked on this node with no lock held.
  class ComputeSlot;

  /// The recycled gradient buffers (see the header comment). Shared with
  /// the deleter of every payload made from one, so a payload may outlive
  /// the worker.
  class GradientBuffers;

  net::NodeId id_;
  net::Cluster& cluster_;  // handler (re-)registration, wake-ups
  /// The private model replica: every forward/backward (set_parameters +
  /// gradient) runs under compute_mutex_, one at a time (single flight).
  nn::ModelPtr model_ GARFIELD_GUARDED_BY(compute_mutex_);
  /// Immutable model dimension, read lock-free at ingress.
  std::size_t dimension_;
  data::Dataset shard_;
  data::BatchSampler sampler_ GARFIELD_GUARDED_BY(compute_mutex_);
  std::shared_ptr<GradientBuffers> buffers_;
  /// Omniscience probes (disjoint stream).
  data::BatchSampler probe_sampler_ GARFIELD_GUARDED_BY(compute_mutex_);
  float momentum_;
  /// Worker-side momentum state.
  tensor::FlatVector velocity_ GARFIELD_GUARDED_BY(compute_mutex_);
  // Velocity bookkeeping for once-per-iteration momentum: velocity_ holds
  // the state *after* folding velocity_iteration_; velocity_pre_ the state
  // before it, so a second distinct-parameter compute at the same
  // iteration folds into the same base instead of double-counting.
  tensor::FlatVector velocity_pre_ GARFIELD_GUARDED_BY(compute_mutex_);
  std::uint64_t velocity_iteration_ GARFIELD_GUARDED_BY(compute_mutex_) =
      std::uint64_t(-1);
  /// One cached omniscience probe cloud (see local_gradient_cloud).
  struct CloudEntry {
    std::uint64_t iteration = 0;
    net::PayloadPtr params;
    std::vector<net::Payload> cloud;
  };

  /// Held across a forward/backward. Lock order: compute_mutex_ before
  /// mutex_ (a compute inserts its result under both; rejoin() clears
  /// under both), never the reverse.
  util::Mutex compute_mutex_;
  /// Guards the caches, counters, residuals and the in-flight flag; never
  /// held across a forward/backward.
  mutable util::Mutex mutex_;
  /// A compute is in flight: a cache miss answers not-ready meanwhile.
  bool computing_ GARFIELD_GUARDED_BY(mutex_) = false;
  std::deque<CacheEntry> cache_ GARFIELD_GUARDED_BY(mutex_);
  std::deque<CloudEntry> cloud_cache_ GARFIELD_GUARDED_BY(mutex_);
  /// Error-feedback memory per requesting node: what compression dropped
  /// from that requester's stream last round, added back before
  /// compressing this round (net/codec.h).
  std::map<net::NodeId, tensor::FlatVector> residuals_
      GARFIELD_GUARDED_BY(mutex_);
  double loss_sum_ GARFIELD_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t served_ GARFIELD_GUARDED_BY(mutex_) = 0;
  std::uint64_t computed_ GARFIELD_GUARDED_BY(mutex_) = 0;
};

/// A worker under adversarial control: computes the honest gradient, then
/// rewrites it with the configured attack before replying. Each craft call
/// receives an AttackContext carrying the request's training iteration, the
/// attacker's node id and the declared cohort shape; when the attack is
/// omniscient, the context additionally carries a *local cohort estimate* —
/// a handful of extra raw gradients sampled from this node's own shard at
/// the requested parameters, the standard stand-in for full omniscience
/// when the live cluster gives the adversary no channel to other nodes'
/// payloads (Baruch et al. estimate mean/stddev exactly this way).
class ByzantineWorker final : public Worker {
 public:
  /// `cohort_gar` is the GAR spec the deployment aggregates this node's
  /// gradients with (config's gradient_gar; "" when unknown) — adaptive
  /// attacks probe it through AttackContext::gar. `cohort_lo`/`cohort_hi`
  /// span the worker cohort's node ids (both 0 when unknown) — schedule-
  /// aware attacks (window_striker) count live cohort members over it
  /// against the cluster's churn schedule.
  ByzantineWorker(net::NodeId id, net::Cluster& cluster, nn::ModelPtr model,
                  data::Dataset shard, std::size_t batch_size,
                  tensor::Rng rng, attacks::AttackPtr attack,
                  float momentum = 0.0F, bool omniscient = false,
                  std::size_t declared_n = 0, std::size_t declared_f = 0,
                  std::string cohort_gar = {}, std::size_t cohort_lo = 0,
                  std::size_t cohort_hi = 0);

 protected:
  net::HandlerResult serve_gradient(const net::Request& req) override;

 private:
  util::Mutex attack_mutex_;
  /// Stateful across rounds (alternating phase, adaptive_z intensity) and
  /// reachable from every thread serving this node's pulls.
  attacks::AttackPtr attack_ GARFIELD_GUARDED_BY(attack_mutex_);
  /// The cluster's parsed schedules, shared into every AttackContext.
  const net::NetworkConditions* conditions_;
  bool omniscient_;
  std::size_t declared_n_;
  std::size_t declared_f_;
  std::string cohort_gar_;
  std::size_t cohort_lo_;
  std::size_t cohort_hi_;
};

}  // namespace garfield::core
