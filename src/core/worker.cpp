#include "core/worker.h"

#include <cassert>
#include <cstring>

namespace garfield::core {

namespace {

/// Cohort-estimate size an omniscient worker attack samples per request.
/// Enough batches for a usable mean/stddev estimate; small enough that the
/// adversary's extra compute stays a constant factor.
constexpr std::size_t kOmniscienceProbes = 4;

bool same_payload(const net::Payload& a, const net::Payload& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

/// Whether a cached computation at (iteration, params) answers `req`:
/// pointer identity first (the same server pulling again / the collector
/// fanning out one snapshot), then bitwise content (distinct replicas in
/// the synchronous steady state).
bool answers(std::uint64_t iteration, const net::PayloadPtr& params,
             const net::Request& req) {
  return iteration == req.iteration &&
         (params == req.argument || same_payload(*params, *req.argument));
}

}  // namespace

class Worker::ComputeSlot {
 public:
  explicit ComputeSlot(Worker& worker) : worker_(worker) {}
  ComputeSlot(const ComputeSlot&) = delete;
  ComputeSlot& operator=(const ComputeSlot&) = delete;

  /// The compute cleared computing_ itself, under its locks.
  void released() { held_ = false; }

  ~ComputeSlot() {
    if (held_) {
      util::MutexLock lock(worker_.mutex_);
      worker_.computing_ = false;
    }
    worker_.cluster_.notify_ready(worker_.id_);
  }

 private:
  Worker& worker_;
  bool held_ = true;
};

class Worker::GradientBuffers {
 public:
  GradientBuffers() = default;
  GradientBuffers(const GradientBuffers&) = delete;
  GradientBuffers& operator=(const GradientBuffers&) = delete;

  /// A buffer to compute into: a free one when there is one.
  std::unique_ptr<net::Payload> take() {
    {
      util::MutexLock lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<net::Payload> buffer = std::move(free_.back());
        free_.pop_back();
        return buffer;
      }
    }
    return std::make_unique<net::Payload>();
  }

  /// `buffer`, computed, as a payload whose deleter hands it back to
  /// `buffers`.
  static net::PayloadPtr share(const std::shared_ptr<GradientBuffers>& buffers,
                               std::unique_ptr<net::Payload> buffer) {
    return net::PayloadPtr(buffer.release(),
                           [buffers](const net::Payload* released) {
                             // Made non-const by take(): the cast restores
                             // what it was.
                             buffers->give_back(std::unique_ptr<net::Payload>(
                                 const_cast<net::Payload*>(released)));
                           });
  }

 private:
  /// Free buffers kept beyond this are freed: the cache's entries plus the
  /// computes in flight are all a worker needs at once.
  static constexpr std::size_t kMaxFree = kGradientCacheDepth + 2;

  void give_back(std::unique_ptr<net::Payload> buffer) {
    util::MutexLock lock(mutex_);
    if (free_.size() < kMaxFree) free_.push_back(std::move(buffer));
  }

  util::Mutex mutex_;
  std::vector<std::unique_ptr<net::Payload>> free_ GARFIELD_GUARDED_BY(mutex_);
};

Worker::Worker(net::NodeId id, net::Cluster& cluster, nn::ModelPtr model,
               data::Dataset shard, std::size_t batch_size, tensor::Rng rng,
               float momentum)
    : rng_(rng),
      id_(id),
      cluster_(cluster),
      model_(std::move(model)),
      dimension_(model_->dimension()),
      shard_(std::move(shard)),
      sampler_(shard_, batch_size, rng_.fork(0xb0)),
      buffers_(std::make_shared<GradientBuffers>()),
      probe_sampler_(shard_, batch_size, rng_.fork(0xb1)),
      momentum_(momentum) {
  register_handlers();
}

void Worker::register_handlers() {
  cluster_.register_handler(id_, kGetGradient,
                            [this](const net::Request& req) {
                              return serve_gradient(req);
                            });
}

void Worker::rejoin() {
  {
    // compute_mutex_ first: a compute in flight finishes — cached and
    // counted — before the caches are cleared, so no pre-crash gradient
    // survives the rejoin.
    util::MutexLock compute(compute_mutex_);
    util::MutexLock lock(mutex_);
    cache_.clear();
    cloud_cache_.clear();
    residuals_.clear();
    velocity_.clear();
    velocity_pre_.clear();
    velocity_iteration_ = std::uint64_t(-1);
  }
  register_handlers();
}

Worker::ServedGradient Worker::compute_locked(const net::Request& req) {
  model_->set_parameters(*req.argument);
  const data::Batch batch = sampler_.batch_for(req.iteration);
  std::unique_ptr<net::Payload> buffer = buffers_->take();
  net::Payload& gradient = *buffer;
  const double loss =
      model_->gradient_into(batch.inputs, batch.labels, gradient);
  if (momentum_ > 0.0F) {
    // Distributed momentum: v = m*v + g; the server receives v. The
    // velocity advances once per *iteration*: the first compute for
    // iteration t commits v_t = m*v_{t-1} + g_t; a later compute for the
    // same (or an older) iteration — diverged replicas under asynchrony —
    // folds its gradient into the pre-commit base without moving the
    // committed state.
    if (velocity_.size() != gradient.size()) {
      velocity_.assign(gradient.size(), 0.0F);
      velocity_pre_.assign(gradient.size(), 0.0F);
    }
    if (velocity_iteration_ == std::uint64_t(-1) ||
        req.iteration > velocity_iteration_) {
      velocity_pre_ = velocity_;
      for (std::size_t i = 0; i < velocity_.size(); ++i) {
        velocity_[i] = momentum_ * velocity_[i] + gradient[i];
      }
      velocity_iteration_ = req.iteration;
      gradient = velocity_;
    } else {
      for (std::size_t i = 0; i < gradient.size(); ++i) {
        gradient[i] = momentum_ * velocity_pre_[i] + gradient[i];
      }
    }
  }
  return ServedGradient{GradientBuffers::share(buffers_, std::move(buffer)),
                        loss};
}

std::optional<Worker::ServedGradient> Worker::honest_gradient(
    const net::Request& req) {
  assert(req.argument && req.argument->size() == dimension_);
  {
    util::MutexLock lock(mutex_);
    for (const CacheEntry& e : cache_) {
      if (answers(e.iteration, e.params, req)) {
        loss_sum_ += e.loss;
        ++served_;
        return ServedGradient{e.gradient, e.loss};
      }
    }
    if (computing_) return std::nullopt;
    computing_ = true;
  }
  ComputeSlot slot(*this);
  util::MutexLock compute(compute_mutex_);
  ServedGradient served = compute_locked(req);
  // Published before compute_mutex_ is released: a rejoin() waiting on it
  // then clears this entry too, instead of racing its insert.
  util::MutexLock lock(mutex_);
  cache_.push_back(
      CacheEntry{req.iteration, req.argument, served.gradient, served.loss});
  if (cache_.size() > kGradientCacheDepth) cache_.pop_front();
  ++computed_;
  loss_sum_ += served.loss;
  ++served_;
  computing_ = false;
  slot.released();
  return served;
}

std::optional<std::vector<net::Payload>> Worker::local_gradient_cloud(
    const net::Request& req, std::size_t k) {
  assert(req.argument && req.argument->size() == dimension_);
  {
    util::MutexLock lock(mutex_);
    for (const CloudEntry& e : cloud_cache_) {
      if (e.cloud.size() == k && answers(e.iteration, e.params, req)) {
        return e.cloud;  // every replica's pull shares one probe pass
      }
    }
    if (computing_) return std::nullopt;
    computing_ = true;
  }
  ComputeSlot slot(*this);
  util::MutexLock compute(compute_mutex_);
  model_->set_parameters(*req.argument);
  std::vector<net::Payload> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const data::Batch batch =
        probe_sampler_.batch_for(req.iteration * kOmniscienceProbes + i);
    out.push_back(model_->gradient(batch.inputs, batch.labels).gradient);
  }
  util::MutexLock lock(mutex_);
  cloud_cache_.push_back(CloudEntry{req.iteration, req.argument, out});
  if (cloud_cache_.size() > kGradientCacheDepth) cloud_cache_.pop_front();
  computing_ = false;
  slot.released();
  return out;
}

bool Worker::decode_argument(net::Request& req) const {
  req.argument = net::Codec::dense(std::move(req.argument), dimension_);
  return req.argument != nullptr;
}

net::PayloadPtr Worker::encode_reply(const net::PayloadPtr& dense,
                                     net::NodeId from) {
  if (codec().identity()) return dense;
  util::MutexLock lock(mutex_);
  return std::make_shared<const net::Payload>(
      codec().encode_gradient(*dense, &residuals_[from]));
}

net::HandlerResult Worker::serve_gradient(const net::Request& req) {
  net::Request local = req;
  // Ingress gate: a Byzantine caller can ship arbitrary bytes as the
  // model — a missing or wrong-sized argument or structural garbage
  // answers with silence, exactly like a crashed peer, never a throw.
  if (!decode_argument(local)) return net::HandlerResult::none();
  const std::optional<ServedGradient> honest = honest_gradient(local);
  if (!honest) return net::HandlerResult::not_ready();
  return net::HandlerResult::reply(
      encode_reply(honest->gradient, local.from));
}

double Worker::mean_loss() const {
  util::MutexLock lock(mutex_);
  return served_ == 0 ? 0.0 : loss_sum_ / double(served_);
}

std::uint64_t Worker::gradients_served() const {
  util::MutexLock lock(mutex_);
  return served_;
}

std::uint64_t Worker::gradients_computed() const {
  util::MutexLock lock(mutex_);
  return computed_;
}

ByzantineWorker::ByzantineWorker(net::NodeId id, net::Cluster& cluster,
                                 nn::ModelPtr model, data::Dataset shard,
                                 std::size_t batch_size, tensor::Rng rng,
                                 attacks::AttackPtr attack, float momentum,
                                 bool omniscient, std::size_t declared_n,
                                 std::size_t declared_f,
                                 std::string cohort_gar,
                                 std::size_t cohort_lo,
                                 std::size_t cohort_hi)
    : Worker(id, cluster, std::move(model), std::move(shard), batch_size,
             rng, momentum),
      attack_(std::move(attack)),
      conditions_(&cluster.conditions()),
      omniscient_(omniscient),
      declared_n_(declared_n),
      declared_f_(declared_f),
      cohort_gar_(std::move(cohort_gar)),
      cohort_lo_(cohort_lo),
      cohort_hi_(cohort_hi) {}

net::HandlerResult ByzantineWorker::serve_gradient(const net::Request& req) {
  net::Request local = req;
  if (!decode_argument(local)) return net::HandlerResult::none();
  // Omniscient attacks get a local cohort estimate (see class comment);
  // non-omniscient ones see only the attacker's own honest estimate. The
  // full honest-cohort view is exercised directly against GARs in the
  // robustness-matrix tests. The cloud comes first: it counts nothing, so
  // when the honest compute then answers not-ready the redelivery takes
  // the cloud from cache and serves — and counts — the gradient once.
  std::vector<net::Payload> view;
  if (omniscient_) {
    std::optional<std::vector<net::Payload>> cloud =
        local_gradient_cloud(local, kOmniscienceProbes);
    if (!cloud) return net::HandlerResult::not_ready();
    view = std::move(*cloud);
  }
  const std::optional<ServedGradient> honest = honest_gradient(local);
  if (!honest) return net::HandlerResult::not_ready();
  util::MutexLock lock(attack_mutex_);
  attacks::AttackContext ctx(rng_);
  ctx.iteration = local.iteration;
  ctx.attacker_id = id();
  ctx.n = declared_n_;
  ctx.f = declared_f_;
  ctx.honest = view;
  ctx.gar = cohort_gar_;
  ctx.conditions = conditions_;
  ctx.cohort_lo = cohort_lo_;
  ctx.cohort_hi = cohort_hi_;
  std::optional<net::Payload> crafted =
      attack_->craft(*honest->gradient, ctx);
  if (!crafted) return net::HandlerResult::none();
  // The attack operates on the plaintext gradient; the codec is a wire
  // concern, applied after corruption (a Byzantine sender still speaks
  // the wire format — attacks on the *format* live in the fuzz suite).
  // No shared residual: crafted payloads are per-request, so each is
  // encoded standalone.
  if (!codec().identity()) {
    return net::HandlerResult::reply(
        codec().encode_gradient(*crafted, nullptr));
  }
  return net::HandlerResult::reply(std::move(*crafted));
}

}  // namespace garfield::core
