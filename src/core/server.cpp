#include "core/server.h"

#include <algorithm>
#include <cassert>

#include "core/worker.h"

namespace garfield::core {

namespace {

/// Publications retained per ring. Step-tagged peers drift by at most a
/// few iterations (each pull waits for the slowest peer it needs), so a
/// short ring suffices; long-evicted tags are served the oldest retained
/// entry, which degrades to the legacy "whatever state the replica holds"
/// semantics for unboundedly-lagging asynchronous peers.
constexpr std::size_t kRingDepth = 16;

/// The stream tag of one crafted reply: a function of who pulled which
/// publication on which channel, never of the order pulls arrive in.
std::uint64_t reply_stream(net::NodeId requester, std::uint64_t iteration,
                           bool gossip) {
  return tensor::splitmix64_mix(iteration) ^
         (std::uint64_t(requester) << 1 | std::uint64_t(gossip));
}

}  // namespace

Server::Server(net::NodeId id, net::Cluster& cluster, nn::ModelPtr model,
               nn::SgdOptimizer::Options opt,
               std::vector<net::NodeId> workers,
               std::vector<net::NodeId> peer_servers)
    : id_(id),
      cluster_(cluster),
      model_(std::move(model)),
      optimizer_(opt),
      workers_(std::move(workers)),
      peer_servers_(std::move(peer_servers)),
      params_(snapshot_of(model_->parameters())) {
  register_handlers();
}

void Server::register_handlers() {
  cluster_.register_handler(id_, kGetModel, [this](const net::Request& req) {
    return serve(req, /*gossip=*/false);
  });
  cluster_.register_handler(id_, kGetAggrGrad,
                            [this](const net::Request& req) {
                              return serve(req, /*gossip=*/true);
                            });
  cluster_.register_handler(id_, kGetCheckpoint,
                            [this](const net::Request& req) {
                              return serve_checkpoint(req);
                            });
}

void Server::rejoin() {
  {
    util::MutexLock lock(mutex_);
    model_ring_.clear();
    aggr_ring_.clear();
    gossip_residual_.clear();
  }
  register_handlers();
}

net::PayloadPtr Server::snapshot() const {
  util::MutexLock lock(mutex_);
  return params_.dense;
}

Server::Published Server::snapshot_of(net::Payload parameters) const {
  auto dense = std::make_shared<const net::Payload>(std::move(parameters));
  if (codec().identity()) return Published{dense, dense};
  auto frame =
      std::make_shared<const net::Payload>(codec().encode_state(*dense));
  return Published{std::move(dense), std::move(frame)};
}

std::vector<net::PayloadPtr> Server::validate(
    std::vector<net::Reply> replies) {
  std::vector<net::PayloadPtr> out;
  out.reserve(replies.size());
  const std::size_t d = model_->dimension();
  for (net::Reply& r : replies) {
    // An encoded frame is expanded here, and its decoded vector replaces
    // it. A frame failing the structural gate, or a payload failing the
    // dimension/finiteness gate, is Byzantine garbage: dropped and
    // counted. A plain payload that passes is the one the callee served.
    net::PayloadPtr dense = net::Codec::dense(std::move(r.payload), d);
    if (!dense || !tensor::all_finite(*dense)) {
      rejected_.fetch_add(1);
      continue;
    }
    out.push_back(std::move(dense));
  }
  return out;
}

std::vector<net::PayloadPtr> Server::get_gradients(std::uint64_t t,
                                                   std::size_t q) {
  net::PayloadPtr frame;
  {
    util::MutexLock lock(mutex_);
    frame = params_.wire;
  }
  return validate(
      cluster_.collect(id_, workers_, kGetGradient, t, std::move(frame), q));
}

std::vector<net::PayloadPtr> Server::get_models(std::uint64_t t,
                                                std::size_t q) {
  return validate(
      cluster_.collect(id_, peer_servers_, kGetModel, t, nullptr, q));
}

std::vector<net::PayloadPtr> Server::get_aggr_grads(std::uint64_t tag,
                                                    std::size_t q,
                                                    std::uint64_t iteration) {
  return validate(cluster_.collect(id_, peer_servers_, kGetAggrGrad, tag,
                                   nullptr, q,
                                   std::chrono::seconds(30), iteration));
}

void Server::enable_step_tagged_serving() {
  util::MutexLock lock(mutex_);
  tagged_models_ = true;
}

void Server::publish_model(std::uint64_t t) {
  {
    util::MutexLock lock(mutex_);
    if (!tagged_models_) return;  // untagged serving never reads the ring
    model_ring_.push_back(TaggedEntry{t, params_});
    if (model_ring_.size() > kRingDepth) model_ring_.pop_front();
  }
  cluster_.notify_ready(id_);
}

void Server::publish_aggr_grad(std::uint64_t tag, net::Payload grad) {
  {
    util::MutexLock lock(mutex_);
    // The frame is made NOW, in publish order — the peer's own loop order,
    // which every backend reproduces — and kept with the publication, so
    // every puller of the tag ships it and the residual advances once.
    // Encoding at serve time would let request arrival order (real
    // transports race) decide the error-feedback residual sequence.
    Published published;
    published.dense = std::make_shared<const net::Payload>(std::move(grad));
    published.wire =
        codec().identity()
            ? published.dense
            : std::make_shared<const net::Payload>(codec().encode_gradient(
                  *published.dense, &gossip_residual_));
    aggr_ring_.push_back(TaggedEntry{tag, std::move(published)});
    if (aggr_ring_.size() > kRingDepth) aggr_ring_.pop_front();
  }
  cluster_.notify_ready(id_);
}

void Server::skip_aggr_grad(std::uint64_t tag) {
  {
    util::MutexLock lock(mutex_);
    aggr_ring_.push_back(TaggedEntry{tag, Published{}});
    if (aggr_ring_.size() > kRingDepth) aggr_ring_.pop_front();
  }
  cluster_.notify_ready(id_);
}

void Server::update_model(const net::Payload& aggregated_gradient) {
  util::MutexLock lock(mutex_);
  // Copy-on-write: outstanding snapshot holders keep the old vector.
  net::Payload next = *params_.dense;
  optimizer_.step(next, aggregated_gradient, step_);
  params_ = snapshot_of(std::move(next));
  ++step_;
}

void Server::write_model(net::Payload parameters) {
  util::MutexLock lock(mutex_);
  assert(parameters.size() == params_.dense->size());
  params_ = snapshot_of(std::move(parameters));
}

double Server::compute_accuracy(const data::Batch& test) {
  util::MutexLock lock(mutex_);
  model_->set_parameters(*params_.dense);
  return model_->accuracy(test.inputs, test.labels);
}

double Server::compute_loss(const data::Batch& test) {
  util::MutexLock lock(mutex_);
  model_->set_parameters(*params_.dense);
  return model_->loss(test.inputs, test.labels);
}

net::Payload Server::parameters() const { return *snapshot(); }

std::uint64_t Server::steps_taken() const {
  util::MutexLock lock(mutex_);
  return step_;
}

std::uint64_t Server::rejected_payloads() const { return rejected_.load(); }

net::HandlerResult Server::serve(const net::Request& req, bool gossip) {
  Published found;
  {
    util::MutexLock lock(mutex_);
    if (!gossip && !tagged_models_) {
      found = params_;
    } else {
      const std::deque<TaggedEntry>& ring = gossip ? aggr_ring_ : model_ring_;
      if (ring.empty() || ring.back().tag < req.iteration) {
        // Not published yet — this replica has not reached the tag.
        return net::HandlerResult::not_ready();
      }
      const auto entry = std::find_if(
          ring.begin(), ring.end(),
          [&req](const TaggedEntry& e) { return e.tag == req.iteration; });
      if (entry != ring.end()) {
        found = entry->published;
      } else if (!gossip) {
        // Evicted: the requester lags more than kRingDepth publications
        // behind. A model pull gets the oldest retained state (a stale
        // model is the legacy current-state semantics, and model
        // aggregation tolerates staleness). A gossip pull is declined
        // instead: folding a different contraction round's gradient in
        // as if it were the requested one would silently corrupt the
        // contract() average, while a decline just shrinks the quorum.
        found = ring.front().published;
      }
    }
  }
  // A skipped gossip round, or a declined eviction.
  if (!found.dense) return net::HandlerResult::none();
  return answer(std::move(found), req.from, req.iteration, gossip);
}

net::HandlerResult Server::answer(Published honest,
                                  net::NodeId /*requester*/,
                                  std::uint64_t /*iteration*/,
                                  bool /*gossip*/) {
  return net::HandlerResult::reply(std::move(honest.wire));
}

Checkpoint Server::current_checkpoint() const {
  util::MutexLock lock(mutex_);
  return Checkpoint{step_, *params_.dense, optimizer_.velocity()};
}

net::HandlerResult Server::serve_checkpoint(const net::Request& /*req*/) {
  return net::HandlerResult::reply(
      pack_bytes(encode_checkpoint_blob(current_checkpoint())));
}

ByzantineServer::ByzantineServer(net::NodeId id, net::Cluster& cluster,
                                 nn::ModelPtr model,
                                 nn::SgdOptimizer::Options opt,
                                 std::vector<net::NodeId> workers,
                                 std::vector<net::NodeId> peer_servers,
                                 attacks::AttackPtr attack, tensor::Rng rng,
                                 std::size_t declared_n,
                                 std::size_t declared_f,
                                 std::string model_cohort_gar,
                                 std::string aggr_cohort_gar)
    : Server(id, cluster, std::move(model), opt, std::move(workers),
             std::move(peer_servers)),
      attack_(std::move(attack)),
      rng_(rng),
      declared_n_(declared_n),
      declared_f_(declared_f),
      model_cohort_gar_(std::move(model_cohort_gar)),
      aggr_cohort_gar_(std::move(aggr_cohort_gar)) {}

net::HandlerResult ByzantineServer::answer(Published honest,
                                           net::NodeId requester,
                                           std::uint64_t iteration,
                                           bool gossip) {
  tensor::Rng rng = rng_.fork(reply_stream(requester, iteration, gossip));
  std::optional<net::Payload> crafted;
  {
    util::MutexLock lock(attack_mutex_);
    attacks::AttackContext ctx(rng);
    ctx.iteration = iteration;
    ctx.attacker_id = id();
    ctx.n = declared_n_;
    ctx.f = declared_f_;
    ctx.gar = gossip ? aggr_cohort_gar_ : model_cohort_gar_;
    crafted = attack_->craft(*honest.dense, ctx);
  }
  if (!crafted) return net::HandlerResult::none();
  // Encoded on its own, with no residual: a crafted reply is made per
  // request, so it has no publication stream to correct.
  if (codec().identity()) return net::HandlerResult::reply(std::move(*crafted));
  return net::HandlerResult::reply(gossip ? codec().encode_gradient(*crafted)
                                          : codec().encode_state(*crafted));
}

net::HandlerResult ByzantineServer::serve_checkpoint(
    const net::Request& req) {
  {
    util::MutexLock lock(attack_mutex_);
    if (!attack_->tampers_state_transfer()) {
      // Most attacks have no state-transfer channel — serve honestly, like
      // a correct replica (staying inconspicuous is part of the model).
      return Server::serve_checkpoint(req);
    }
  }
  std::vector<std::uint8_t> blob =
      encode_checkpoint_blob(current_checkpoint());
  // Flip a bit of the iteration tag AFTER the digest seal. The tag is not
  // covered by the per-message payload CRC, so without the whole-blob
  // digest this tampered transfer would decode "cleanly" into wrong state;
  // with it the recovering peer rejects the blob before any decode.
  blob[8] ^= 0x01;
  return net::HandlerResult::reply(pack_bytes(blob));
}

}  // namespace garfield::core
