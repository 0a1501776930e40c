#include "core/server.h"

#include <cassert>

#include "core/worker.h"
#include "net/wire.h"

namespace garfield::core {

namespace {

/// Publications retained per ring. Step-tagged peers drift by at most a
/// few iterations (each pull waits for the slowest peer it needs), so a
/// short ring suffices; long-evicted tags are served the oldest retained
/// entry, which degrades to the legacy "whatever state the replica holds"
/// semantics for unboundedly-lagging asynchronous peers.
constexpr std::size_t kRingDepth = 16;

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
      params_(std::make_shared<const net::Payload>(model_->parameters())) {
  register_handlers();
}

void Server::register_handlers() {
  // The serve_* calls are virtual (ByzantineServer corrupts plaintext);
  // the codec wraps them here so corruption happens before encoding.
  cluster_.register_handler(id_, kGetModel, [this](const net::Request& req) {
    return encode_result(serve_model(req), /*state_class=*/true);
  });
  cluster_.register_handler(id_, kGetAggrGrad,
                            [this](const net::Request& req) {
                              return encode_result(serve_aggr_grad(req),
                                                   /*state_class=*/false);
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
    reply_cache_.clear();
    arg_cache_.clear();
    gossip_residual_.clear();
  }
  register_handlers();
}

net::PayloadPtr Server::snapshot() const {
  util::MutexLock lock(mutex_);
  return params_;
}

net::PayloadPtr Server::encoded_snapshot(std::size_t destinations) {
  util::MutexLock lock(mutex_);
  if (codec_.identity()) return params_;
  // Saturating: a tiny tensor's encoding can be larger than dense (the
  // 3-float header), which saves nothing rather than un-saving.
  const auto charge = [&](const net::Payload& encoded) {
    if (encoded.size() < params_->size()) {
      cluster_.note_bytes_saved(
          std::uint64_t(destinations) *
          (net::wire_size(params_->size()) - net::wire_size(encoded.size())));
    }
  };
  for (const EncodedFrame& e : arg_cache_) {
    if (e.source.get() == params_.get()) {
      charge(*e.encoded);
      return e.encoded;
    }
  }
  auto encoded =
      std::make_shared<const net::Payload>(codec_.encode_state(*params_));
  arg_cache_.push_back(EncodedFrame{params_, encoded});
  if (arg_cache_.size() > kRingDepth) arg_cache_.pop_front();
  charge(*encoded);
  return encoded;
}

net::HandlerResult Server::encode_result(net::HandlerResult r,
                                         bool state_class) {
  if (codec_.identity() || r.park || !r.payload) return r;
  util::MutexLock lock(mutex_);
  const auto charge = [&](const net::Payload& encoded) {
    if (encoded.size() < r.payload->size()) {
      cluster_.note_bytes_saved(net::wire_size(r.payload->size()) -
                                net::wire_size(encoded.size()));
    }
  };
  // Every peer pulling the same published payload ships the same frame
  // (and the gossip residual advances exactly once per publication).
  // Byzantine replies are per-request fresh vectors, so they miss the
  // cache and are encoded standalone — the deque bound keeps that cheap.
  for (const EncodedFrame& e : reply_cache_) {
    if (e.source.get() == r.payload.get()) {
      charge(*e.encoded);
      return net::HandlerResult::reply(e.encoded);
    }
  }
  auto encoded = std::make_shared<const net::Payload>(
      state_class ? codec_.encode_state(*r.payload)
                  : codec_.encode_gradient(*r.payload, &gossip_residual_));
  reply_cache_.push_back(EncodedFrame{r.payload, encoded});
  if (reply_cache_.size() > kRingDepth) reply_cache_.pop_front();
  charge(*encoded);
  return net::HandlerResult::reply(encoded);
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
    if (r.payload && net::Codec::looks_encoded(*r.payload)) {
      std::optional<net::Payload> decoded = codec_.decode(*r.payload, d);
      r.payload = decoded ? std::make_shared<const net::Payload>(
                                std::move(*decoded))
                          : nullptr;
    }
    if (!r.payload || r.payload->size() != d ||
        !tensor::all_finite(*r.payload)) {
      rejected_.fetch_add(1);
      continue;
    }
    out.push_back(std::move(r.payload));
  }
  return out;
}

std::vector<net::PayloadPtr> Server::get_gradients(std::uint64_t t,
                                                   std::size_t q) {
  return validate(cluster_.collect(id_, workers_, kGetGradient, t,
                                   encoded_snapshot(workers_.size()), q));
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
    auto payload = std::make_shared<const net::Payload>(std::move(grad));
    aggr_ring_.push_back(TaggedEntry{tag, payload});
    if (aggr_ring_.size() > kRingDepth) aggr_ring_.pop_front();
    // Encode the gossip frame NOW, in publish order — the peer's own loop
    // order, which every backend reproduces. Deferring to first serve
    // would let request arrival order (real transports race) decide the
    // error-feedback residual sequence, leaking transport timing into the
    // learning trajectory. serve_aggr_grad then hits this cache; the
    // bytes_saved charge stays at serve time, when a frame actually ships.
    if (!codec_.identity()) {
      reply_cache_.push_back(EncodedFrame{
          payload,
          std::make_shared<const net::Payload>(
              codec_.encode_gradient(*payload, &gossip_residual_))});
      if (reply_cache_.size() > kRingDepth) reply_cache_.pop_front();
    }
  }
  cluster_.notify_ready(id_);
}

void Server::skip_aggr_grad(std::uint64_t tag) {
  {
    util::MutexLock lock(mutex_);
    aggr_ring_.push_back(TaggedEntry{tag, nullptr});
    if (aggr_ring_.size() > kRingDepth) aggr_ring_.pop_front();
  }
  cluster_.notify_ready(id_);
}

void Server::update_model(const net::Payload& aggregated_gradient) {
  util::MutexLock lock(mutex_);
  // Copy-on-write: outstanding snapshot holders keep the old vector.
  net::Payload next = *params_;
  optimizer_.step(next, aggregated_gradient, step_);
  params_ = std::make_shared<const net::Payload>(std::move(next));
  ++step_;
}

void Server::write_model(net::Payload parameters) {
  util::MutexLock lock(mutex_);
  assert(parameters.size() == params_->size());
  params_ = std::make_shared<const net::Payload>(std::move(parameters));
}

double Server::compute_accuracy(const data::Batch& test) {
  util::MutexLock lock(mutex_);
  model_->set_parameters(*params_);
  return model_->accuracy(test.inputs, test.labels);
}

double Server::compute_loss(const data::Batch& test) {
  util::MutexLock lock(mutex_);
  model_->set_parameters(*params_);
  return model_->loss(test.inputs, test.labels);
}

net::Payload Server::parameters() const { return *snapshot(); }

std::uint64_t Server::steps_taken() const {
  util::MutexLock lock(mutex_);
  return step_;
}

std::uint64_t Server::rejected_payloads() const { return rejected_.load(); }

net::HandlerResult Server::serve_tagged(const std::deque<TaggedEntry>& ring,
                                        std::uint64_t tag,
                                        bool serve_oldest_on_eviction) const {
  if (ring.empty() || ring.back().tag < tag) {
    // Not published yet — this replica has not reached iteration `tag`.
    return net::HandlerResult::not_ready();
  }
  for (const TaggedEntry& e : ring) {
    if (e.tag == tag) {
      return e.payload ? net::HandlerResult::reply(e.payload)
                       : net::HandlerResult::none();  // skipped round
    }
  }
  // Evicted: the requester lags more than kRingDepth publications behind.
  // Model pulls get the oldest retained state (a stale model is the legacy
  // current-state semantics, and model aggregation tolerates staleness);
  // gossip pulls are declined instead — folding a different contraction
  // round's gradient in as if it were the requested one would silently
  // corrupt the contract() average, while a decline just shrinks the
  // quorum.
  if (!serve_oldest_on_eviction) return net::HandlerResult::none();
  const TaggedEntry& oldest = ring.front();
  return oldest.payload ? net::HandlerResult::reply(oldest.payload)
                        : net::HandlerResult::none();
}

net::HandlerResult Server::serve_model(const net::Request& req) {
  util::MutexLock lock(mutex_);
  if (tagged_models_) {
    return serve_tagged(model_ring_, req.iteration,
                        /*serve_oldest_on_eviction=*/true);
  }
  return net::HandlerResult::reply(params_);
}

net::HandlerResult Server::serve_aggr_grad(const net::Request& req) {
  util::MutexLock lock(mutex_);
  return serve_tagged(aggr_ring_, req.iteration,
                      /*serve_oldest_on_eviction=*/false);
}

Checkpoint Server::current_checkpoint() const {
  util::MutexLock lock(mutex_);
  return Checkpoint{step_, *params_, optimizer_.velocity()};
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

net::HandlerResult ByzantineServer::corrupt(const net::Payload& honest,
                                            std::uint64_t iteration,
                                            const std::string& cohort_gar) {
  util::MutexLock lock(attack_mutex_);
  attacks::AttackContext ctx(rng_);
  ctx.iteration = iteration;
  ctx.attacker_id = id();
  ctx.n = declared_n_;
  ctx.f = declared_f_;
  ctx.gar = cohort_gar;
  std::optional<net::Payload> crafted = attack_->craft(honest, ctx);
  if (!crafted) return net::HandlerResult::none();
  return net::HandlerResult::reply(std::move(*crafted));
}

net::HandlerResult ByzantineServer::serve_model(const net::Request& req) {
  net::HandlerResult honest = Server::serve_model(req);
  if (honest.park || !honest.payload) return honest;
  return corrupt(*honest.payload, req.iteration, model_cohort_gar_);
}

net::HandlerResult ByzantineServer::serve_aggr_grad(
    const net::Request& req) {
  net::HandlerResult honest = Server::serve_aggr_grad(req);
  if (honest.park || !honest.payload) return honest;
  return corrupt(*honest.payload, req.iteration, aggr_cohort_gar_);
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
