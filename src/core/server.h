// Server and ByzantineServer (§3.2 "Main objects").
//
// The server stores and updates the model state and drives learning steps.
// Its Networking interface is the paper's two abstractions:
//   get_gradients(t, qw) — pull gradient estimates from workers, keep the
//                          fastest qw;
//   get_models(t, qps)   — pull parameter vectors from the other server
//                          replicas, keep the fastest qps.
// plus update_model() (optimizer step on an aggregated gradient),
// write_model() (overwrite state after model aggregation — the MSMW /
// decentralized convergence step) and compute_accuracy().
//
// State is held as an immutable copy-on-write snapshot
// (std::shared_ptr<const Payload>): update_model builds a new vector and
// write_model takes one, then each swaps the pointer, so model pulls and
// get_gradients hand out refcounted pointers instead of locking and
// copying — one snapshot serves every concurrent requester for free. The
// pulls return such pointers too: a GAR reads the payloads a callee served
// in place.
//
// A snapshot or gossip publication is kept as a Published pair: the dense
// vector this node computes with, and the wire frame the cluster's codec
// (net/codec.h) made from it once, when it was written or published — a
// state-class frame for a snapshot, a gradient-class frame folding in the
// gossip error-feedback residual for a publication. Every puller ships
// that frame; under codec=none it is the dense payload itself.
//
// Synchronous model exchanges (MSMW, decentralized) run in *step-tagged*
// mode: the driving loop publishes its snapshot for iteration t
// (publish_model(t)) and peers pull exactly that iteration; a request for
// an iteration this replica has not reached yet answers
// HandlerResult::not_ready() and parks on this node until the publication
// that answers it calls Cluster::notify_ready(). This makes the
// model-exchange round deterministic — peers aggregate same-iteration
// states instead of whatever the replica happened to hold — without ever
// blocking a thread or polling on a timer. The decentralized
// contract() gossip is always step-tagged the same way (publish_aggr_grad
// / skip_aggr_grad); every publication notifies after releasing mutex_,
// since the redelivered handlers take it.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "attacks/attack.h"
#include "core/checkpoint.h"
#include "data/dataset.h"
#include "gars/gar.h"
#include "net/cluster.h"
#include "net/codec.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::core {

/// RPC methods served by servers.
inline constexpr const char* kGetModel = "get_model";
inline constexpr const char* kGetAggrGrad = "get_aggr_grad";
/// Byzantine-recovery state transfer: a recovering replica pulls peers'
/// digest-sealed checkpoint blobs (core/checkpoint.h) instead of trusting
/// a single local file.
inline constexpr const char* kGetCheckpoint = "get_checkpoint";

class Server {
 public:
  Server(net::NodeId id, net::Cluster& cluster, nn::ModelPtr model,
         nn::SgdOptimizer::Options opt, std::vector<net::NodeId> workers,
         std::vector<net::NodeId> peer_servers);
  virtual ~Server() = default;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] std::size_t dimension() const { return model_->dimension(); }

  /// Pull gradients for iteration t from the workers; fastest q win. The
  /// request argument is the current snapshot's frame (no copy; the
  /// snapshot pointer itself under codec=none).
  /// Like every pull, it returns the replies that pass validate(): the
  /// payloads the callees served, not copies, ready to be a GAR's rows.
  [[nodiscard]] std::vector<net::PayloadPtr> get_gradients(std::uint64_t t,
                                                           std::size_t q);

  /// Pull models from the peer server replicas; fastest q win. `t` tags
  /// the pulled iteration for step-tagged peers; untagged peers serve
  /// their live state regardless.
  [[nodiscard]] std::vector<net::PayloadPtr> get_models(std::uint64_t t,
                                                        std::size_t q);

  /// Pull contracted gradients from peers (decentralized contract()
  /// round). `tag` is the encoded (iteration, round) gossip tag;
  /// `iteration` is the training iteration it encodes, which drives the
  /// NetworkConditions straggler/partition schedules (the tag itself
  /// would race ahead of them by the contraction depth).
  [[nodiscard]] std::vector<net::PayloadPtr> get_aggr_grads(
      std::uint64_t tag, std::size_t q, std::uint64_t iteration);

  /// Switch model serving to step-tagged mode (see file comment). Call
  /// before the driving loops start; publish_model then gates what peers
  /// can pull. Untagged mode (the default, and asynchronous MSMW) serves
  /// the live state.
  void enable_step_tagged_serving();

  /// Publish the current snapshot as "this replica's model for iteration
  /// t"; peers pulling get_models(t, q) are answered from a small ring of
  /// recent publications, and pulls parked on it are woken.
  void publish_model(std::uint64_t t) GARFIELD_EXCLUDES(mutex_);

  /// Publish this node's contracted gradient for gossip tag `tag`; peers
  /// pulling get_aggr_grads(tag, ...) park until it is published. Its
  /// gradient-class frame is made here, in publish order, and advances
  /// the gossip residual once.
  void publish_aggr_grad(std::uint64_t tag, net::Payload grad)
      GARFIELD_EXCLUDES(mutex_);

  /// Publish "no contribution" for gossip tag `tag` (the round was
  /// skipped); peers receive a decline instead of waiting forever.
  void skip_aggr_grad(std::uint64_t tag) GARFIELD_EXCLUDES(mutex_);

  /// SGD step with an aggregated gradient (Equation (2)). The new
  /// snapshot gets its state-class frame here.
  void update_model(const net::Payload& aggregated_gradient);

  /// Overwrite the parameter vector (after model-GAR aggregation); the
  /// vector becomes the new snapshot without a copy, with its state-class
  /// frame.
  void write_model(net::Payload parameters);

  /// Top-1 accuracy of the current state on a test batch.
  [[nodiscard]] double compute_accuracy(const data::Batch& test);
  /// Mean loss of the current state on a test batch.
  [[nodiscard]] double compute_loss(const data::Batch& test);

  /// Copy of the current parameter vector.
  [[nodiscard]] net::Payload parameters() const;

  /// Current snapshot pointer, dense (refcount bump, no copy).
  [[nodiscard]] net::PayloadPtr snapshot() const;

  /// Snapshot of the optimizer's momentum buffer (persisted in checkpoints;
  /// empty when momentum is off or no step has run yet).
  [[nodiscard]] tensor::FlatVector optimizer_velocity() const {
    util::MutexLock lock(mutex_);
    return optimizer_.velocity();
  }

  /// Reinstate a checkpointed momentum buffer (checkpoint resume).
  void restore_optimizer_velocity(tensor::FlatVector velocity) {
    util::MutexLock lock(mutex_);
    optimizer_.restore_velocity(std::move(velocity));
  }

  [[nodiscard]] std::uint64_t steps_taken() const;

  /// Scratch state for this server's aggregation calls (distance cache,
  /// score/work buffers). One context per server keeps steady-state
  /// aggregation allocation-free; it belongs to the server's driving loop
  /// thread and must not be shared across threads.
  [[nodiscard]] gars::AggregationContext& aggregation_context() {
    return aggregation_context_;
  }

  /// Come back from a crash: re-register this node's RPC handlers (a
  /// crashed node's handlers were dropped by the cluster) and clear the
  /// step-tagged publication rings — a restarted process has published
  /// nothing, and serving pre-crash entries would answer peers with state
  /// the checkpoint restore is about to overwrite. The caller (the
  /// trainer's recovery hook) then transfers checkpointed state via
  /// write_model / restore_optimizer_velocity.
  void rejoin();

  /// Payloads dropped at ingress (wrong dimension or non-finite values).
  /// A Byzantine node can send anything; malformed vectors are rejected
  /// before they can reach a GAR — a NaN survives even coordinate-wise
  /// medians of even input counts, so this gate is load-bearing.
  [[nodiscard]] std::uint64_t rejected_payloads() const;

 protected:
  /// A payload as this node keeps and ships it: `dense` is what it
  /// computes with, `wire` the codec frame made from it once (the same
  /// pointer under codec=none). A null `dense` on a gossip ring entry marks
  /// a skipped round.
  struct Published {
    net::PayloadPtr dense;
    net::PayloadPtr wire;
  };

  /// The reply to `requester`'s pull that the publication `honest`
  /// answers: its frame. `iteration` is the requested tag, `gossip` tells
  /// a get_aggr_grad pull from a get_model one. ByzantineServer crafts a
  /// reply from `honest.dense` instead. Called with no lock held.
  [[nodiscard]] virtual net::HandlerResult answer(Published honest,
                                                  net::NodeId requester,
                                                  std::uint64_t iteration,
                                                  bool gossip);

  /// What get_checkpoint serves: the live state as a digest-sealed blob
  /// (encode_checkpoint_blob + pack_bytes). ByzantineServer tampers with
  /// the blob *after* the digest is computed, which is exactly what the
  /// receiver's verify-before-decode rejects.
  [[nodiscard]] virtual net::HandlerResult serve_checkpoint(
      const net::Request& req);

  /// Consistent (parameters, velocity, step) triple under one lock hold —
  /// what serve_checkpoint seals into its blob.
  [[nodiscard]] Checkpoint current_checkpoint() const;

  /// The cluster's wire codec (net::Cluster::Options::codec).
  [[nodiscard]] net::Codec codec() const { return cluster_.codec(); }

 private:
  /// One tagged publication (model or contracted gradient).
  struct TaggedEntry {
    std::uint64_t tag = 0;
    Published published;
  };

  /// (Re-)register the get_model / get_aggr_grad / get_checkpoint
  /// handlers (construction and rejoin()).
  void register_handlers();

  /// Keep only well-formed payloads, returned as the pointers that
  /// arrived; counts the dropped ones. Encoded codec frames are decoded
  /// first and the decoded vector replaces the frame — a frame that fails
  /// the structural gate is dropped exactly like a non-finite plain
  /// payload.
  [[nodiscard]] std::vector<net::PayloadPtr> validate(
      std::vector<net::Reply> replies);

  /// `parameters` as a snapshot, with its state-class frame (lossy codecs
  /// degrade to int8: a model missing most coordinates is not a model).
  [[nodiscard]] Published snapshot_of(net::Payload parameters) const;

  /// The get_model (`gossip` false) and get_aggr_grad handler. Untagged
  /// model serving answers the live snapshot. Tagged pulls answer
  /// not_ready until the tag is published, then its ring entry; a tag
  /// evicted from the ring is clamped to the oldest retained entry for
  /// model pulls (staleness is tolerable) and declined for gossip pulls
  /// (a wrong round would corrupt the contraction).
  [[nodiscard]] net::HandlerResult serve(const net::Request& req,
                                         bool gossip)
      GARFIELD_EXCLUDES(mutex_);

  net::NodeId id_;
  net::Cluster& cluster_;
  /// Used for evaluation (set_parameters under mutex_); params_ is
  /// canonical. Left un-annotated: the const dimension() query is read on
  /// the lock-free ingress path (validate), and only the mutable
  /// set_parameters/accuracy/loss calls need — and take — the lock.
  nn::ModelPtr model_;
  nn::SgdOptimizer optimizer_ GARFIELD_GUARDED_BY(mutex_);
  std::vector<net::NodeId> workers_;
  std::vector<net::NodeId> peer_servers_;

  gars::AggregationContext aggregation_context_;

  mutable util::Mutex mutex_;
  /// Error-feedback memory for the gossip (gradient-class) channel,
  /// advanced once per publication.
  tensor::FlatVector gossip_residual_ GARFIELD_GUARDED_BY(mutex_);
  /// Immutable snapshot and its frame, swapped on write.
  Published params_ GARFIELD_GUARDED_BY(mutex_);
  bool tagged_models_ GARFIELD_GUARDED_BY(mutex_) = false;
  std::deque<TaggedEntry> model_ring_ GARFIELD_GUARDED_BY(mutex_);
  std::deque<TaggedEntry> aggr_ring_ GARFIELD_GUARDED_BY(mutex_);
  std::uint64_t step_ GARFIELD_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> rejected_{0};
};

/// A server under adversarial control: serves corrupted models and
/// contracted gradients to the replicas/peers pulling from it. Craft calls
/// receive an AttackContext carrying the *requester's* training step (the
/// iteration tag on the pull), this node's id and the declared server
/// cohort shape; the honest view stays empty — a Byzantine server has no
/// channel to its peers' parameter vectors, so omniscient attacks degrade
/// gracefully to their view-free behaviour. A crafted reply is encoded by
/// the attacker on its own, with no residual, in the class of the channel
/// it answers: a Byzantine sender still speaks the wire format (attacks on
/// the format itself live in the fuzz suite).
class ByzantineServer final : public Server {
 public:
  /// The cohort-GAR specs are what the deployment aggregates this node's
  /// two reply channels with ("" when unknown) — adaptive attacks probe
  /// them through AttackContext::gar: `model_cohort_gar` (config's
  /// model_gar) covers get_model, `aggr_cohort_gar` (config's
  /// gradient_gar) covers the contraction gossip (get_aggr_grad), which
  /// peers re-aggregate with the *gradient* rule.
  ByzantineServer(net::NodeId id, net::Cluster& cluster, nn::ModelPtr model,
                  nn::SgdOptimizer::Options opt,
                  std::vector<net::NodeId> workers,
                  std::vector<net::NodeId> peer_servers,
                  attacks::AttackPtr attack, tensor::Rng rng,
                  std::size_t declared_n = 0, std::size_t declared_f = 0,
                  std::string model_cohort_gar = {},
                  std::string aggr_cohort_gar = {});

 protected:
  /// Craft from `honest.dense` (attacks rewrite a copy; the honest
  /// snapshot stays shared with everyone else) and encode the result.
  /// Each reply draws from its own fork of the node's stream, keyed on
  /// (requester, iteration, channel), so a run's draws do not depend on
  /// the order its pulls arrive in.
  net::HandlerResult answer(Published honest, net::NodeId requester,
                            std::uint64_t iteration, bool gossip) override;
  /// State-transfer tamper channel: when the mounted attack declares
  /// tampers_state_transfer() (corrupt_recovery), the served blob's
  /// iteration tag is flipped *after* the digest seal — a corruption the
  /// per-message CRC would miss but the whole-blob digest catches, so a
  /// recovering peer detects and rejects the transfer.
  net::HandlerResult serve_checkpoint(const net::Request& req) override;

 private:
  util::Mutex attack_mutex_;
  /// Stateful across rounds (alternating phase, adaptive_z intensity) and
  /// reachable from every thread serving this node's pulls.
  attacks::AttackPtr attack_ GARFIELD_GUARDED_BY(attack_mutex_);
  /// Never drawn from: each reply forks its own stream (see answer()).
  const tensor::Rng rng_;
  std::size_t declared_n_;
  std::size_t declared_f_;
  std::string model_cohort_gar_;
  std::string aggr_cohort_gar_;
};

}  // namespace garfield::core
