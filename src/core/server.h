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
// write_model takes one, then each swaps the pointer, so serve_model and
// get_gradients hand out refcounted pointers instead of locking and
// copying — one snapshot serves every concurrent requester for free. The
// pulls return such pointers too: a GAR reads the payloads a callee served
// in place.
//
// Synchronous model exchanges (MSMW, decentralized) run in *step-tagged*
// mode: the driving loop publishes its snapshot for iteration t
// (publish_model(t)) and peers pull exactly that iteration; a request for
// an iteration this replica has not reached yet answers
// HandlerResult::not_ready() and parks on this node until the publication
// that answers it calls Cluster::notify_ready(). This makes the
// model-exchange round deterministic — peers aggregate same-iteration
// states instead of whatever the replica happened to hold — without ever
// blocking a pool thread or polling on a timer. The decentralized
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
  /// request argument is this server's current snapshot pointer (no copy).
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

  /// Install the deployment's wire codec (net/codec.h). Call once at
  /// build time, before the driving loops start. Gradient-class payloads
  /// this node serves (the contraction gossip) are compressed with the
  /// configured codec; state-class payloads (the model snapshot riding
  /// get_gradients requests, serve_model replies) degrade lossy codecs to
  /// int8 — a model missing most coordinates is not a model. Encoded
  /// ingress payloads are decoded — and Byzantine garbage rejected — in
  /// validate(). Default: identity.
  void set_codec(net::CodecSpec spec) { codec_ = net::Codec(spec); }

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
  /// pulling get_aggr_grads(tag, ...) park until it is published.
  void publish_aggr_grad(std::uint64_t tag, net::Payload grad)
      GARFIELD_EXCLUDES(mutex_);

  /// Publish "no contribution" for gossip tag `tag` (the round was
  /// skipped); peers receive a decline instead of waiting forever.
  void skip_aggr_grad(std::uint64_t tag) GARFIELD_EXCLUDES(mutex_);

  /// SGD step with an aggregated gradient (Equation (2)).
  void update_model(const net::Payload& aggregated_gradient);

  /// Overwrite the parameter vector (after model-GAR aggregation); the
  /// vector becomes the new snapshot without a copy.
  void write_model(net::Payload parameters);

  /// Top-1 accuracy of the current state on a test batch.
  [[nodiscard]] double compute_accuracy(const data::Batch& test);
  /// Mean loss of the current state on a test batch.
  [[nodiscard]] double compute_loss(const data::Batch& test);

  /// Copy of the current parameter vector.
  [[nodiscard]] net::Payload parameters() const;

  /// Current snapshot pointer (refcount bump, no copy).
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
  /// What get_model serves; ByzantineServer corrupts it.
  [[nodiscard]] virtual net::HandlerResult serve_model(
      const net::Request& req);
  [[nodiscard]] virtual net::HandlerResult serve_aggr_grad(
      const net::Request& req);
  /// What get_checkpoint serves: the live state as a digest-sealed blob
  /// (encode_checkpoint_blob + pack_bytes). ByzantineServer tampers with
  /// the blob *after* the digest is computed, which is exactly what the
  /// receiver's verify-before-decode rejects.
  [[nodiscard]] virtual net::HandlerResult serve_checkpoint(
      const net::Request& req);

  /// Consistent (parameters, velocity, step) triple under one lock hold —
  /// what serve_checkpoint seals into its blob.
  [[nodiscard]] Checkpoint current_checkpoint() const;

 private:
  /// One tagged publication (model or contracted gradient). A null payload
  /// on an aggr-grad entry marks a skipped round.
  struct TaggedEntry {
    std::uint64_t tag = 0;
    net::PayloadPtr payload;
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

  /// One cached wire encoding, keyed on the source payload's identity.
  /// The key is OWNING: holding the source alive is what makes pointer
  /// identity exact — a raw key would dangle once the snapshot/ring drops
  /// its reference, and the freed address can be reused by the very next
  /// published payload, silently serving a stale frame (real transports
  /// hold no extra reference to the argument bytes, so they hit this).
  struct EncodedFrame {
    net::PayloadPtr source;
    net::PayloadPtr encoded;
  };

  /// The current snapshot, state-encoded for the get_gradients request
  /// argument (identity codec: the snapshot itself). Cached per snapshot
  /// pointer; charges NetStats::bytes_saved once per destination.
  [[nodiscard]] net::PayloadPtr encoded_snapshot(std::size_t destinations);

  /// Compress an outbound handler reply. Wrapped around the *virtual*
  /// serve_model / serve_aggr_grad calls at handler-registration level, so
  /// ByzantineServer attacks operate on the plaintext payload and the
  /// corrupted result is encoded after — a Byzantine sender still speaks
  /// the wire format (attacks on the format itself live in the fuzz
  /// suite). `state_class` selects encode_state over encode_gradient.
  [[nodiscard]] net::HandlerResult encode_result(net::HandlerResult r,
                                                 bool state_class);

  /// Tagged lookup shared by serve_model / serve_aggr_grad: not_ready
  /// until `tag` is published, then the ring entry. Long-evicted tags are
  /// clamped to the oldest retained entry when `serve_oldest_on_eviction`
  /// (model pulls — staleness is tolerable) and declined otherwise
  /// (gossip pulls — a wrong round would corrupt the contraction).
  [[nodiscard]] net::HandlerResult serve_tagged(
      const std::deque<TaggedEntry>& ring, std::uint64_t tag,
      bool serve_oldest_on_eviction) const GARFIELD_REQUIRES(mutex_);

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

  /// Wire codec; immutable after set_codec (build time).
  net::Codec codec_;

  mutable util::Mutex mutex_;
  /// Outbound reply encodings (serve_model / serve_aggr_grad frames).
  std::deque<EncodedFrame> reply_cache_ GARFIELD_GUARDED_BY(mutex_);
  /// State-encoded get_gradients request arguments.
  std::deque<EncodedFrame> arg_cache_ GARFIELD_GUARDED_BY(mutex_);
  /// Error-feedback memory for the gossip (gradient-class) channel; the
  /// reply cache advances it once per distinct published gradient.
  tensor::FlatVector gossip_residual_ GARFIELD_GUARDED_BY(mutex_);
  /// Immutable snapshot, swapped on write.
  net::PayloadPtr params_ GARFIELD_GUARDED_BY(mutex_);
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
/// gracefully to their view-free behaviour.
class ByzantineServer final : public Server {
 public:
  /// The cohort-GAR specs are what the deployment aggregates this node's
  /// two reply channels with ("" when unknown) — adaptive attacks probe
  /// them through AttackContext::gar: `model_cohort_gar` (config's
  /// model_gar) covers serve_model, `aggr_cohort_gar` (config's
  /// gradient_gar) covers the contraction-gossip serve_aggr_grad, which
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
  net::HandlerResult serve_model(const net::Request& req) override;
  net::HandlerResult serve_aggr_grad(const net::Request& req) override;
  /// State-transfer tamper channel: when the mounted attack declares
  /// tampers_state_transfer() (corrupt_recovery), the served blob's
  /// iteration tag is flipped *after* the digest seal — a corruption the
  /// per-message CRC would miss but the whole-blob digest catches, so a
  /// recovering peer detects and rejects the transfer.
  net::HandlerResult serve_checkpoint(const net::Request& req) override;

 private:
  /// Corrupt a copy of the honest payload (attacks rewrite in place; the
  /// honest snapshot stays shared with everyone else). `cohort_gar` names
  /// the rule the pulling peers aggregate this channel with.
  [[nodiscard]] net::HandlerResult corrupt(const net::Payload& honest,
                                           std::uint64_t iteration,
                                           const std::string& cohort_gar);

  util::Mutex attack_mutex_;
  /// Stateful across rounds (alternating phase, adaptive_z intensity) and
  /// reachable from every pool thread serving this node's pulls.
  attacks::AttackPtr attack_ GARFIELD_GUARDED_BY(attack_mutex_);
  tensor::Rng rng_ GARFIELD_GUARDED_BY(attack_mutex_);
  std::size_t declared_n_;
  std::size_t declared_f_;
  std::string model_cohort_gar_;
  std::string aggr_cohort_gar_;
};

}  // namespace garfield::core
