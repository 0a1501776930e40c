#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "attacks/registry.h"
#include "core/checkpoint.h"
#include "core/node_runner.h"
#include "core/round_plan.h"
#include "core/server.h"
#include "core/train_loop.h"
#include "core/worker.h"
#include "gars/gar.h"
#include "gars/registry.h"
#include "net/codec.h"
#include "net/wire.h"
#include "nn/zoo.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::core {

namespace {

using detail::is_decentralized;
using detail::Runtime;
using net::Payload;
using tensor::Rng;

/// Aggregate with the stage's rule sized to the actual row count.
/// Garfield builds the rule per call because asynchronous collection can
/// legally return any q in [n-f, n]; the rule object is a few words, while
/// all heavy scratch (distance matrix, work vectors) lives in the caller's
/// AggregationContext and is reused across iterations.
Payload aggregate(const Stage& stage, gars::Rows rows,
                  gars::AggregationContext& ctx) {
  assert(!rows.empty());
  const gars::GarPtr gar = gars::make_gar(stage.spec, rows.size(), stage.f);
  Payload out;
  gar->aggregate_into(rows, ctx, out);
  return out;
}

/// A stage's rows: views of the pulled payloads, which the caller keeps
/// alive through the aggregation. A node's own contribution, when the
/// stage has one, is pushed after them.
std::vector<gars::Row>& rows_of(const std::vector<net::PayloadPtr>& pulled,
                                std::vector<gars::Row>& rows) {
  rows.clear();
  for (const net::PayloadPtr& p : pulled) rows.emplace_back(*p);
  return rows;
}

/// Per-rank attack specs for a Byzantine cohort: expand the configured plan
/// over the f declared attackers (validated at config time; re-expanding
/// here keeps the builder independent of validate() being called first).
/// Returns an empty vector when no attack is mounted.
std::vector<attacks::AttackSpec> attack_cohort(const std::string& plan,
                                               std::size_t f) {
  if (plan.empty() || f == 0) return {};
  return attacks::parse_attack_plan(plan).expand(f);
}

bool spec_is_omniscient(const attacks::AttackSpec& spec) {
  return attacks::AttackRegistry::instance().at(spec.name).omniscient;
}

data::Dataset make_dataset(const DeploymentConfig& cfg,
                           const tensor::Shape& input_shape,
                           std::size_t classes, std::size_t n, Rng& rng) {
  if (cfg.dataset == "teacher")
    return data::make_teacher_dataset(input_shape, classes, n, rng);
  return data::make_cluster_dataset(input_shape, classes, n, rng,
                                    cfg.dataset_noise);
}

/// Byzantine-recovery state transfer — the live path the checkpoint
/// digest trailer exists for. The recovering replica pulls every live peer
/// server's sealed checkpoint blob over the get_checkpoint RPC, rejects
/// any blob that fails its whole-blob digest (a corrupt_recovery peer
/// tampering post-seal) or carries the wrong dimension, and adopts the
/// freshest surviving state: highest checkpoint iteration, ties broken
/// toward the lowest sender rank — a pure function of the verified reply
/// set, so the pick never depends on reply arrival order. Returns false
/// when no peer blob survives verification; the caller then falls back to
/// the durable local checkpoint.
bool recover_from_peers(Runtime& rt, Server& server, net::NodeId self,
                        std::uint64_t iteration) {
  const DeploymentConfig& cfg = rt.config;
  std::vector<net::NodeId> live;
  for (std::size_t p = 0; p < cfg.nps; ++p) {
    if (p != self && !rt.cluster->is_crashed(p)) live.push_back(p);
  }
  // This collect runs in the recovery hook, under the Cluster's lifecycle
  // mutex, and its caller runs its sends itself: a pull of its own node
  // would deliver over tcp's loopback edge, which advances the lifecycle
  // and takes that mutex again.
  assert(std::find(live.begin(), live.end(), self) == live.end());
  if (live.empty()) return false;
  std::vector<net::Reply> replies = rt.cluster->collect(
      self, live, kGetCheckpoint, iteration, nullptr, live.size(),
      std::chrono::seconds(10));
  const std::size_t dimension = server.dimension();
  std::optional<Checkpoint> best;
  net::NodeId best_from = 0;
  for (net::Reply& r : replies) {
    if (!r.payload) continue;
    Checkpoint ckpt;
    try {
      ckpt = decode_checkpoint_blob(
          unpack_bytes(*r.payload,
                       "state transfer from server " + std::to_string(r.from)),
          "state transfer from server " + std::to_string(r.from));
    } catch (const std::exception&) {
      // Digest (or carrier) verification rejected the blob before any
      // field was decoded: drop this peer's offer, keep the honest ones.
      rt.state_transfer_rejects.fetch_add(1);
      continue;
    }
    if (ckpt.parameters.size() != dimension) {
      rt.state_transfer_rejects.fetch_add(1);
      continue;
    }
    if (!best || ckpt.iteration > best->iteration ||
        (ckpt.iteration == best->iteration && r.from < best_from)) {
      best_from = r.from;
      best = std::move(ckpt);
    }
  }
  if (!best) return false;
  server.write_model(std::move(best->parameters));
  if (!best->velocity.empty()) {
    server.restore_optimizer_velocity(best->velocity);
  }
  rt.state_transfers.fetch_add(1);
  return true;
}

/// Drive the churn schedule at the top of a loop iteration and park this
/// node's loop while the schedule has it down. Returns the iteration the
/// loop should run (>= it, jumping over a crash window the node slept
/// through), or nullopt when the loop should exit instead: the run
/// aborted, the node never recovers inside the configured horizon, or the
/// recovery wait timed out (a schedule nobody left alive can drive).
std::optional<std::size_t> churn_gate(Runtime& rt, net::NodeId node,
                                      std::size_t it) {
  if (rt.abort.load()) return std::nullopt;
  if (!rt.conditions.has_churn()) return it;
  rt.cluster->advance_lifecycle(it);
  if (!rt.cluster->is_crashed(node)) return it;
  // A faster peer may have driven the schedule past this node's crash edge
  // while its own loop still lags behind it: look for the up-edge after
  // the first scheduled down iteration, not after `it`.
  std::uint64_t down = it;
  while (down < rt.config.iterations && !rt.conditions.churn_down(node, down))
    ++down;
  const std::optional<std::uint64_t> up =
      rt.conditions.next_up_iteration(node, down);
  if (!up || *up >= rt.config.iterations) return std::nullopt;
  // Park until live peers drive the schedule past the up-edge. Waiting in
  // short slices keeps the park responsive to a concurrent abort, and the
  // overall deadline guards undrivable schedules.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!rt.abort.load()) {
    const std::optional<std::uint64_t> resumed =
        rt.cluster->wait_until_running(node, std::chrono::milliseconds(50));
    if (resumed) return std::size_t(*resumed);
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
  }
  return std::nullopt;
}

/// End the run: record `reason` (the first one wins) and flip the abort
/// flag. Every loop exits at its next gate, and harvest() rethrows the
/// reason once they have joined.
void abort_run(Runtime& rt, const std::string& reason) {
  {
    util::MutexLock lock(rt.abort_mutex);
    if (rt.abort_reason.empty()) rt.abort_reason = reason;
  }
  rt.abort.store(true);
}

/// The scheduled-availability floor check: at iteration `it` the churn
/// schedule must keep at least `stage.min_n` of the stage's span up, or the
/// GAR's (n, f) resilience bound is void. Checked against the *schedule*
/// rather than observed replies, so every loop trips it at the same
/// iteration and the whole run aborts deterministically.
bool churn_floor_holds(Runtime& rt, const Stage& stage, std::size_t it) {
  if (!rt.conditions.has_churn()) return true;
  const std::size_t down = rt.conditions.count_down(stage.lo, stage.hi, it);
  const std::size_t up = stage.hi - stage.lo - down;
  if (up >= stage.min_n) return true;
  abort_run(rt,
            "churn schedule drops " + std::string(stage.span) +
                " availability to " + std::to_string(up) +
                " node(s) at iteration " + std::to_string(it) +
                ", below the '" + stage.spec.name +
                "' GAR resilience floor min_n=" + std::to_string(stage.min_n) +
                " — aborting instead of aggregating below the (n, f) bound");
  return false;
}

/// Persist the reporting replica's state on the configured cadence.
void maybe_checkpoint(Runtime& rt, std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.checkpoint_every == 0 || cfg.checkpoint_path.empty()) return;
  if ((it + 1) % cfg.checkpoint_every != 0 && it + 1 != cfg.iterations)
    return;
  const Server& server = *rt.servers[rt.reporter];
  save_checkpoint(cfg.checkpoint_path,
                  Checkpoint{it + 1, server.parameters(),
                             server.optimizer_velocity()});
}

void maybe_eval(Runtime& rt, std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.eval_every == 0) return;
  if (it % cfg.eval_every != 0 && it + 1 != cfg.iterations) return;
  Server& s = *rt.servers[rt.reporter];
  EvalPoint p;
  p.iteration = it;
  p.accuracy = s.compute_accuracy(rt.test);
  p.loss = s.compute_loss(rt.test);
  rt.curve.push_back(p);
}

/// Table-2 probe: pairwise parameter differences across correct replicas,
/// keep the two of largest norm, report the cosine of their angle.
void maybe_alignment(Runtime& rt, std::size_t correct_servers,
                     std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.alignment_every == 0 || it % cfg.alignment_every != 0) return;
  if (correct_servers < 3) return;  // need >= 2 difference vectors
  std::vector<Payload> params;
  params.reserve(correct_servers);
  for (std::size_t s = 0; s < correct_servers; ++s)
    params.push_back(rt.servers[s]->parameters());
  struct Diff {
    double norm;
    Payload vec;
  };
  std::vector<Diff> diffs;
  for (std::size_t a = 0; a < params.size(); ++a) {
    for (std::size_t b = a + 1; b < params.size(); ++b) {
      Payload d(params[a].size());
      tensor::subtract(params[a], params[b], d);
      diffs.push_back({tensor::norm(d), std::move(d)});
    }
  }
  std::partial_sort(diffs.begin(), diffs.begin() + 2, diffs.end(),
                    [](const Diff& x, const Diff& y) {
                      return x.norm > y.norm;
                    });
  AlignmentSample sample;
  sample.iteration = it;
  sample.max_diff1 = diffs[0].norm;
  sample.max_diff2 = diffs[1].norm;
  // A difference vector's sign is an artifact of pair ordering (a-b vs
  // b-a); alignment is about the angle between the *lines*, so report the
  // magnitude of the cosine.
  sample.cos_phi = std::abs(tensor::cosine(diffs[0].vec, diffs[1].vec));
  util::MutexLock lock(rt.alignment_mutex);
  rt.alignment.push_back(sample);
}

}  // namespace

namespace detail {

std::size_t reporting_replica(const DeploymentConfig& cfg) {
  const net::NetworkConditions conditions =
      net::NetworkConditions::parse(cfg.network);
  const std::size_t f = is_decentralized(cfg) ? cfg.fw : cfg.fps;
  const std::uint64_t last = cfg.iterations > 0 ? cfg.iterations - 1 : 0;
  for (std::size_t r = 0; r + f < driver_count(cfg); ++r) {
    if (!conditions.churn_down(r, last)) return r;
  }
  return 0;
}

void build_runtime(Runtime& rt) {
  const DeploymentConfig& cfg = rt.config;
  const bool decentralized = is_decentralized(cfg);
  Rng root(cfg.seed);
  Rng model_rng = root.fork(1);  // same weights on every replica
  Rng data_rng = root.fork(2);

  auto proto = nn::make_model(cfg.model, model_rng);
  const tensor::Shape input_shape = proto->input_shape();
  const std::size_t classes = proto->num_classes();

  // Draw train and test from one generator call so they share the same
  // prototypes/teacher, then split.
  data::Dataset full = make_dataset(cfg, input_shape, classes,
                                    cfg.train_size + cfg.test_size, data_rng);
  auto [train, test_set] = full.split(cfg.train_size);
  rt.test = test_set.all();
  std::vector<data::Dataset> shards =
      cfg.non_iid ? data::shard_by_class(train, cfg.nw)
                  : data::shard_iid(train, cfg.nw, data_rng);

  net::Cluster::Options net_opts;
  net_opts.nodes = cfg.total_nodes();
  net_opts.pool_threads = cfg.pool_threads;
  net_opts.conditions = net::NetworkConditions::parse(cfg.network);
  // One codec for the whole cluster (mixed-codec clusters are not a thing:
  // the spec is part of the deployment config every process shares).
  net_opts.codec = net::CodecSpec::parse(cfg.codec);
  // Fault verdicts and jitter hash on the cluster seed, so the per-shape
  // constants are part of every run's trajectory.
  net_opts.seed = cfg.seed ^ (decentralized ? 0xc2u : 0xc1u);
  net_opts.transport = rt.transport;  // null => in-process backend
  rt.conditions = net_opts.conditions;
  rt.cluster = std::make_unique<net::Cluster>(net_opts);
  rt.reporter = reporting_replica(cfg);

  // The roster. Parameter-server deployments: replicas [0, nps), workers
  // [nps, nps + nw). Decentralized: nw peers, each a Server and a Worker
  // on the same id. Byzantine cohorts are the last f of each role; a
  // decentralized peer's server half follows the worker plan unless
  // server_attack names its own, and the two halves corrupt independently.
  const std::size_t replicas = driver_count(cfg);
  const std::size_t fs = decentralized ? cfg.fw : cfg.fps;
  const std::size_t first_worker = decentralized ? 0 : cfg.nps;
  std::vector<net::NodeId> worker_ids;
  for (std::size_t w = 0; w < cfg.nw; ++w)
    worker_ids.push_back(first_worker + w);

  const std::vector<attacks::AttackSpec> server_specs = attack_cohort(
      decentralized && cfg.server_attack.empty() ? cfg.worker_attack
                                                 : cfg.server_attack,
      fs);
  for (std::size_t s = 0; s < replicas; ++s) {
    Rng replica_rng = root.fork(1);  // identical initial replicas
    nn::ModelPtr model = nn::make_model(cfg.model, replica_rng);
    std::vector<net::NodeId> peers;
    for (net::NodeId other = 0; other < replicas; ++other)
      if (other != s) peers.push_back(other);
    if (!server_specs.empty() && s >= replicas - fs) {
      rt.servers.push_back(std::make_unique<ByzantineServer>(
          s, *rt.cluster, std::move(model), cfg.optimizer, worker_ids,
          std::move(peers),
          attacks::make_attack(server_specs[s - (replicas - fs)]),
          root.fork(100 + s), replicas, fs, cfg.model_gar, cfg.gradient_gar));
    } else {
      rt.servers.push_back(std::make_unique<Server>(
          s, *rt.cluster, std::move(model), cfg.optimizer, worker_ids,
          std::move(peers)));
    }
  }

  const std::vector<attacks::AttackSpec> worker_specs =
      attack_cohort(cfg.worker_attack, cfg.fw);
  for (std::size_t w = 0; w < cfg.nw; ++w) {
    Rng replica_rng = root.fork(1);
    nn::ModelPtr model = nn::make_model(cfg.model, replica_rng);
    const net::NodeId id = first_worker + w;
    if (!worker_specs.empty() && w >= cfg.nw - cfg.fw) {
      const attacks::AttackSpec& spec = worker_specs[w - (cfg.nw - cfg.fw)];
      rt.workers.push_back(std::make_unique<ByzantineWorker>(
          id, *rt.cluster, std::move(model), std::move(shards[w]),
          cfg.batch_size, root.fork(200 + w), attacks::make_attack(spec),
          cfg.worker_momentum, spec_is_omniscient(spec), cfg.nw, cfg.fw,
          cfg.gradient_gar, first_worker, first_worker + cfg.nw));
    } else {
      rt.workers.push_back(std::make_unique<Worker>(
          id, *rt.cluster, std::move(model), std::move(shards[w]),
          cfg.batch_size, root.fork(200 + w), cfg.worker_momentum));
    }
  }
  // Synchronous model exchanges are step-tagged: every replica publishes
  // its snapshot for iteration t and peers pull exactly t, so the model-GAR
  // aggregates same-iteration states (deterministic) instead of whatever a
  // racing replica held. Asynchronous MSMW keeps untagged live-state
  // serving — its whole point is aggregating whatever is available *now*
  // rather than waiting on stragglers.
  if (decentralized ||
      (cfg.deployment == Deployment::kMsmw && !cfg.asynchronous)) {
    for (auto& server : rt.servers) server->enable_step_tagged_serving();
  }
}

/// Wire the churn schedule's recovery path: when advance_lifecycle brings
/// a node back up, the hook re-registers its RPC handlers and transfers
/// state. Parameter-server nodes split by id: servers [0, nps) rejoin and
/// restore the last durable checkpoint; workers [nps, nps + nw) just
/// rejoin (their shard is their state). Decentralized peers rejoin both
/// halves and re-sync through the step-tagged model exchange instead — the
/// next write_model folds the live peers' aggregated state in.
void register_recovery_hooks(Runtime& rt,
                             std::optional<net::NodeId> only_node) {
  if (!rt.conditions.has_churn()) return;
  const DeploymentConfig& cfg = rt.config;
  const auto wanted = [only_node](net::NodeId node) {
    return !only_node || *only_node == node;
  };
  if (is_decentralized(cfg)) {
    for (std::size_t i = 0; i < rt.servers.size(); ++i) {
      if (!wanted(i)) continue;
      Server* server = rt.servers[i].get();
      Worker* worker = rt.workers[i].get();
      rt.cluster->set_recovery_handler(i, [server, worker](std::uint64_t) {
        server->rejoin();
        worker->rejoin();
      });
    }
    return;
  }
  for (std::size_t s = 0; s < cfg.nps; ++s) {
    if (!wanted(s)) continue;
    Server* server = rt.servers[s].get();
    rt.cluster->set_recovery_handler(s, [&rt, server, s](std::uint64_t it) {
      server->rejoin();
      // State transfer, freshest source first: live peer replicas serve
      // their sealed checkpoint blobs (digest-verified on receipt, so a
      // tampering peer is rejected, not trained on), and only when no
      // verified peer blob arrives does the replica fall back to the
      // durable local checkpoint (config validation requires checkpointing
      // whenever a schedule recovers a server). An unreadable checkpoint —
      // none written yet, or torn — leaves the stale pre-crash state in
      // place; the model exchange pulls the replica forward from there.
      if (recover_from_peers(rt, *server, s, it)) return;
      if (rt.config.checkpoint_path.empty()) return;
      try {
        const Checkpoint ckpt = load_checkpoint(rt.config.checkpoint_path);
        server->write_model(ckpt.parameters);
        if (!ckpt.velocity.empty()) {
          server->restore_optimizer_velocity(ckpt.velocity);
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (std::size_t w = 0; w < cfg.nw; ++w) {
    Worker* worker = rt.workers[w].get();
    rt.cluster->set_recovery_handler(cfg.nps + w, [worker](std::uint64_t) {
      worker->rejoin();
    });
  }
}

void resume_replicas(Runtime& rt) {
  const std::string& path = rt.config.resume_from;
  if (path.empty()) return;
  const Checkpoint ckpt = load_checkpoint(path);
  // A checkpoint of another model fails here, before any loop starts, and
  // says which file — not later, inside the first evaluation.
  const std::size_t dimension = rt.servers.front()->dimension();
  if (ckpt.parameters.size() != dimension) {
    throw std::runtime_error(
        "resume_from '" + path + "' holds " +
        std::to_string(ckpt.parameters.size()) + " parameters, but model '" +
        rt.config.model + "' has " + std::to_string(dimension));
  }
  for (auto& server : rt.servers) {
    server->write_model(ckpt.parameters);
    // A resumed momentum run continues with the exact saved velocity.
    if (!ckpt.velocity.empty()) {
      server->restore_optimizer_velocity(ckpt.velocity);
    }
  }
}

void run_loop(Runtime& rt, std::size_t s) {
  const DeploymentConfig& cfg = rt.config;
  const RoundPlan plan = plan_round(cfg);
  Server& server = *rt.servers[s];
  const bool reporter = s == rt.reporter;
  gars::AggregationContext& ctx = server.aggregation_context();
  std::vector<gars::Row> rows;  // reused by every stage of every iteration
  // Gossip tags encode (iteration, contraction round) in one integer so
  // both the publisher and the puller of a contract() round agree on what
  // "round r of iteration t" means.
  const auto gossip_tag = [&plan](std::size_t it, std::size_t r) {
    return std::uint64_t(it) * std::uint64_t(plan.gossip_rounds) +
           std::uint64_t(r);
  };
  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    const std::optional<std::size_t> next = churn_gate(rt, s, it);
    if (!next) return;
    it = *next;
    if (!churn_floor_holds(rt, plan.grad, it) ||
        (plan.model && !churn_floor_holds(rt, *plan.model, it)))
      return;
    const std::vector<net::PayloadPtr> grads =
        server.get_gradients(it, plan.grad.awaited);
    if (reporter) rt.reporting_gradient_counts.push_back(grads.size());
    std::size_t gossiped = 0;
    if (grads.size() >= plan.grad.min_n) {
      Payload aggr = aggregate(plan.grad, rows_of(grads, rows), ctx);
      // contract(): multi-round gossip forcing correct nodes together.
      // Listing 3 enables it for non-iid data; it is keyed on the step
      // count here so the ablation can isolate its effect.
      while (gossiped < plan.gossip_rounds) {
        const std::uint64_t tag = gossip_tag(it, gossiped++);
        server.publish_aggr_grad(tag, aggr);
        const std::vector<net::PayloadPtr> peer_grads =
            server.get_aggr_grads(tag, plan.grad.awaited - 1, it);
        rows_of(peer_grads, rows).emplace_back(aggr);
        if (rows.size() < plan.grad.min_n) break;
        aggr = aggregate(plan.grad, rows, ctx);
      }
      server.update_model(aggr);
    }
    // A skipped step must not wedge the peers: every round not gossiped
    // publishes an explicit "no contribution" marker, so their tagged pulls
    // resolve instead of waiting into their deadline.
    for (std::size_t r = gossiped; r < plan.gossip_rounds; ++r)
      server.skip_aggr_grad(gossip_tag(it, r));
    if (plan.model) {
      // Publish this replica's state for iteration `it`, then pull the
      // peers' same-iteration states; a peer that has not reached `it` yet
      // answers not-ready and the pull parks until its publication — no
      // loop thread ever blocks on a slow replica.
      server.publish_model(it);
      const std::vector<net::PayloadPtr> models =
          server.get_models(it, plan.model->awaited);
      const net::PayloadPtr own = server.snapshot();
      rows_of(models, rows).emplace_back(*own);
      if (rows.size() >= plan.model->min_n) {
        server.write_model(aggregate(*plan.model, rows, ctx));
      }
    }
    if (reporter) {
      maybe_eval(rt, it);
      maybe_alignment(rt, plan.aligned, it);
      maybe_checkpoint(rt, it);
    }
  }
}

TrainResult harvest(Runtime& rt) {
  if (rt.abort.load()) {
    util::MutexLock lock(rt.abort_mutex);
    throw std::runtime_error(rt.abort_reason);
  }

  TrainResult result;
  result.iterations_run = rt.config.iterations;
  result.reporting_gradient_counts = std::move(rt.reporting_gradient_counts);
  result.net_stats = rt.cluster->stats();
  result.state_transfers = rt.state_transfers.load();
  result.state_transfer_rejects = rt.state_transfer_rejects.load();
  for (const auto& server : rt.servers) {
    result.rejected_payloads += server->rejected_payloads();
  }
  for (const auto& worker : rt.workers) {
    result.gradients_served += worker->gradients_served();
    result.gradients_computed += worker->gradients_computed();
  }
  {
    // Loops are joined; the lock is for the analysis (and costs nothing).
    util::MutexLock lock(rt.alignment_mutex);
    result.alignment = std::move(rt.alignment);
  }
  // Everything below is the reporting replica's: its curve, and its final
  // model bit-exact — the cross-backend parity probe (a TCP run of a sync
  // deployment must reproduce the in-process model down to the last
  // float).
  Server& reporter = *rt.servers[rt.reporter];
  result.curve = std::move(rt.curve);
  if (!result.curve.empty()) {
    result.final_accuracy = result.curve.back().accuracy;
    result.final_loss = result.curve.back().loss;
  } else {
    result.final_accuracy = reporter.compute_accuracy(rt.test);
    result.final_loss = reporter.compute_loss(rt.test);
  }
  result.final_parameters = reporter.parameters();
  return result;
}

}  // namespace detail

TrainResult train(const DeploymentConfig& config) {
  config.validate();
  // The TCP backend spreads the deployment over one OS process per node;
  // everything below this dispatch is the single-process path.
  if (config.transport == "tcp") return detail::train_multiprocess(config);

  detail::Runtime rt;
  rt.config = config;
  detail::build_runtime(rt);
  detail::register_recovery_hooks(rt);
  detail::resume_replicas(rt);

  // Spawn one driving thread per server replica / peer. Byzantine servers
  // run the same loop (their lies live in their RPC handlers).
  std::vector<std::thread> threads;
  const std::size_t loops = rt.servers.size();
  threads.reserve(loops);
  for (std::size_t s = 0; s < loops; ++s) {
    threads.emplace_back([&rt, s] {
      // A loop that throws (a checkpoint write that fails, say) ends the
      // run, not the process: harvest() rethrows its reason. Every loop's
      // node goes down with it — the failed loop will not publish again,
      // nor will the others once they reach their abort gate — so pulls
      // parked on a publication resolve silent at once instead of at
      // their collect deadline.
      try {
        detail::run_loop(rt, s);
      } catch (const std::exception& e) {
        abort_run(rt, e.what());
        for (net::NodeId node = 0; node < rt.servers.size(); ++node) {
          rt.cluster->crash(node);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  return detail::harvest(rt);
}

}  // namespace garfield::core
