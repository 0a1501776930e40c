// bench_garfield — the end-to-end and per-layer benchmark of the Garfield
// runtime. One workload per process:
//
//   bench_garfield --workload W [--seed S] [--seconds T] [--trace 0|1]
//                  [--work-dir DIR]
//
// --trace 0 measures what a user of the runtime sees. It is a closed loop
// that runs one core::train() at a time: an untimed warm-up run of N
// iterations, then, until T seconds have passed, pairs of a 1-iteration run
// and an N-iteration run, all with eval_every=0. Set-up is the 1-iteration
// run's wall time; iterations per second come from the difference of the
// pair, so set-up never pollutes throughput.
//
// --trace 1 measures the layers. One end-to-end run gives the workload's
// per-iteration counters; the per-iteration mix of calls is then replayed
// for T seconds through the public functions of each layer the workload
// uses, with a span around every call, and the spans are written as Chrome
// trace-event JSON (opens in Perfetto).
//
// Every run checks its outputs: every repeat ends on the same final-parameter
// digest and runs exactly N iterations, and the warm-up reaches the
// workload's accuracy floor. GARFIELD_BENCH_SMOKE=1 shrinks each workload
// the way every figure bench does (bench/bench_support.h), runs one repeat,
// replays for at most a second and drops the accuracy floor.
//
// Progress goes to stderr. The last stdout line is one JSON object with
// every metric's raw values; run.py turns it into the benchmark result.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "bench_support.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/train_loop.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "gars/gar.h"
#include "net/cluster.h"
#include "net/codec.h"
#include "net/wire.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "tensor/rng.h"

namespace {

namespace gc = garfield::core;
namespace gn = garfield::net;
using Clock = std::chrono::steady_clock;

using garfield::bench::smoke_mode;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  gc::DeploymentConfig cfg;  ///< cfg.iterations is the timed run length N
  double min_accuracy = 0.0;  ///< floor the warm-up run must reach
};

/// The four workloads. Each stresses a different layer (see README.md):
/// ssmw-cnn nn, msmw-mlp gars and model exchange, dec-mlp all-to-all
/// in-process dispatch, ssmw-byz dispatch, attacks and codec. All use sync
/// quorums, so a run is bitwise deterministic in its seed. The MLP
/// workloads test on 4096 samples, which keeps the test-set sampling noise
/// of final_accuracy near 1%.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  gc::DeploymentConfig c;
  c.train_size = 4096;
  c.test_size = 4096;
  c.batch_size = 16;
  c.eval_every = 0;
  c.seed = seed;
  c.gradient_gar = "multi_krum";
  c.model_gar = "median";
  Workload w;
  w.name = name;
  if (name == "ssmw-cnn") {
    c.deployment = gc::Deployment::kSsmw;
    c.model = "cifarnet";
    c.dataset = "cluster";
    // 256: the final evaluation is single-threaded and memory-bound, and at
    // 512 samples it was half of setup_s and most of its run-to-run noise.
    c.test_size = 256;
    c.nw = 8;
    c.fw = 1;
    // 160, not fewer: at 80 iterations about one seed in ten is still
    // converging (accuracy 0.51-0.73 against 0.99 for the rest).
    c.iterations = 160;
    w.min_accuracy = 0.60;
  } else if (name == "msmw-mlp") {
    c.deployment = gc::Deployment::kMsmw;
    c.model = "small_mlp";
    c.dataset = "cluster";
    c.nps = 4;
    c.fps = 1;
    c.nw = 8;
    c.fw = 1;
    c.iterations = 500;
    w.min_accuracy = 0.90;
  } else if (name == "dec-mlp") {
    // fw=0: decentralized fastest-quorum selection depends on timing for
    // fw > 0, which would break the same-digest check across repeats.
    c.deployment = gc::Deployment::kDecentralized;
    c.model = "tiny_mlp";
    c.dataset = "cluster";
    c.nw = 8;
    c.fw = 0;
    c.iterations = 1000;
    w.min_accuracy = 0.80;
  } else if (name == "ssmw-byz") {
    c.deployment = gc::Deployment::kSsmw;
    c.model = "tiny_mlp";
    c.dataset = "teacher";
    c.nw = 9;
    c.fw = 2;
    c.worker_attack = "little_is_enough";
    c.codec = "topk:k=0.1";
    c.iterations = 2000;
    w.min_accuracy = 0.65;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (ssmw-cnn, msmw-mlp, dec-mlp, ssmw-byz)");
  }
  w.cfg = garfield::bench::smoke(c);
  w.cfg.validate();
  return w;
}

// ------------------------------------------------------- host sampling

/// Aggregate CPU ticks from /proc/stat; steal is the 8th counter.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double read_load1() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

/// User + system CPU of this process and of every child it has reaped.
double cpu_seconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += double(u.ru_utime.tv_sec) + double(u.ru_stime.tv_sec) +
             1e-6 * double(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  }
  return total;
}

/// This process's peak resident set so far, from VmHWM.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (in >> key) {
    if (key == "VmHWM:") {
      in >> kib;
      break;
    }
  }
  return kib / 1024.0;
}

std::uint32_t digest(const gn::Payload& p) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(p.data());
  return gn::crc32(
      std::span<const std::uint8_t>(bytes, p.size() * sizeof(float)));
}

// ------------------------------------------------------------- timing

/// Fewest /proc/stat ticks over which a steal share is measured.
constexpr std::uint64_t kMinTicks = 100;

/// Wall clock, self+children CPU and host state of one run.
struct RunTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal = 0.0;  ///< host steal share over the run, from /proc/stat
  double load1 = 0.0;
};

struct Timed {
  gc::TrainResult result;
  RunTiming timing;
};

Timed time_train(const gc::DeploymentConfig& cfg) {
  const CpuTicks t0 = read_cpu_ticks();
  const double c0 = cpu_seconds();
  const auto start = Clock::now();
  Timed out;
  out.result = gc::train(cfg);
  out.timing.wall_s = seconds_since(start);
  out.timing.cpu_s = cpu_seconds() - c0;
  const CpuTicks t1 = read_cpu_ticks();
  // Below 100 ticks one steal tick reads as several percent (a 20 ms run on
  // 4 cores spans ~8 ticks), so short runs are never counted as disturbed.
  if (t1.total >= t0.total + kMinTicks) {
    out.timing.steal =
        double(t1.steal - t0.steal) / double(t1.total - t0.total);
  }
  out.timing.load1 = read_load1();
  return out;
}

/// A repeat whose host steal share exceeds this is rerun once; if the rerun
/// is disturbed too, it is kept and counted as disturbed.
constexpr double kStealLimit = 0.05;

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> values;
  /// Tail metrics: the percentile level reported and the sample count.
  double level = 0.0;
  std::size_t samples = 0;
};

/// Everything one invocation reports.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t disturbed = 0;
  std::vector<Check> checks;
  std::vector<Metric> metrics;
  std::vector<RunTiming> repeats;  ///< the timed N-iteration runs

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(),
                          detail.c_str());
  }
  void add(std::string name, std::string unit, std::vector<double> values) {
    metrics.push_back({std::move(name), std::move(unit), std::move(values)});
  }
};

/// Run one deployment, check its output, and account for it. Returns
/// nullopt (counted as failed) when it throws, runs short, or ends on a
/// final-parameter digest other than `expected`. Host steal above the
/// limit reruns it once.
std::optional<Timed> attempt(Report& report, const gc::DeploymentConfig& cfg,
                             const std::string& what,
                             std::optional<std::uint32_t> expected) {
  ++report.attempted;
  try {
    Timed t = time_train(cfg);
    if (t.timing.steal > kStealLimit) {
      t = time_train(cfg);
      if (t.timing.steal > kStealLimit) ++report.disturbed;
    }
    std::string problem;
    if (t.result.iterations_run != cfg.iterations) {
      problem = "ran " + std::to_string(t.result.iterations_run) + " of " +
                std::to_string(cfg.iterations) + " iterations";
    } else if (expected && digest(t.result.final_parameters) != *expected) {
      problem = "final-parameter digest differs from the first run";
    }
    if (problem.empty()) return t;
    report.check(what, false, problem);
  } catch (const std::exception& e) {
    report.check(what, false, e.what());
  }
  ++report.failed;
  return std::nullopt;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------- end to end

void measure_end_to_end(const Workload& w, double seconds, Report& report) {
  const gc::DeploymentConfig& cfg = w.cfg;
  const std::size_t n = cfg.iterations;

  // Warm-up: one untimed full run. Its digest is the reference every later
  // N-iteration run must reproduce, and it must learn: the attack and the
  // GARs may not keep accuracy under the workload's floor.
  std::fprintf(stderr, "%s: warm-up (%zu iterations)\n", w.name.c_str(), n);
  const std::optional<Timed> warm = attempt(report, cfg, "warm-up", std::nullopt);
  if (!warm) return;
  const std::uint32_t reference = digest(warm->result.final_parameters);
  // Peak memory of one N-iteration train() in a fresh process. Later runs
  // would read more: the heap fragments as the process ages, by up to 20%
  // on msmw-mlp after a few repeats.
  const double warm_rss_mb = peak_rss_mb();
  if (!smoke_mode()) {
    report.check("accuracy_floor",
                 warm->result.final_accuracy >= w.min_accuracy,
                 "accuracy " + std::to_string(warm->result.final_accuracy) +
                     " after " + std::to_string(n) + " iterations, floor " +
                     std::to_string(w.min_accuracy));
  }

  gc::DeploymentConfig one = cfg;
  one.iterations = 1;
  std::optional<std::uint32_t> one_digest;
  std::vector<double> setup_wall, setup_cpu;
  const auto run_one = [&] {
    const std::optional<Timed> t =
        attempt(report, one, "1-iteration run", one_digest);
    if (!t) return;
    one_digest = digest(t->result.final_parameters);
    setup_wall.push_back(t->timing.wall_s);
    setup_cpu.push_back(t->timing.cpu_s);
  };
  // Extra set-up samples up front: setup_s is a median of several set-ups
  // even when only a few N-iteration repeats fit in the run.
  for (int i = 0; i < 4; ++i) run_one();

  const std::size_t min_repeats = smoke_mode() ? 1 : 3;
  const auto start = Clock::now();
  while ((report.repeats.size() < min_repeats ||
          seconds_since(start) < seconds) &&
         seconds_since(start) < 4 * seconds) {
    run_one();
    const std::optional<Timed> t = attempt(report, cfg, "repeat", reference);
    if (!t) continue;
    std::fprintf(stderr, "%s: repeat %zu %.3f s (steal %.3f, load1 %.2f)\n",
                 w.name.c_str(), report.repeats.size() + 1, t->timing.wall_s,
                 t->timing.steal, t->timing.load1);
    report.repeats.push_back(t->timing);
  }
  if (report.repeats.empty() || setup_wall.empty()) return;

  const double t1 = median(setup_wall);
  const double c1 = median(setup_cpu);
  const double steps = double(n > 1 ? n - 1 : 1);
  std::vector<double> its, cpu_ms;
  for (const RunTiming& r : report.repeats) {
    its.push_back(steps / std::max(r.wall_s - t1, 1e-9));
    cpu_ms.push_back(1e3 * (r.cpu_s - c1) / steps);
  }
  report.add("its_per_s", "1/s", its);
  report.add("setup_s", "s", setup_wall);
  // Every repeat ended on the warm-up's digest, so on its accuracy too.
  report.add("final_accuracy", "ratio", {warm->result.final_accuracy});
  report.add("cpu_ms_per_it", "ms", cpu_ms);
  report.add("peak_rss_mb", "MB", {warm_rss_mb});
}

// ------------------------------------------------------------ tracing

enum Layer : std::size_t {
  kBatch,
  kGrad,
  kStep,
  kGarGrad,
  kGarModel,
  kCraft,
  kEncode,
  kDecode,
  kCollect,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "data.batch",       "nn.grad",          "nn.step",
    "gars.grad",        "gars.model",       "attacks.craft",
    "net.codec.encode", "net.codec.decode", "net.cluster.collect"};

/// In-memory spans, written out once at the end of the run. Every span's
/// duration feeds the layer statistics; the trace file keeps the first
/// kMaxSpans so it stays a size Perfetto opens quickly.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 100000;

  template <class Body>
  void span(Layer layer, std::uint64_t iteration, Body&& body) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    const double dur_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    samples_[layer].push_back(dur_us);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(
          {layer, iteration,
           std::chrono::duration<double, std::micro>(t0 - origin_).count(),
           dur_us});
    }
  }

  [[nodiscard]] const std::vector<double>& samples(Layer layer) const {
    return samples_[layer];
  }

  /// Chrome trace-event JSON: one complete ("X") event per span.
  void write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                 "{\"workload\": \"%s\", \"spans_dropped\": %zu},\n"
                 "\"traceEvents\": [\n"
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"args\": {\"name\": \"bench_garfield %s replay\"}}",
                 workload.c_str(), total() - spans_.size(), workload.c_str());
    for (const Span& s : spans_) {
      const std::string name = kLayerNames[s.layer];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"iteration\": %llu}}",
                   name.c_str(), name.substr(0, name.rfind('.')).c_str(),
                   s.start_us, s.dur_us, (unsigned long long)s.iteration);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    Layer layer;
    std::uint64_t iteration;
    double start_us;
    double dur_us;
  };

  [[nodiscard]] std::size_t total() const {
    std::size_t n = 0;
    for (const auto& s : samples_) n += s.size();
    return n;
  }

  Clock::time_point origin_ = Clock::now();
  std::array<std::vector<double>, kLayerCount> samples_;
  std::vector<Span> spans_;
};

/// Calls per training iteration of each replayed function, derived from
/// the end-to-end run's counters and the deployment shape. A layer off the
/// workload's path has 0 calls and is not replayed.
struct Mix {
  std::array<double, kLayerCount> calls{};
  double rpcs = 0.0;
  double bytes = 0.0;
  double saved_frac = 0.0;

  [[nodiscard]] bool uses(Layer layer) const { return calls[layer] > 0.0; }
};

Mix mix_from(const gc::DeploymentConfig& cfg, const gc::TrainResult& r) {
  const double n = double(cfg.iterations);
  const bool dec = cfg.deployment == gc::Deployment::kDecentralized;
  const bool msmw = cfg.deployment == gc::Deployment::kMsmw;
  const double drivers = double(gc::detail::driver_count(cfg));
  const gn::NetStats& s = r.net_stats;
  Mix m;
  m.calls[kBatch] = m.calls[kGrad] = double(r.gradients_computed) / n;
  m.calls[kStep] = drivers;
  m.calls[kGarGrad] = drivers;
  m.calls[kGarModel] = dec || msmw ? drivers : 0.0;
  const double served = double(r.gradients_served) / n;
  m.calls[kCraft] = cfg.worker_attack.empty()
                        ? 0.0
                        : served * double(cfg.fw) / double(cfg.nw);
  // Every served gradient is encoded by its worker and decoded by its server.
  const bool codec = !gn::CodecSpec::parse(cfg.codec).identity();
  m.calls[kEncode] = m.calls[kDecode] = codec ? served : 0.0;
  // One gradient pull per driving loop, plus one model pull where models are
  // exchanged.
  m.calls[kCollect] = drivers * (dec || msmw ? 2.0 : 1.0);
  m.rpcs = double(s.requests_sent) / n;
  m.bytes = double(s.bytes_sent) / n;
  const double plain = double(s.bytes_sent + s.bytes_saved);
  m.saved_frac = plain > 0 ? double(s.bytes_saved) / plain : 0.0;
  return m;
}

/// A handler that answers every request with the same precomputed payload,
/// so a collect times the in-process dispatch and nothing else.
gn::Handler echo(gn::PayloadPtr reply) {
  return [reply = std::move(reply)](const gn::Request&) {
    return gn::HandlerResult::reply(reply);
  };
}

/// The workload's per-iteration call mix, replayed single-threaded through
/// the public functions of the layers the workload uses, on the workload's
/// own model, data, GARs, attack and codec.
class Replay {
 public:
  Replay(const gc::DeploymentConfig& cfg, const Mix& mix)
      : cfg_(cfg),
        mix_(mix),
        root_(cfg.seed),
        model_(make_model()),
        shard_(make_shard()),
        sampler_(shard_, cfg.batch_size, root_.fork(200)),
        optimizer_(cfg.optimizer),
        attack_rng_(root_.fork(300)),
        codec_(gn::CodecSpec::parse(cfg.codec)) {
    const bool dec = cfg.deployment == gc::Deployment::kDecentralized;
    params_ = model_->parameters();
    const std::size_t d = params_.size();
    // Sync quorums: every worker's gradient, or n - f peers decentralized.
    const std::size_t grad_inputs = dec ? cfg.nw - cfg.fw : cfg.nw;
    const std::size_t model_inputs = dec ? grad_inputs : cfg.nps;
    grad_gar_ = garfield::gars::make_gar(cfg.gradient_gar, grad_inputs, cfg.fw);
    grads_.assign(grad_inputs, gn::Payload(d, 0.0F));
    if (mix.uses(kGarModel)) {
      model_gar_ = garfield::gars::make_gar(cfg.model_gar, model_inputs,
                                            dec ? cfg.fw : cfg.fps);
      models_.assign(model_inputs, params_);
    }
    if (mix.uses(kCraft)) {
      attack_ = garfield::attacks::make_attack(cfg.worker_attack);
    }

    // Pull shape: node 0 pulls from the workers (parameter server) or from
    // every peer including itself (decentralized).
    const std::size_t nodes = cfg.total_nodes();
    for (std::size_t p = dec ? 0 : cfg.nps; p < nodes; ++p) peers_.push_back(p);
    auto reply = std::make_shared<const gn::Payload>(d, 0.5F);
    gn::Cluster::Options o;
    o.nodes = nodes;
    o.pool_threads = cfg.pool_threads;
    echo_ = std::make_unique<gn::Cluster>(o);
    for (gn::NodeId p : peers_) echo_->register_handler(p, "echo", echo(reply));
  }
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  void iteration(std::uint64_t it, Tracer& tr) {
    const std::size_t d = params_.size();
    const std::size_t grads = reps(kGrad);
    for (std::size_t k = 0; k < grads; ++k) {
      garfield::data::Batch batch;
      tr.span(kBatch, it, [&] { batch = sampler_.batch_for(it * grads + k); });
      garfield::nn::GradientResult g;
      tr.span(kGrad, it,
              [&] { g = model_->gradient(batch.inputs, batch.labels); });
      grads_[k % grads_.size()] = std::move(g.gradient);
    }
    const std::size_t f = std::min(cfg_.fw, grads_.size() - 1);
    const std::size_t honest = grads_.size() - f;
    for (std::size_t k = 0; k < reps(kCraft); ++k) {
      std::optional<gn::Payload> crafted;
      tr.span(kCraft, it, [&] {
        garfield::attacks::AttackContext ctx(attack_rng_);
        ctx.iteration = it;
        ctx.attacker_id = honest + k % f;
        ctx.n = grads_.size();
        ctx.f = f;
        ctx.honest = std::span<const gn::Payload>(grads_.data(), honest);
        ctx.gar = cfg_.gradient_gar;
        crafted = attack_->craft(grads_[honest - 1], ctx);
      });
      if (crafted) grads_[honest + k % f] = std::move(*crafted);
    }
    for (std::size_t k = 0; k < reps(kEncode); ++k) {
      gn::Payload encoded;
      tr.span(kEncode, it, [&] {
        encoded = codec_.encode_gradient(grads_[k % grads_.size()], &residual_);
      });
      std::optional<gn::Payload> decoded;
      tr.span(kDecode, it, [&] { decoded = codec_.decode(encoded, d); });
      if (!decoded) throw std::runtime_error("codec round trip failed");
    }
    for (std::size_t k = 0; k < reps(kGarGrad); ++k) {
      tr.span(kGarGrad, it,
              [&] { grad_gar_->aggregate_into(grads_, ctx_, aggregate_); });
    }
    for (std::size_t k = 0; k < reps(kStep); ++k) {
      tr.span(kStep, it, [&] { optimizer_.step(params_, aggregate_, it); });
    }
    model_->set_parameters(params_);
    for (gn::Payload& m : models_) m = params_;
    for (std::size_t k = 0; k < reps(kGarModel); ++k) {
      tr.span(kGarModel, it,
              [&] { model_gar_->aggregate_into(models_, ctx_, aggregate_); });
    }
    const auto argument = std::make_shared<const gn::Payload>(params_);
    for (std::size_t k = 0; k < reps(kCollect); ++k) {
      tr.span(kCollect, it, [&] {
        const std::vector<gn::Reply> replies =
            echo_->collect(0, peers_, "echo", it, argument, peers_.size());
        if (replies.size() != peers_.size()) {
          throw std::runtime_error("collect returned a short quorum");
        }
      });
    }
  }

 private:
  /// Replayed calls of `layer` per iteration: the workload's mix, rounded,
  /// and at least one for every layer the workload uses.
  [[nodiscard]] std::size_t reps(Layer layer) const {
    if (!mix_.uses(layer)) return 0;
    return std::max<std::size_t>(1,
                                 std::size_t(std::lround(mix_.calls[layer])));
  }

  garfield::nn::ModelPtr make_model() {
    garfield::tensor::Rng model_rng = root_.fork(1);
    return garfield::nn::make_model(cfg_.model, model_rng);
  }

  /// Worker 0's shard, drawn the way the trainer draws it.
  garfield::data::Dataset make_shard() {
    garfield::tensor::Rng data_rng = root_.fork(2);
    const std::size_t total = cfg_.train_size + cfg_.test_size;
    garfield::data::Dataset full =
        cfg_.dataset == "teacher"
            ? garfield::data::make_teacher_dataset(model_->input_shape(),
                                                   model_->num_classes(), total,
                                                   data_rng)
            : garfield::data::make_cluster_dataset(
                  model_->input_shape(), model_->num_classes(), total,
                  data_rng, cfg_.dataset_noise);
    const garfield::data::Dataset train = full.split(cfg_.train_size).first;
    return garfield::data::shard_iid(train, cfg_.nw, data_rng).front();
  }

  gc::DeploymentConfig cfg_;
  Mix mix_;
  garfield::tensor::Rng root_;
  garfield::nn::ModelPtr model_;
  garfield::data::Dataset shard_;
  garfield::data::BatchSampler sampler_;  // holds a pointer to shard_
  garfield::nn::SgdOptimizer optimizer_;
  garfield::tensor::Rng attack_rng_;
  gn::Codec codec_;
  gn::Payload params_;
  gn::Payload aggregate_;
  gn::Payload residual_;
  std::vector<gn::Payload> grads_;
  std::vector<gn::Payload> models_;
  garfield::gars::GarPtr grad_gar_;
  garfield::gars::GarPtr model_gar_;
  garfield::gars::AggregationContext ctx_;
  garfield::attacks::AttackPtr attack_;
  std::vector<gn::NodeId> peers_;
  std::unique_ptr<gn::Cluster> echo_;
};

/// The median, and the highest of p99.99 ... p75 with at least ten samples
/// beyond it (the median itself below forty samples).
struct Percentiles {
  double p50 = 0.0;
  double tail = 0.0;
  double level = 0.5;
};

Percentiles percentiles(std::vector<double> v) {
  Percentiles p;
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[std::min(v.size() - 1, std::size_t(q * double(v.size())))];
  };
  p.p50 = at(0.5);
  p.tail = p.p50;
  for (double level : {0.9999, 0.999, 0.99, 0.9, 0.75}) {
    if (double(v.size()) * (1.0 - level) >= 10.0) {
      p.tail = at(level);
      p.level = level;
      break;
    }
  }
  return p;
}

void measure_layers(const Workload& w, double seconds,
                    const std::string& work_dir, Report& report) {
  const gc::DeploymentConfig& cfg = w.cfg;
  gc::DeploymentConfig one = cfg;
  one.iterations = 1;
  std::fprintf(stderr, "%s: counters run (%zu iterations)\n", w.name.c_str(),
               cfg.iterations);
  const std::optional<Timed> t1 =
      attempt(report, one, "1-iteration run", std::nullopt);
  const std::optional<Timed> tn =
      attempt(report, cfg, "counters run", std::nullopt);
  if (!t1 || !tn) return;
  const double cpu_ms_per_it =
      1e3 * (tn->timing.cpu_s - t1->timing.cpu_s) /
      double(std::max<std::size_t>(1, cfg.iterations - 1));
  const Mix mix = mix_from(cfg, tn->result);

  std::fprintf(stderr, "%s: replaying the per-iteration mix for %.1f s\n",
               w.name.c_str(), seconds);
  Tracer tracer;
  std::uint64_t iterations = 0;
  try {
    Replay replay(cfg, mix);
    const auto start = Clock::now();
    const double budget = smoke_mode() ? std::min(seconds, 1.0) : seconds;
    while (iterations < 3 || seconds_since(start) < budget) {
      replay.iteration(iterations++, tracer);
    }
  } catch (const std::exception& e) {
    report.check("replay", false, e.what());
    ++report.failed;
    return;
  }
  const std::string trace_path = work_dir + "/BENCH_trace_" + w.name + ".json";
  tracer.write(trace_path, w.name);
  std::fprintf(stderr, "%s: %llu replayed iterations, trace in %s\n",
               w.name.c_str(), (unsigned long long)iterations,
               trace_path.c_str());

  double traced_ms = 0.0;
  std::array<Percentiles, kLayerCount> pct;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    pct[l] = percentiles(tracer.samples(Layer(l)));
    traced_ms += mix.calls[l] * pct[l].p50 / 1e3;
  }
  // Only the layers on the workload's path get a latency metric.
  const auto latency = [&](const std::string& name, Layer l, bool tail) {
    if (!mix.uses(l)) return;
    report.add(name + (tail ? ".p50" : ""), "us", {pct[l].p50});
    report.metrics.back().samples = tracer.samples(l).size();
    if (!tail) return;
    report.add(name + ".tail", "us", {pct[l].tail});
    report.metrics.back().level = pct[l].level;
    report.metrics.back().samples = tracer.samples(l).size();
  };
  latency("nn.grad_us", kGrad, true);
  latency("nn.step_us", kStep, false);
  report.add("nn.grads_per_it", "count", {mix.calls[kGrad]});
  latency("data.batch_us", kBatch, false);
  latency("gars.grad_us", kGarGrad, true);
  latency("gars.model_us", kGarModel, true);
  latency("attacks.craft_us", kCraft, false);
  latency("net.codec.encode_us", kEncode, false);
  latency("net.codec.decode_us", kDecode, false);
  if (mix.uses(kEncode)) {
    report.add("net.codec.saved_frac", "ratio", {mix.saved_frac});
  }
  latency("net.cluster.collect_us", kCollect, true);
  report.add("net.cluster.rpcs_per_it", "count", {mix.rpcs});
  report.add("net.cluster.bytes_per_it", "bytes", {mix.bytes});
  report.add("core.traced_frac", "ratio", {traced_ms / cpu_ms_per_it});
}

// ------------------------------------------------------------ output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Workload& w, std::uint64_t seed, bool trace,
                        const Report& r) {
  bool correct = r.failed == 0;
  for (const Check& c : r.checks) correct = correct && c.ok;
  const gc::DeploymentConfig& cfg = w.cfg;
  std::string s = "{\"workload\": " + json_string(w.name) +
                  ", \"seed\": " + std::to_string(seed) +
                  ", \"trace\": " + (trace ? "true" : "false") +
                  ", \"smoke\": " + (smoke_mode() ? "true" : "false") +
                  ", \"correct\": " + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"disturbed\": " + std::to_string(r.disturbed);
  s += ", \"config\": {\"iterations\": " + std::to_string(cfg.iterations) +
       ", \"min_accuracy\": " + json_number(w.min_accuracy) +
       ", \"text\": " + json_string(gc::format_config(cfg)) + "}";
  s += ", \"host\": {\"nproc\": " +
       std::to_string(std::thread::hardware_concurrency()) +
       ", \"compiler\": " + json_string(__VERSION__) +
       ", \"build_type\": " + json_string(GARFIELD_BENCH_BUILD_TYPE) + "}";
  s += ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    s += std::string(i ? ", " : "") + "{\"name\": " + json_string(c.name) +
         ", \"ok\": " + (c.ok ? "true" : "false") +
         ", \"detail\": " + json_string(c.detail) + "}";
  }
  s += "], \"repeats\": [";
  for (std::size_t i = 0; i < r.repeats.size(); ++i) {
    const RunTiming& t = r.repeats[i];
    s += std::string(i ? ", " : "") + "{\"wall_s\": " + json_number(t.wall_s) +
         ", \"cpu_s\": " + json_number(t.cpu_s) +
         ", \"steal\": " + json_number(t.steal) +
         ", \"load1\": " + json_number(t.load1) + "}";
  }
  s += "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += std::string(i ? ", " : "") + json_string(m.name) +
         ": {\"unit\": " + json_string(m.unit) + ", \"values\": [";
    for (std::size_t k = 0; k < m.values.size(); ++k) {
      s += std::string(k ? ", " : "") + json_number(m.values[k]);
    }
    s += "]";
    if (m.samples > 0) s += ", \"samples\": " + std::to_string(m.samples);
    if (m.level > 0) s += ", \"level\": " + json_number(m.level);
    s += "}";
  }
  return s + "}}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag '" + key + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload, args.seed);
    Report report;
    if (args.trace) {
      measure_layers(w, args.seconds, args.work_dir, report);
    } else {
      measure_end_to_end(w, args.seconds, report);
    }
    std::printf("%s\n", result_json(w, args.seed, args.trace, report).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_garfield: %s\n", e.what());
    return 2;
  }
}
