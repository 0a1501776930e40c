// Figure 3 — GAR micro-benchmark (measured, not simulated).
//
// Reproduces both panels on this machine's CPU implementation of the GARs:
//   Fig 3a: aggregation time vs n (number of inputs), fixed d.
//   Fig 3b: aggregation time vs d (input dimension), fixed n = 17.
// As in the paper, f = floor((n-3)/4) for all Byzantine-resilient GARs, so
// the smallest n is 7. The paper's d = 1e7 runs on two 1080 Ti GPUs; we
// sweep to d = 1e7 on the CPU (expect the same ordering and growth shapes,
// scaled by hardware: Average ~ Median < Multi-Krum ~ MDA < Bulyan, all
// linear in d, Krum-family quadratic in n).
//
// A third section ("fig3c") tracks the §4.3 multi-core claim: each rule is
// timed through the aggregate_into hot path at 1 / 2 / max threads
// (set_parallel_threads) and the serial-vs-parallel speedup is printed, so
// the coordinate-sharding scaling is a recorded number, not an assumption.
//
// A fourth section ("fig3d") times aggregate_into at the GAR shapes of the
// repository benchmark's workloads (garfield_bench/), with 1 caller and
// with 4 concurrent callers, the way the 4 servers of an MSMW deployment
// aggregate at once. Its header names the distance-tile path the host
// picked. A serial table follows (set_parallel_threads(1), one caller):
// aggregate_into on that path, and the Krum family's distance matrix alone
// on every path the host can run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "gars/gar.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace {

using garfield::tensor::FlatVector;

std::vector<FlatVector> make_inputs(std::size_t n, std::size_t d) {
  garfield::tensor::Rng rng(1234);
  std::vector<FlatVector> inputs(n, FlatVector(d));
  for (auto& v : inputs) {
    for (float& x : v) x = rng.normal();
  }
  return inputs;
}

void run_gar(benchmark::State& state, const std::string& name) {
  const std::size_t n = std::size_t(state.range(0));
  const std::size_t d = std::size_t(state.range(1));
  const std::size_t f = (n - 3) / 4;  // the paper's setting
  const auto inputs = make_inputs(n, d);
  const auto gar = garfield::gars::make_gar(
      name, n, name == "average" ? 0 : f);
  garfield::gars::AggregationContext ctx;
  FlatVector out;
  for (auto _ : state) {
    gar->aggregate_into(inputs, ctx, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["n"] = double(n);
  state.counters["d"] = double(d);
  state.counters["f"] = double(f);
}

void register_all() {
  const std::vector<std::string> gars = {"average", "median", "multi_krum",
                                         "mda", "bulyan"};
  // Smoke mode (ctest bench-smoke): one tiny point per GAR and panel so the
  // registration + aggregation path runs in milliseconds.
  if (garfield::bench::smoke_mode()) {
    for (const auto& g : gars) {
      for (const char* panel : {"fig3a/", "fig3b/"}) {
        benchmark::RegisterBenchmark(
            (panel + g).c_str(),
            [g](benchmark::State& s) { run_gar(s, g); })
            ->Args({7, 1'000})
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
    return;
  }
  // Fig 3a: n sweep at fixed d (paper: d = 1e7; scaled to 1e6 to keep the
  // CPU sweep minutes, the n-shape is unchanged).
  for (const auto& g : gars) {
    for (std::size_t n = 7; n <= 23; n += 2) {
      benchmark::RegisterBenchmark(
          ("fig3a/" + g).c_str(),
          [g](benchmark::State& s) { run_gar(s, g); })
          ->Args({long(n), 1'000'000})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(2);
    }
  }
  // Fig 3b: d sweep at fixed n = 17.
  for (const auto& g : gars) {
    for (long d : {10'000L, 100'000L, 1'000'000L, 10'000'000L}) {
      benchmark::RegisterBenchmark(
          ("fig3b/" + g).c_str(),
          [g](benchmark::State& s) { run_gar(s, g); })
          ->Args({17, d})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(d >= 10'000'000 ? 1 : 2);
    }
  }
}

// Fig 3c: serial-vs-parallel scaling of the aggregate_into hot path. Times
// each rule at 1 / 2 / max threads on one reused AggregationContext and
// prints the speedup over the 1-thread run — the §4.3 scaling claim as a
// tracked number. Smoke mode shrinks d so the sweep stays in milliseconds.
void thread_scaling_report() {
  namespace gt = garfield::tensor;
  using clock = std::chrono::steady_clock;

  const bool smoke = garfield::bench::smoke_mode();
  const std::size_t n = 17;
  const std::size_t f = (n - 3) / 4;
  const std::size_t d = smoke ? 200'000 : 10'000'000;
  const int reps = smoke ? 1 : 3;
  const auto inputs = make_inputs(n, d);

  // Always sweep 2 threads — even on a single-core host this drives the
  // sharded code path (expect ~1.0x there; the speedup column only means
  // something when hardware threads > 1).
  std::vector<std::size_t> thread_counts = {1, 2};
  const std::size_t max_threads = gt::parallel_threads();
  if (max_threads > 2) thread_counts.push_back(max_threads);

  std::printf(
      "\nfig3c/thread_scaling: aggregate_into, n=%zu d=%zu f=%zu "
      "(hardware threads: %zu)\n",
      n, d, f, max_threads);
  std::printf("%-14s %9s %12s %9s\n", "gar", "threads", "time_ms",
              "speedup");
  for (const auto& g : {std::string("average"), std::string("median"),
                        std::string("trimmed_mean"), std::string("krum"),
                        std::string("multi_krum"), std::string("bulyan")}) {
    const auto gar =
        garfield::gars::make_gar(g, n, g == "average" ? 0 : f);
    garfield::gars::AggregationContext ctx;
    FlatVector out;
    double serial_ms = 0.0;
    for (const std::size_t threads : thread_counts) {
      gt::set_parallel_threads(threads);
      gar->aggregate_into(inputs, ctx, out);  // warm-up + buffer growth
      double best_ms = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        const auto begin = clock::now();
        gar->aggregate_into(inputs, ctx, out);
        const auto end = clock::now();
        best_ms = std::min(
            best_ms,
            std::chrono::duration<double, std::milli>(end - begin).count());
      }
      if (threads == 1) serial_ms = best_ms;
      std::printf("%-14s %9zu %12.3f %8.2fx\n", g.c_str(), threads, best_ms,
                  serial_ms / best_ms);
      benchmark::DoNotOptimize(out.data());
    }
    gt::set_parallel_threads(0);
  }
}

using clock = std::chrono::steady_clock;

/// Median us of `calls` calls of fn after `warmup` untimed ones.
template <class Fn>
double median_call_us(int warmup, int calls, Fn&& fn) {
  for (int k = 0; k < warmup; ++k) fn();
  std::vector<double> us;
  for (int k = 0; k < calls; ++k) {
    const auto begin = clock::now();
    fn();
    us.push_back(
        std::chrono::duration<double, std::micro>(clock::now() - begin)
            .count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// Fig 3d: aggregate_into µs at the benchmark workloads' GAR shapes. Each
// caller owns its rule, context and output and shares the inputs; it runs
// `warmup` calls, then times `calls` more. The table prints the median and
// quartiles over all callers' timed calls. Smoke mode shrinks d and the
// call count.
void workload_shapes_report() {
  namespace gt = garfield::tensor;
  struct Shape {
    const char* gar;
    std::size_t n, f, d;
    const char* use;
  };
  const Shape shapes[] = {
      {"multi_krum", 8, 1, 17226, "msmw-mlp gradients"},
      {"multi_krum", 8, 1, 72042, "ssmw-cnn gradients"},
      {"multi_krum", 9, 2, 874, "ssmw-byz gradients"},
      {"multi_krum", 8, 0, 874, "dec-mlp gradients"},
      {"median", 4, 1, 17226, "msmw-mlp models"},
      {"median", 8, 0, 874, "dec-mlp models"},
  };
  const bool smoke = garfield::bench::smoke_mode();
  const int warmup = smoke ? 1 : 20;
  const int calls = smoke ? 3 : 300;

  std::printf(
      "\nfig3d/workload_shapes: aggregate_into us, median and quartiles of "
      "%d calls per caller after %d warm-up calls (hardware threads: %u; "
      "distance tile path %s)\n",
      calls, warmup, std::thread::hardware_concurrency(),
      gt::detail::path_name(gt::detail::simd_path()));
  std::printf("%-11s %3s %3s %7s %8s %10s %10s %10s  %s\n", "gar", "n", "f",
              "d", "callers", "median_us", "q1_us", "q3_us", "shape of");
  for (const Shape& shape : shapes) {
    const std::size_t d = smoke ? std::min<std::size_t>(shape.d, 1000)
                                : shape.d;
    const auto inputs = make_inputs(shape.n, d);
    for (const int callers : {1, 4}) {
      std::vector<std::vector<double>> us(static_cast<std::size_t>(callers));
      std::latch start(callers);
      std::vector<std::thread> threads;
      for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
          const auto gar = garfield::gars::make_gar(shape.gar, shape.n,
                                                    shape.f);
          garfield::gars::AggregationContext ctx;
          FlatVector out;
          start.arrive_and_wait();
          for (int k = 0; k < warmup; ++k)
            gar->aggregate_into(inputs, ctx, out);
          for (int k = 0; k < calls; ++k) {
            const auto begin = clock::now();
            gar->aggregate_into(inputs, ctx, out);
            us[std::size_t(c)].push_back(
                std::chrono::duration<double, std::micro>(clock::now() -
                                                          begin)
                    .count());
          }
          benchmark::DoNotOptimize(out.data());
        });
      }
      for (std::thread& t : threads) t.join();
      std::vector<double> all;
      for (const auto& v : us) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      const auto at = [&](double q) {
        return all[std::size_t(q * double(all.size() - 1) + 0.5)];
      };
      std::printf("%-11s %3zu %3zu %7zu %8d %10.1f %10.1f %10.1f  %s\n",
                  shape.gar, shape.n, shape.f, d, callers, at(0.5), at(0.25),
                  at(0.75), shape.use);
    }
  }

  std::vector<gt::detail::SimdPath> paths;
  for (const auto path : {gt::detail::SimdPath::baseline,
                          gt::detail::SimdPath::avx2}) {
    if (gt::detail::can_run(path)) paths.push_back(path);
  }
  std::printf(
      "\nfig3d/serial: one caller at set_parallel_threads(1), median us of "
      "%d calls after %d warm-up calls:\naggregate_into on the picked path "
      "(%s), and the distance matrix alone on each path\n",
      calls, warmup, gt::detail::path_name(gt::detail::simd_path()));
  std::printf("%-11s %3s %3s %7s %10s", "gar", "n", "f", "d", "agg_us");
  for (const auto path : paths)
    std::printf(" %11s_us", gt::detail::path_name(path));
  std::printf("\n");
  gt::set_parallel_threads(1);
  for (const Shape& shape : shapes) {
    const std::size_t d = smoke ? std::min<std::size_t>(shape.d, 1000)
                                : shape.d;
    const auto inputs = make_inputs(shape.n, d);
    const auto gar = garfield::gars::make_gar(shape.gar, shape.n, shape.f);
    garfield::gars::AggregationContext ctx;
    FlatVector out;
    std::printf("%-11s %3zu %3zu %7zu %10.1f", shape.gar, shape.n, shape.f, d,
                median_call_us(warmup, calls, [&] {
                  gar->aggregate_into(inputs, ctx, out);
                }));
    benchmark::DoNotOptimize(out.data());
    const std::vector<std::span<const float>> rows(inputs.begin(),
                                                   inputs.end());
    std::vector<double> matrix(shape.n * shape.n);
    for (const auto path : paths) {
      if (std::string(shape.gar) != "multi_krum") {
        std::printf(" %14s", "-");
        continue;
      }
      std::printf(" %14.1f", median_call_us(warmup, calls, [&] {
                    gt::detail::squared_distance_matrix(rows, matrix, path);
                    benchmark::DoNotOptimize(matrix.data());
                    benchmark::ClobberMemory();
                  }));
    }
    std::printf("\n");
  }
  gt::set_parallel_threads(0);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  thread_scaling_report();
  workload_shapes_report();
  return 0;
}
