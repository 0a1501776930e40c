// Smoke-mode support for the paper-figure benches.
//
// Every bench doubles as a CTest `bench-smoke` entry: when the
// GARFIELD_BENCH_SMOKE environment variable is set (the CMake harness sets
// it on the smoke_* tests), `smoke()` shrinks a training configuration to a
// seconds-scale run. Figure code therefore executes end-to-end on every
// `ctest` invocation and cannot silently rot, while manual runs without the
// variable still reproduce the full paper workloads.
#pragma once

#include <algorithm>
#include <cstdlib>

#include "core/config.h"

namespace garfield::bench {

/// True when this process should run a tiny smoke workload.
inline bool smoke_mode() {
  const char* v = std::getenv("GARFIELD_BENCH_SMOKE");
  return v != nullptr && *v != '\0' && *v != '0';
}

/// Identity in full mode; in smoke mode, a copy of cfg clamped to a few
/// iterations over a small dataset. Cluster shape, GARs and attacks are
/// untouched — the point is to exercise the exact code path, not the
/// statistics.
inline core::DeploymentConfig smoke(core::DeploymentConfig cfg) {
  if (!smoke_mode()) return cfg;
  cfg.iterations = std::min<std::size_t>(cfg.iterations, 6);
  // Keep at least one full batch per worker so sharding stays valid.
  const std::size_t floor_size = std::max<std::size_t>(
      cfg.nw * cfg.batch_size, 256);
  cfg.train_size = std::min(cfg.train_size, floor_size);
  cfg.test_size = std::min<std::size_t>(cfg.test_size, 128);
  if (cfg.eval_every) {
    cfg.eval_every = std::min(cfg.eval_every, cfg.iterations);
  }
  if (cfg.alignment_every) cfg.alignment_every = 2;
  if (cfg.checkpoint_every) cfg.checkpoint_every = 2;
  return cfg;
}

}  // namespace garfield::bench
