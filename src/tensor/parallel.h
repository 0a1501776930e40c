// Minimal data-parallel helper.
//
// The paper parallelizes GAR coordinate work across CPU cores (§4.3: "each
// of the m >= 1 available cores processes a continuous share of n/m
// coordinates"). parallel_for reproduces exactly that partitioning, both
// for coordinate shards (default grain) and for coarse work items such as
// the rows of a Krum distance matrix (grain = 1).
//
// Shard count. A call over n items cuts
//   shards = min(parallel_threads(), max(1, n / grain))
// contiguous shards of chunk = ceil(n / shards) items (the last one shorter;
// a shard the chunk size leaves empty is not run). parallel_threads()
// resolves, in order:
//   1. set_parallel_threads(n) process-wide override (n = 0 clears it);
//   2. the GARFIELD_THREADS environment variable (positive integer);
//   3. std::thread::hardware_concurrency(), at least 1.
// It sets the shard count, so it bounds how many threads work on one call.
// Shard boundaries depend only on (n, grain, shard count) and every shard
// writes disjoint output ranges, so results are bitwise identical for any
// thread count — GARFIELD_THREADS=1 is the reference serial run.
//
// Threads. A one-shard call runs inline on the caller. Otherwise the caller
// and up to shards-1 helper tasks on one process-wide util::ThreadPool
// (hardware_concurrency - 1 threads, built by the first multi-shard call)
// claim shard indices from a shared counter until none are left; the caller
// then blocks until every claimed shard has finished. Which thread runs a
// shard never changes its output.
//
// Concurrency and nesting. Any number of threads may call parallel_for at
// once, and a shard may itself call parallel_for: a caller only ever waits
// for shards that some thread is already running, never for a helper task
// still queued behind other work, so neither can deadlock. fn may throw:
// the caller waits for every other shard to finish, then rethrows the first
// exception.
#pragma once

#include <cstddef>
#include <type_traits>

namespace garfield::tensor {

/// A non-owning reference to a shard body, fn(begin, end). Binding one
/// copies nothing, so no call allocates for its body, however much it
/// captures (std::function would, past two captured words). parallel_for
/// returns only once no shard can still run, so a lambda passed to it
/// outlives every use.
class ShardFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ShardFn> &&
             std::is_invocable_v<const F&, std::size_t, std::size_t>)
  ShardFn(const F& fn)  // implicit: a lambda argument binds to it
      : fn_(&fn),
        call_([](const void* f, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(f))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const {
    call_(fn_, begin, end);
  }

 private:
  const void* fn_;
  void (*call_)(const void*, std::size_t, std::size_t);
};

/// Default minimum work per shard, in cheap (per-coordinate) items. Below
/// roughly this much work, handing a shard to another core (a pool wakeup,
/// cold caches on that core, the join) costs more than it saves.
/// Callers whose items are heavier scale it down by the per-item cost
/// (e.g. grain = kParallelForGrain / d for O(d) items).
inline constexpr std::size_t kParallelForGrain = 1 << 16;

/// Maximum shard count of one parallel_for call, which bounds the threads
/// working on it (see resolution order above; always >= 1).
[[nodiscard]] std::size_t parallel_threads();

/// Process-wide shard-count override; 0 restores the default
/// (GARFIELD_THREADS / hardware_concurrency). Used by benches to sweep
/// serial-vs-parallel on one process.
void set_parallel_threads(std::size_t n);

/// Run fn(begin, end) over contiguous shards of [0, n). `grain` is the
/// minimum number of items per shard: cheap per-item work keeps the default
/// (~64k items, below which threads cost more than they save); heavy items
/// (e.g. one O(d) distance computation each) pass grain = 1. Runs inline
/// when only one shard results; otherwise see "Threads" above.
void parallel_for(std::size_t n, std::size_t grain, ShardFn fn);

/// parallel_for with the default coordinate-work grain (~64k items).
void parallel_for(std::size_t n, ShardFn fn);

}  // namespace garfield::tensor
