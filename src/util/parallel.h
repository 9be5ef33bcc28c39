// Parallel execution backend for the row-partitioned hot loops.
//
// The numeric core (SpMM, propagation iterations, summarization, objective
// evaluation) is embarrassingly row-parallel. This header provides the one
// abstraction those kernels build on:
//
//   * ParallelFor(begin, end, fn)        — fn(i) for each i in [begin, end);
//   * ParallelForShards(begin, end, s, fn) — the range split into exactly `s`
//     contiguous shards, fn(shard_begin, shard_end, shard_index); callers use
//     this for reductions (one partial accumulator per shard, combined in
//     shard order so results are deterministic for a fixed thread count).
//
// Backend: one process-wide fork-join pool of std::threads (parallel.cc).
// The calling thread runs shards too, so a region takes up to
// min(NumThreads(), CPUs) threads. A region entered from inside another
// region, or while another thread holds the pool, runs its shards inline
// on the calling thread; the pool never nests and the count of live kernel
// threads stays bounded by the CPU count. The thread count is resolved per
// call site: SetNumThreads() wins, then the FGR_NUM_THREADS environment
// variable, then the CPUs this process may run on. Shard boundaries depend
// only on the range and the shard count, never on which thread runs a
// shard, so results are bit-identical for a fixed thread count, and with
// 1 thread every kernel runs its shards in order on the calling thread.

#ifndef FGR_UTIL_PARALLEL_H_
#define FGR_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace fgr {

// Overrides the worker-thread count for all subsequent parallel kernels.
// `threads` >= 1 pins the count; 0 restores automatic resolution
// (FGR_NUM_THREADS env var, else the CPUs this process may run on).
void SetNumThreads(int threads);

// The worker-thread count parallel kernels will use right now.
int NumThreads();

namespace internal {

// Caps the worker count so every worker gets at least `grain` iterations;
// returns 1 when parallelism is not worthwhile.
int ResolveWorkers(std::int64_t iterations, std::int64_t grain);

// A non-owning reference to a callable taking a shard index. It is two
// pointers, so handing a region to the pool allocates nothing; the callable
// must outlive the RunShards call it is passed to.
class ShardCallback {
 public:
  template <typename Fn>
  ShardCallback(const Fn& fn)  // NOLINT(google-explicit-constructor)
      : object_(&fn), invoke_([](const void* object, int shard) {
          (*static_cast<const Fn*>(object))(shard);
        }) {}

  void operator()(int shard) const { invoke_(object_, shard); }

 private:
  const void* object_;
  void (*invoke_)(const void* object, int shard);
};

// Runs body(s) for every s in [0, shards) and returns once all have
// finished, on the pool when the thread setting and the CPU count allow
// more than one participant, else in order on the calling thread. On the
// pool, the first exception a shard throws is rethrown on the calling
// thread after every shard has finished; inline, it propagates at once.
void RunShards(int shards, ShardCallback body);

}  // namespace internal

// Minimum iterations per worker before fanning out pays for itself. Row
// kernels touch O(degree · k) doubles per iteration, so a few hundred rows
// amortize the fork/join cost comfortably.
inline constexpr std::int64_t kDefaultGrain = 512;

// Splits [begin, end) into exactly `shards` contiguous, balanced,
// ascending-order shards and runs fn(shard_begin, shard_end, shard_index)
// for each, concurrently when possible. Shard boundaries depend only on the
// range and shard count, so per-shard partial results combined in shard
// order give deterministic totals for a fixed thread setting.
template <typename Fn>
void ParallelForShards(std::int64_t begin, std::int64_t end, int shards,
                       Fn&& fn) {
  const std::int64_t count = end - begin;
  if (count <= 0) return;
  FGR_CHECK_GE(shards, 1);
  if (shards > count) shards = static_cast<int>(count);
  const std::int64_t base = count / shards;
  const std::int64_t extra = count % shards;
  internal::RunShards(shards, [&](int s) {
    const std::int64_t lo =
        begin + s * base + std::min<std::int64_t>(s, extra);
    const std::int64_t hi = lo + base + (s < extra ? 1 : 0);
    fn(lo, hi, s);
  });
}

// Runs fn(i) for every i in [begin, end). Iterations must be independent;
// exceptions thrown by fn are rethrown on the calling thread (first wins).
template <typename Fn>
void ParallelFor(std::int64_t begin, std::int64_t end, Fn&& fn,
                 std::int64_t grain = kDefaultGrain) {
  ParallelForShards(begin, end, internal::ResolveWorkers(end - begin, grain),
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      for (std::int64_t i = lo; i < hi; ++i) fn(i);
                    });
}

// Number of shards ParallelForShards should use for a reduction over
// `iterations` items: the resolved worker count, grain-capped. Callers size
// their per-shard accumulators with this.
inline int NumShards(std::int64_t iterations,
                     std::int64_t grain = kDefaultGrain) {
  return internal::ResolveWorkers(iterations, grain);
}

// Splits the rows of a CSR-style prefix-sum array into at most `shards`
// contiguous ranges of approximately equal total weight. `prefix` has
// rows + 1 monotone entries (row r spans weight prefix[r+1] - prefix[r]);
// a CSR row_ptr is exactly this shape, making the split nnz-balanced where
// the plain count split is row-balanced — the difference between idle and
// busy workers on power-law degree sequences. Returns the shard boundaries
// (first 0, last rows, strictly increasing, size ≤ shards + 1); boundaries
// depend only on (prefix, shards), so per-shard reductions stay
// deterministic for a fixed thread setting.
std::vector<std::int64_t> ShardByWeight(const std::vector<std::int64_t>& prefix,
                                        int shards);

// Raw-span overload for CSR panel views: `prefix` points at rows + 1
// monotone entries that may carry an arbitrary base offset (a slice of a
// full row_ptr keeps its global values). Boundaries are relative to the
// slice (first 0, last rows), exactly as the vector overload returns them
// for a whole row_ptr.
std::vector<std::int64_t> ShardByWeight(const std::int64_t* prefix,
                                        std::int64_t rows, int shards);

// Runs fn(shard_begin, shard_end, shard_index) over explicit shard
// boundaries as produced by ShardByWeight (boundaries[s] to
// boundaries[s + 1] for each s), concurrently when possible.
template <typename Fn>
void ParallelForShards(const std::vector<std::int64_t>& boundaries, Fn&& fn) {
  const int shards = static_cast<int>(boundaries.size()) - 1;
  if (shards <= 0) return;
  internal::RunShards(shards, [&](int s) {
    fn(boundaries[static_cast<std::size_t>(s)],
       boundaries[static_cast<std::size_t>(s) + 1], s);
  });
}

}  // namespace fgr

#endif  // FGR_UTIL_PARALLEL_H_
