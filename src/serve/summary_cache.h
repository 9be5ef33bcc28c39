// Per-dataset summarization-statistics cache with a persisted .fgrsum
// sidecar.
//
// The paper's factorization splits estimation into an O(m·k·ℓmax) graph
// pass (the M(ℓ) path statistics) and an O(k³·ℓmax) optimization that never
// touches the graph again. For a serving daemon the split is the whole
// game: M(ℓ) depends only on the dataset bytes (graph + its seed labels),
// the path type, and ℓ — not on the request's restarts/λ/normalization — so
// one summarization serves every later estimate query at k-scale cost.
// M(ℓ) is also a prefix-stable sequence (M(1..ℓ) is the same whether the
// recurrence stops at ℓ or ℓmax), so a summary computed at ℓmax answers any
// request with lmax ≤ ℓmax.
//
// SummaryCache keys summaries on the .fgrbin content hash (FNV-1a 64 of the
// file bytes): rewriting a dataset in place invalidates both the in-memory
// entry and the sidecar. Misses fall through memory → the ".fgrsum" sidecar
// next to the cache → a caller-supplied compute callback (the server runs
// SummarizePanels over the mapped view, or over a streamed panel source
// when the dataset exceeds the residency budget), and fresh computations are
// persisted back so the next daemon start skips the graph pass entirely.
//
// The cache also memoizes ρ(W), the spectral radius LinBP scales ε by, on
// the same identity: W is a function of the file bytes alone, so one
// Lanczos run serves every later label of that content. ρ lives in memory
// only; it is never written to the sidecar.
//
// .fgrsum layout (little-endian, fixed-width):
//   offset  size  field
//   0       8     magic "fgrsum02"
//   8       4     endianness check 0x01020304
//   12      4     path_type (1 = non-backtracking, 2 = full paths)
//   16      8     content hash of the summarized .fgrbin (FNV-1a 64)
//   24      8     num_nodes n (sanity echo)
//   32      4     k (classes)
//   36      4     max_length ℓmax
//   40      8     checksum: FNV-1a 64 of the whole file, this field zeroed
//   48      —     m_raw: ℓmax matrices of k×k doubles, row-major, ℓ = 1..ℓmax
//
// The doubles are the exact bits the summarizer produced, so statistics
// loaded from the sidecar reproduce the original estimate bit for bit. A
// file whose checksum, length or magic (an "fgrsum01" file predates the
// checksum) does not match is rejected, which the cache treats as a miss.

#ifndef FGR_SERVE_SUMMARY_CACHE_H_
#define FGR_SERVE_SUMMARY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/path_stats.h"
#include "serve/keyed_state.h"
#include "util/status.h"

namespace fgr {

inline constexpr char kFgrSumExtension[] = ".fgrsum";

// A dataset's cached raw path statistics.
struct DatasetSummary {
  PathType path_type = PathType::kNonBacktracking;
  int max_length = 0;
  std::int64_t num_nodes = 0;
  std::int32_t num_classes = 0;
  std::uint64_t content_hash = 0;
  std::vector<DenseMatrix> m_raw;  // m_raw[ℓ-1] = M(ℓ), k×k
  double seconds = 0.0;            // wall clock of the original graph pass
};

// The sidecar lives next to the cache it summarizes:
// "<fgrbin_path>.fgrsum" for the default non-backtracking statistics,
// "<fgrbin_path>.full.fgrsum" for full-path statistics — separate files so
// alternating nb/full queries never clobber each other's summaries.
std::string FgrSumPathFor(const std::string& fgrbin_path,
                          PathType path_type = PathType::kNonBacktracking);

// Writes atomically (temp file, fsync, rename), so a reader or a crash
// mid-write can never observe a half-written sidecar.
Status WriteFgrSum(const DatasetSummary& summary, const std::string& path);

// Reads and validates a sidecar (magic and version, endianness, k/ℓmax
// bounds, exact file length, checksum). Content-hash matching is the
// caller's decision — ReadFgrSum reports what the file claims.
Result<DatasetSummary> ReadFgrSum(const std::string& path);

// The first `max_length` matrices of `summary` as a GraphStatistics with
// the requested normalization — exactly what ComputeGraphStatistics would
// have returned (same m_raw bits, same NormalizeStatistics), with
// `seconds` = 0 because the graph pass was skipped.
GraphStatistics StatisticsFromSummary(const DatasetSummary& summary,
                                      int max_length,
                                      NormalizationVariant variant);

// Where a summary (or a memoized ρ(W), which is never kDisk) came from,
// reported per request and counted in aggregate (the serve-e2e CI job
// asserts the second query is kMemory).
enum class SummarySource { kMemory, kDisk, kComputed };

const char* SummarySourceName(SummarySource source);

class SummaryCache {
 public:
  // `persist_sidecars`: write .fgrsum files after fresh computations.
  explicit SummaryCache(bool persist_sidecars = true)
      : persist_sidecars_(persist_sidecars) {}

  // Computes `min_length` passes worth of statistics for the dataset at
  // `fgrbin_path` whose current bytes hash to `content_hash`, or reuses a
  // cached summary when one with the same hash and path type covers the
  // requested length. Concurrent requests for the same dataset serialize
  // on a per-dataset mutex (the second waiter gets the first's result);
  // different datasets proceed in parallel. `compute` receives the length
  // to summarize to and runs without any cache lock held.
  using ComputeFn =
      std::function<Result<DatasetSummary>(int max_length)>;
  Result<std::shared_ptr<const DatasetSummary>> GetOrCompute(
      const std::string& fgrbin_path, std::uint64_t content_hash,
      PathType path_type, int min_length, const ComputeFn& compute,
      SummarySource* source);

  // ρ(W) of the dataset at `fgrbin_path` whose bytes hash to
  // `content_hash`: the memoized value, or `compute`'s result on the first
  // call for that content (kComputed; later calls report kMemory). A new
  // content hash drops the old value. Concurrent first calls coalesce on a
  // per-dataset mutex that GetOrCompute never takes, so estimates do not
  // wait on a label's ρ. A failed compute memoizes nothing.
  using RhoFn = std::function<Result<double>()>;
  Result<double> GetOrComputeRho(const std::string& fgrbin_path,
                                 std::uint64_t content_hash,
                                 const RhoFn& compute, SummarySource* source);

  // Aggregate counters (monotone; read without locking exactness needs).
  struct Counters {
    std::int64_t memory_hits = 0;
    std::int64_t disk_hits = 0;
    std::int64_t computed = 0;
    std::int64_t invalidations = 0;  // hash-mismatch discards
    std::int64_t rho_memory_hits = 0;
    std::int64_t rho_computed = 0;
  };
  Counters counters() const;

 private:
  // One per "<path>|nb", "<path>|full" (statistics) or "<path>|rho" key.
  struct KeyState {
    std::mutex compute_mutex;  // serializes miss handling per key
    std::shared_ptr<const DatasetSummary> summary;  // guarded by mutex_
    // "|rho" keys: ρ(W) of the bytes hashing to rho_hash. Guarded by
    // compute_mutex.
    std::optional<double> rho_w;
    std::uint64_t rho_hash = 0;
  };

  bool persist_sidecars_;
  mutable std::mutex mutex_;  // guards counters_ and KeyState::summary
  KeyedStateMap<KeyState> states_;
  Counters counters_;
};

}  // namespace fgr

#endif  // FGR_SERVE_SUMMARY_CACHE_H_
