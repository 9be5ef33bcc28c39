// LRU residency for mmap'd .fgrbin datasets, under a byte budget.
//
// The daemon keeps hot datasets mapped (data/mmap_fgrbin.h) so repeated
// queries skip the open/validate cost; the cache bounds how much it pins.
// Entries are handed out as shared_ptr, so eviction never invalidates a
// request in flight — the mapping is unmapped when the last request using
// it finishes. A dataset whose file alone exceeds the budget is refused
// with FailedPrecondition; the server then answers estimate queries for it
// through the streaming summarizer instead of mapping it.
//
// Content hash: the cache computes the FNV-1a 64 hash of a dataset's
// mapped bytes (HashBytes) once per open or reopen, outside its cache-wide
// lock, and hands it out with the mapping; warm hits never hash. It is
// the key the summary cache (serve/summary_cache.h) files statistics
// under, so it must describe exactly the bytes the mapping serves.
//
// Staleness: every Acquire hit re-stats the file; a changed FileStamp
// (below) forces a reopen, which re-hashes the bytes — that new content
// hash is what flows into the summary cache and invalidates stale
// statistics.

#ifndef FGR_SERVE_DATASET_CACHE_H_
#define FGR_SERVE_DATASET_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/mmap_fgrbin.h"
#include "serve/keyed_state.h"
#include "util/status.h"

namespace fgr {

// The freshness key of a file on disk: anything derived from its bytes (a
// mapping, a content hash, streamed statistics) stays valid only while the
// stamp is unchanged. Size and mtime catch ordinary rewrites; the
// inode/device pair catches mtime-preserving, same-size rewrites
// (`rsync -t`, `cp -p`, tar extracts, atomic temp+rename replacements),
// which always land the path on a fresh inode.
struct FileStamp {
  std::int64_t mtime_ns = 0;
  std::uint64_t file_size = 0;
  std::uint64_t inode = 0;
  std::uint64_t device = 0;

  // One stat(2) of `path`; NotFound when it fails.
  static Result<FileStamp> Of(const std::string& path);

  bool operator==(const FileStamp& other) const {
    return mtime_ns == other.mtime_ns && file_size == other.file_size &&
           inode == other.inode && device == other.device;
  }
  bool operator!=(const FileStamp& other) const { return !(*this == other); }
};

class DatasetCache {
 public:
  explicit DatasetCache(std::int64_t byte_budget)
      : byte_budget_(byte_budget) {}

  std::int64_t byte_budget() const { return byte_budget_; }

  // A resident dataset: the shared mapping and the hash of its bytes.
  struct Resident {
    std::shared_ptr<const MappedFgrBin> mapped;
    std::uint64_t content_hash = 0;
  };

  // Returns the resident dataset for `path` (canonicalized), opening,
  // validating and hashing it on a miss and evicting least-recently-used
  // entries until the cache fits its budget again. FailedPrecondition when
  // the file by itself exceeds the budget — the caller falls back to
  // streaming.
  Result<Resident> Acquire(const std::string& path);

  struct Counters {
    std::int64_t hits = 0;
    std::int64_t misses = 0;       // includes stale reopens
    std::int64_t evictions = 0;
    std::int64_t stale_reopens = 0;
  };
  Counters counters() const;

  std::int64_t resident_bytes() const;
  std::int64_t entries() const;

  // Resident dataset paths, most recently used first.
  std::vector<std::string> ResidentPaths() const;

 private:
  struct Entry {
    std::string path;  // canonical
    Resident resident;
    FileStamp stamp;  // at open
  };

  // Drops LRU entries until the budget holds (never drops the MRU entry).
  void EvictToBudgetLocked();

  std::int64_t byte_budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<std::string, std::list<Entry>::iterator> index_;
  // Serializes cold opens per dataset (keyed_state.h), so concurrent
  // misses on the same path coalesce — the second waiter finds the
  // first's entry — while opens of different datasets, and every hit,
  // proceed without touching each other. mutex_ above is only ever held
  // for map/LRU bookkeeping, never across MappedFgrBin::Open or the hash.
  KeyedStateMap<std::mutex> open_states_;
  std::int64_t resident_bytes_ = 0;
  Counters counters_;
};

}  // namespace fgr

#endif  // FGR_SERVE_DATASET_CACHE_H_
