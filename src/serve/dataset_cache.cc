#include "serve/dataset_cache.h"

#include <sys/stat.h>

#include <system_error>
#include <utility>

#include "obs/trace.h"

namespace fgr {

namespace fs = std::filesystem;

Result<DatasetCache::Resident> DatasetCache::Acquire(
    const std::string& path) {
  std::error_code ec;
  fs::path canonical = fs::weakly_canonical(fs::path(path), ec);
  const std::string key = ec ? path : canonical.string();

  const fs::file_time_type mtime = fs::last_write_time(key, ec);
  if (ec) return Status::NotFound("cannot stat " + key);
  const std::uintmax_t file_size = fs::file_size(key, ec);
  if (ec) return Status::NotFound("cannot stat " + key);
  // The identity half of the freshness key: an mtime-preserving same-size
  // rewrite (cp -p, rsync -t, temp+rename) is invisible to the two checks
  // above but always lands the path on a fresh inode.
  struct stat st;
  if (::stat(key.c_str(), &st) != 0) {
    return Status::NotFound("cannot stat " + key);
  }
  const std::uint64_t inode = static_cast<std::uint64_t>(st.st_ino);
  const std::uint64_t device = static_cast<std::uint64_t>(st.st_dev);

  // Per-dataset open lock first, then the cache-wide lock only for map
  // and LRU bookkeeping: a multi-second cold open (validation + hashing
  // of a budget-sized file) never stalls hits on other datasets, and a
  // second concurrent miss on the same path waits here and takes the hit
  // path below instead of mapping the file twice.
  std::shared_ptr<std::mutex> open_state = open_states_.StateFor(key);
  std::lock_guard<std::mutex> open_lock(*open_state);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto found = index_.find(key);
    if (found != index_.end()) {
      Entry& entry = *found->second;
      if (entry.mtime == mtime && entry.file_size == file_size &&
          entry.inode == inode && entry.device == device) {
        lru_.splice(lru_.begin(), lru_, found->second);  // move to MRU
        ++counters_.hits;
        return entry.resident;
      }
      // Rewritten on disk: drop and reopen so the content hash (and with
      // it the summary cache) sees the new bytes.
      ++counters_.stale_reopens;
      resident_bytes_ -= entry.resident.mapped->resident_bytes();
      lru_.erase(found->second);
      index_.erase(found);
    }
  }

  if (static_cast<std::int64_t>(file_size) > byte_budget_) {
    return Status::FailedPrecondition(
        key + ": file (" + std::to_string(file_size) +
        " bytes) exceeds the dataset residency budget (" +
        std::to_string(byte_budget_) + " bytes)");
  }

  Result<MappedFgrBin> opened = MappedFgrBin::Open(key);  // unlocked
  if (!opened.ok()) return opened.status();

  Entry entry;
  entry.path = key;
  entry.resident.mapped =
      std::make_shared<const MappedFgrBin>(std::move(opened).value());
  {
    // Hash the bytes the mapping serves, still outside mutex_.
    FGR_TRACE_SPAN("io/hash_fgrbin");
    const MappedFgrBin& mapped = *entry.resident.mapped;
    entry.resident.content_hash = HashBytes(
        mapped.data(), static_cast<std::size_t>(mapped.info().file_size));
  }
  entry.mtime = mtime;
  entry.file_size = file_size;
  entry.inode = inode;
  entry.device = device;
  const Resident resident = entry.resident;

  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.misses;
  resident_bytes_ += resident.mapped->resident_bytes();
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  EvictToBudgetLocked();
  return resident;
}

void DatasetCache::EvictToBudgetLocked() {
  while (resident_bytes_ > byte_budget_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    resident_bytes_ -= victim.resident.mapped->resident_bytes();
    index_.erase(victim.path);
    lru_.pop_back();  // in-flight shared_ptr holders keep the mapping alive
    ++counters_.evictions;
  }
}

DatasetCache::Counters DatasetCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::int64_t DatasetCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::int64_t DatasetCache::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(lru_.size());
}

std::vector<std::string> DatasetCache::ResidentPaths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> paths;
  paths.reserve(lru_.size());
  for (const Entry& entry : lru_) paths.push_back(entry.path);
  return paths;
}

}  // namespace fgr
