#include "serve/summary_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "data/mmap_fgrbin.h"
#include "util/check.h"

namespace fgr {
namespace {

constexpr char kMagic[8] = {'f', 'g', 'r', 's', 'u', 'm', '0', '2'};
// Shared by every format version; a file that carries it with another
// version suffix is a sidecar this build no longer reads.
constexpr std::size_t kMagicFamilyBytes = 6;
constexpr std::uint32_t kEndianCheck = 0x01020304u;

struct Header {
  char magic[8];
  std::uint32_t endian_check;
  std::int32_t path_type;
  std::uint64_t content_hash;
  std::int64_t num_nodes;
  std::int32_t num_classes;
  std::int32_t max_length;
  std::uint64_t checksum;  // HashBytes of the whole file, this field zeroed
};
static_assert(sizeof(Header) == 48, "fgrsum header must pack to 48 bytes");

// The checksum of a complete sidecar image: FNV-1a 64 over every byte with
// the checksum field read as zero.
std::uint64_t ImageChecksum(std::vector<char> image) {
  std::memset(image.data() + offsetof(Header, checksum), 0,
              sizeof(Header::checksum));
  return HashBytes(image.data(), image.size());
}

std::int32_t PathTypeCode(PathType type) {
  return type == PathType::kNonBacktracking ? 1 : 2;
}

// Advisory writer lock for a sidecar, held for the lifetime of the object.
// Locks a stable `<path>.lock` companion rather than the sidecar itself:
// the temp+rename publish swaps the sidecar's inode, so a lock taken on
// the old inode would not exclude a third writer locking the new one.
// Best effort — a filesystem without flock (or a read-only directory)
// degrades to the unsynchronized behavior, never to a write failure.
class SidecarLock {
 public:
  explicit SidecarLock(const std::string& path) {
    fd_ = ::open((path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~SidecarLock() {
    if (fd_ >= 0) ::close(fd_);  // close releases the flock
  }
  SidecarLock(const SidecarLock&) = delete;
  SidecarLock& operator=(const SidecarLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace

std::string FgrSumPathFor(const std::string& fgrbin_path,
                          PathType path_type) {
  return fgrbin_path +
         (path_type == PathType::kNonBacktracking ? "" : ".full") +
         kFgrSumExtension;
}

Status WriteFgrSum(const DatasetSummary& summary, const std::string& path) {
  FGR_CHECK_EQ(static_cast<int>(summary.m_raw.size()), summary.max_length);
  // Serialize concurrent writers (the multi-process fgrd story) and keep
  // the longest prefix: re-read under the lock and skip the write when a
  // competing writer already published the same dataset's statistics to a
  // greater or equal ℓ — an unsynchronized last-writer-wins rename could
  // otherwise clobber a just-written ℓ=10 sidecar with an ℓ=5 one.
  SidecarLock lock(path);
  {
    Result<DatasetSummary> existing = ReadFgrSum(path);
    if (existing.ok() &&
        existing.value().content_hash == summary.content_hash &&
        existing.value().path_type == summary.path_type &&
        existing.value().max_length >= summary.max_length) {
      return Status::Ok();  // the disk copy already subsumes ours
    }
  }
  const std::int64_t k = summary.num_classes;
  const std::size_t row_bytes = static_cast<std::size_t>(k) * sizeof(double);
  std::vector<char> image(sizeof(Header) + summary.m_raw.size() *
                                               static_cast<std::size_t>(k) *
                                               row_bytes);
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian_check = kEndianCheck;
  header.path_type = PathTypeCode(summary.path_type);
  header.content_hash = summary.content_hash;
  header.num_nodes = summary.num_nodes;
  header.num_classes = summary.num_classes;
  header.max_length = summary.max_length;
  char* payload = image.data() + sizeof(Header);
  for (const DenseMatrix& m : summary.m_raw) {
    FGR_CHECK_EQ(m.rows(), k);
    FGR_CHECK_EQ(m.cols(), k);
    for (std::int64_t i = 0; i < k; ++i) {
      std::memcpy(payload, m.RowPtr(i), row_bytes);
      payload += row_bytes;
    }
  }
  std::memcpy(image.data(), &header, sizeof(header));
  header.checksum = ImageChecksum(image);
  std::memcpy(image.data(), &header, sizeof(header));

  // Temp file + fsync + rename: concurrent readers (another daemon, a
  // crash mid-write) can only ever see a complete sidecar, and the bytes
  // are on disk before the name points at them. A power cut that still
  // loses them leaves a file whose checksum fails, which reads as a miss.
  const std::string temp =
      path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(temp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal("cannot write " + temp);
  bool written = true;
  for (std::size_t done = 0; written && done < image.size();) {
    const ssize_t got = ::write(fd, image.data() + done, image.size() - done);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
    } else if (got < 0 && errno != EINTR) {
      written = false;
    }
  }
  written = written && ::fsync(fd) == 0;
  written = ::close(fd) == 0 && written;
  if (!written) {
    std::remove(temp.c_str());
    return Status::Internal("write failed for " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::Internal("cannot rename " + temp + " to " + path);
  }
  return Status::Ok();
}

Result<DatasetSummary> ReadFgrSum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in) return Status::InvalidArgument(path + ": truncated fgrsum file");
  if (std::memcmp(header.magic, kMagic, kMagicFamilyBytes) != 0) {
    return Status::InvalidArgument(path + ": not an fgrsum file");
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        path + ": fgrsum file of an unsupported format version (" +
        std::string(header.magic, sizeof(header.magic)) + ")");
  }
  if (header.endian_check != kEndianCheck) {
    return Status::InvalidArgument(
        path + ": fgrsum file written on an incompatible (byte-swapped) "
        "machine");
  }
  if (header.path_type != 1 && header.path_type != 2) {
    return Status::InvalidArgument(path + ": unknown path type");
  }
  // The matrices are tiny (k ≤ 2^15 is already absurd for classes), so the
  // size gate mirrors fgrbin's: reject before allocating.
  if (header.num_nodes < 0 || header.num_classes < 1 ||
      header.num_classes >= (1 << 15) || header.max_length < 1 ||
      header.max_length > 1024) {
    return Status::InvalidArgument(path + ": fgrsum header sizes implausible");
  }
  in.seekg(0, std::ios::end);
  const std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
  const std::int64_t k = header.num_classes;
  const std::int64_t expected =
      static_cast<std::int64_t>(sizeof(Header)) +
      static_cast<std::int64_t>(header.max_length) * k * k * 8;
  if (file_size != expected) {
    return Status::InvalidArgument(
        path + ": fgrsum file holds " + std::to_string(file_size) +
        " bytes, its header implies " + std::to_string(expected));
  }
  std::vector<char> image(static_cast<std::size_t>(expected));
  in.seekg(0, std::ios::beg);
  in.read(image.data(), static_cast<std::streamsize>(image.size()));
  if (!in) return Status::InvalidArgument(path + ": truncated fgrsum file");
  if (ImageChecksum(image) != header.checksum) {
    return Status::InvalidArgument(path + ": fgrsum checksum mismatch");
  }

  DatasetSummary summary;
  summary.path_type = header.path_type == 1 ? PathType::kNonBacktracking
                                            : PathType::kFull;
  summary.max_length = header.max_length;
  summary.num_nodes = header.num_nodes;
  summary.num_classes = header.num_classes;
  summary.content_hash = header.content_hash;
  summary.m_raw.reserve(static_cast<std::size_t>(header.max_length));
  const char* payload = image.data() + sizeof(Header);
  for (std::int32_t l = 0; l < header.max_length; ++l) {
    DenseMatrix m(k, k);
    for (std::int64_t i = 0; i < k; ++i) {
      std::memcpy(m.RowPtr(i), payload,
                  static_cast<std::size_t>(k) * sizeof(double));
      payload += k * static_cast<std::int64_t>(sizeof(double));
    }
    summary.m_raw.push_back(std::move(m));
  }
  return summary;
}

GraphStatistics StatisticsFromSummary(const DatasetSummary& summary,
                                      int max_length,
                                      NormalizationVariant variant) {
  FGR_CHECK_GE(max_length, 1);
  FGR_CHECK_LE(max_length, summary.max_length);
  GraphStatistics stats;
  stats.path_type = summary.path_type;
  stats.variant = variant;
  stats.m_raw.assign(summary.m_raw.begin(),
                     summary.m_raw.begin() + max_length);
  stats.p_hat.reserve(stats.m_raw.size());
  for (const DenseMatrix& m : stats.m_raw) {
    stats.p_hat.push_back(NormalizeStatistics(m, variant));
  }
  stats.seconds = 0.0;  // the graph pass was skipped
  return stats;
}

const char* SummarySourceName(SummarySource source) {
  switch (source) {
    case SummarySource::kMemory: return "memory";
    case SummarySource::kDisk: return "disk";
    case SummarySource::kComputed: return "computed";
  }
  return "unknown";
}

Result<std::shared_ptr<const DatasetSummary>> SummaryCache::GetOrCompute(
    const std::string& fgrbin_path, std::uint64_t content_hash,
    PathType path_type, int min_length, const ComputeFn& compute,
    SummarySource* source) {
  FGR_CHECK_GE(min_length, 1);
  const std::string key =
      fgrbin_path + (path_type == PathType::kNonBacktracking ? "|nb"
                                                             : "|full");
  // A swept state (keyed_state.h) only costs the re-read of the .fgrsum
  // sidecar on that dataset's next request.
  std::shared_ptr<KeyState> state = states_.StateFor(key);

  // Serialize miss handling per dataset: a second concurrent request for a
  // cold dataset waits here and then takes the memory hit below instead of
  // redundantly re-summarizing.
  std::lock_guard<std::mutex> compute_lock(state->compute_mutex);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::shared_ptr<const DatasetSummary>& cached = state->summary;
    if (cached != nullptr) {
      if (cached->content_hash == content_hash &&
          cached->max_length >= min_length) {
        ++counters_.memory_hits;
        if (source != nullptr) *source = SummarySource::kMemory;
        return cached;
      }
      if (cached->content_hash != content_hash) ++counters_.invalidations;
      state->summary = nullptr;
    }
  }

  // Disk: a sidecar from a previous process (or a previous, longer
  // request) satisfies the call when its hash still matches the bytes.
  const std::string sidecar = FgrSumPathFor(fgrbin_path, path_type);
  Result<DatasetSummary> from_disk = ReadFgrSum(sidecar);
  if (from_disk.ok() && from_disk.value().content_hash == content_hash &&
      from_disk.value().path_type == path_type &&
      from_disk.value().max_length >= min_length) {
    auto summary = std::make_shared<const DatasetSummary>(
        std::move(from_disk).value());
    std::lock_guard<std::mutex> lock(mutex_);
    state->summary = summary;
    ++counters_.disk_hits;
    if (source != nullptr) *source = SummarySource::kDisk;
    return std::shared_ptr<const DatasetSummary>(summary);
  }

  Result<DatasetSummary> computed = compute(min_length);
  if (!computed.ok()) return computed.status();
  FGR_CHECK_GE(computed.value().max_length, min_length)
      << "compute callback returned fewer passes than requested";
  computed.value().content_hash = content_hash;
  computed.value().path_type = path_type;
  auto summary =
      std::make_shared<const DatasetSummary>(std::move(computed).value());
  if (persist_sidecars_) {
    // Best effort: a read-only data directory degrades to recompute-on-
    // restart, not to a serving failure.
    (void)WriteFgrSum(*summary, sidecar);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state->summary = summary;
    ++counters_.computed;
  }
  if (source != nullptr) *source = SummarySource::kComputed;
  return std::shared_ptr<const DatasetSummary>(summary);
}

Result<double> SummaryCache::GetOrComputeRho(const std::string& fgrbin_path,
                                             std::uint64_t content_hash,
                                             const RhoFn& compute,
                                             SummarySource* source) {
  // A key of its own, so the statistics' compute mutex (which estimates
  // take) and this one never wait on each other.
  std::shared_ptr<KeyState> state = states_.StateFor(fgrbin_path + "|rho");
  std::lock_guard<std::mutex> compute_lock(state->compute_mutex);
  if (state->rho_w.has_value() && state->rho_hash == content_hash) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rho_memory_hits;
    if (source != nullptr) *source = SummarySource::kMemory;
    return *state->rho_w;
  }
  state->rho_w.reset();  // a new content hash drops the old value
  Result<double> rho_w = compute();
  if (!rho_w.ok()) return rho_w.status();
  state->rho_w = rho_w.value();
  state->rho_hash = content_hash;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rho_computed;
  }
  if (source != nullptr) *source = SummarySource::kComputed;
  return rho_w;
}

SummaryCache::Counters SummaryCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace fgr
