#include "data/mmap_fgrbin.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "obs/trace.h"

namespace fgr {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t FnvAccumulate(std::uint64_t hash, const unsigned char* data,
                            std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

std::uint64_t HashBytes(const void* data, std::size_t size) {
  return FnvAccumulate(kFnvOffset, static_cast<const unsigned char*>(data),
                      size);
}

Result<std::uint64_t> HashFileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::uint64_t hash = kFnvOffset;
  std::vector<unsigned char> buffer(std::size_t{1} << 20);
  while (in) {
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    hash = FnvAccumulate(hash, buffer.data(), static_cast<std::size_t>(got));
  }
  if (in.bad()) return Status::Internal("read failed for " + path);
  return hash;
}

MappedFgrBin::~MappedFgrBin() { Unmap(); }

void MappedFgrBin::Unmap() {
  if (base_ != nullptr) {
    ::munmap(base_, static_cast<std::size_t>(map_size_));
    base_ = nullptr;
    map_size_ = 0;
  }
}

MappedFgrBin::MappedFgrBin(MappedFgrBin&& other) noexcept
    : path_(std::move(other.path_)),
      info_(other.info_),
      base_(other.base_),
      map_size_(other.map_size_),
      row_ptr_(other.row_ptr_),
      col_idx_(other.col_idx_),
      values_(other.values_),
      labels_(std::move(other.labels_)),
      gold_(std::move(other.gold_)) {
  other.base_ = nullptr;
  other.map_size_ = 0;
  other.row_ptr_ = nullptr;
  other.col_idx_ = nullptr;
  other.values_ = nullptr;
}

MappedFgrBin& MappedFgrBin::operator=(MappedFgrBin&& other) noexcept {
  if (this != &other) {
    Unmap();
    path_ = std::move(other.path_);
    info_ = other.info_;
    base_ = other.base_;
    map_size_ = other.map_size_;
    row_ptr_ = other.row_ptr_;
    col_idx_ = other.col_idx_;
    values_ = other.values_;
    labels_ = std::move(other.labels_);
    gold_ = std::move(other.gold_);
    other.base_ = nullptr;
    other.map_size_ = 0;
    other.row_ptr_ = nullptr;
    other.col_idx_ = nullptr;
    other.values_ = nullptr;
  }
  return *this;
}

Result<MappedFgrBin> MappedFgrBin::Open(const std::string& path) {
  FGR_TRACE_SPAN("io/mmap_fgrbin");
  // Header validation is the shared InspectFgrBin pass, so a mapped open
  // rejects exactly the headers the streaming and copy readers reject.
  Result<FgrBinInfo> inspected = InspectFgrBin(path);
  if (!inspected.ok()) return inspected.status();

  MappedFgrBin mapped;
  mapped.path_ = path;
  mapped.info_ = inspected.value();
  const FgrBinInfo& info = mapped.info_;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::int64_t>(st.st_size) != info.file_size) {
    ::close(fd);
    return Status::Internal(path + ": file changed while opening");
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(info.file_size),
                      PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) {
    return Status::Internal("mmap failed for " + path);
  }
  mapped.base_ = base;
  mapped.map_size_ = info.file_size;

  const char* bytes = static_cast<const char*>(base);
  // row_ptr/col_idx/values offsets are 8-aligned by construction (40-byte
  // header, 8-byte sections before them), so the reinterpret_casts below
  // are aligned loads.
  mapped.row_ptr_ =
      reinterpret_cast<const std::int64_t*>(bytes + info.row_ptr_offset);
  mapped.col_idx_ =
      reinterpret_cast<const std::int64_t*>(bytes + info.col_idx_offset);
  mapped.values_ =
      info.unit_weights
          ? nullptr
          : reinterpret_cast<const double*>(bytes + info.values_offset);

  {
    FGR_TRACE_SPAN("io/validate_fgrbin");
    if (mapped.values_ != nullptr) {
      FGR_RETURN_IF_ERROR(ValidateEdgeWeights(mapped.values_, info.nnz, path));
    }
    Status valid = SparseMatrix::ValidateCsr(info.num_nodes, info.num_nodes,
                                             info.nnz, mapped.row_ptr_,
                                             mapped.col_idx_);
    if (valid.ok()) valid = Graph::ValidateAdjacency(mapped.View());
    if (!valid.ok()) {
      return Status::InvalidArgument(path + ": " + valid.message());
    }
  }

  if (info.has_labels) {
    // The labels offset is 4-aligned (int64 sections precede it).
    const auto* raw =
        reinterpret_cast<const ClassId*>(bytes + info.labels_offset);
    Result<Labeling> validated = MakeValidatedLabeling(
        std::vector<ClassId>(raw, raw + info.num_nodes), info.num_classes,
        path);
    if (!validated.ok()) return validated.status();
    mapped.labels_ = std::move(validated).value();
  } else {
    mapped.labels_ = Labeling(info.num_nodes, 1);
  }

  if (info.has_gold) {
    // The gold offset is only 4-aligned after an odd-length labels section,
    // so the doubles are memcpy'd out instead of aliased.
    const std::size_t k = static_cast<std::size_t>(info.gold_k);
    DenseMatrix gold(info.gold_k, info.gold_k);
    for (std::size_t i = 0; i < k; ++i) {
      std::memcpy(gold.RowPtr(static_cast<DenseMatrix::Index>(i)),
                  bytes + info.gold_offset +
                      static_cast<std::int64_t>(i * k * sizeof(double)),
                  k * sizeof(double));
    }
    mapped.gold_ = std::move(gold);
  }
  return mapped;
}

std::int64_t MappedFgrBin::resident_bytes() const {
  return map_size_ +
         static_cast<std::int64_t>(labels_.raw().size() * sizeof(ClassId));
}

}  // namespace fgr
