// Zero-copy mmap residency for .fgrbin caches.
//
// ReadFgrBin deserializes a cache into owned CSR vectors — O(file) copies
// per open. A long-lived server holding many hot datasets wants the other
// contract: map the file once, let the page cache be the residency, and run
// the kernels straight over the mapped sections. MappedFgrBin provides it:
//
//   * header validation is shared with the other readers (InspectFgrBin),
//     and the CSR sections are checked over the mapped arrays by the very
//     functions the copy path runs, in its order: ValidateEdgeWeights,
//     SparseMatrix::ValidateCsr (monotone row_ptr spanning [0, nnz],
//     strictly ascending in-range columns) and Graph::ValidateAdjacency
//     (symmetry and a zero diagonal from one O(nnz) merge, no per-entry
//     search) — so both readers reject the same corrupt files with the
//     same messages;
//   * View() is a whole-matrix CsrPanelView aliasing the mapped row_ptr /
//     col_idx / values sections — the same views SparseMatrix hands the
//     SpMM kernels, so summarization and propagation over a mapped cache
//     are bit-identical to the in-core path. Unit-weight caches (no values
//     section on disk) map with values == nullptr; the kernels treat that
//     as weight exactly 1.0, so nothing nnz-sized is ever materialized;
//   * the n-scale sidecars a request needs anyway (the label section as a
//     Labeling, the k×k gold matrix) are materialized once at Open — the
//     gold section in particular is copied because its byte offset is only
//     4-aligned after an odd-length labels section;
//   * data() exposes the mapped bytes, so a caller that keys results on
//     the file's contents (serve/dataset_cache.h) can hash them without
//     reading the file again.
//
// The mapping is read-only and private; the file may be deleted while
// mapped (POSIX keeps the pages alive) but must not be rewritten in place.

#ifndef FGR_DATA_MMAP_FGRBIN_H_
#define FGR_DATA_MMAP_FGRBIN_H_

#include <cstdint>
#include <optional>
#include <string>

#include "data/fgrbin.h"
#include "graph/labels.h"
#include "matrix/dense.h"
#include "matrix/sparse.h"
#include "util/status.h"

namespace fgr {

// FNV-1a 64-bit hash of a file's bytes, read in chunks — the same function
// the dataset cache applies to a mapped region (HashBytes), exposed so the
// serving layer can key summaries of caches it never maps (streaming
// datasets).
Result<std::uint64_t> HashFileContents(const std::string& path);

// FNV-1a 64 over an in-memory buffer.
std::uint64_t HashBytes(const void* data, std::size_t size);

class MappedFgrBin {
 public:
  MappedFgrBin() = default;
  ~MappedFgrBin();

  MappedFgrBin(MappedFgrBin&& other) noexcept;
  MappedFgrBin& operator=(MappedFgrBin&& other) noexcept;
  MappedFgrBin(const MappedFgrBin&) = delete;
  MappedFgrBin& operator=(const MappedFgrBin&) = delete;

  // Maps and fully validates the cache; every later accessor is infallible.
  static Result<MappedFgrBin> Open(const std::string& path);

  const std::string& path() const { return path_; }
  const FgrBinInfo& info() const { return info_; }
  std::int64_t num_nodes() const { return info_.num_nodes; }
  std::int64_t nnz() const { return info_.nnz; }
  std::int64_t num_edges() const { return info_.nnz / 2; }

  // Whole-matrix view over the mapped CSR sections; valid while this object
  // is alive. values() is nullptr for unit-weight caches (weight 1.0).
  CsrPanelView View() const {
    return CsrPanelView(0, info_.num_nodes, info_.num_nodes, row_ptr_,
                        col_idx_, values_);
  }

  // The labels section (all-unlabeled 1-class labeling when absent, exactly
  // like ReadFgrBin).
  const Labeling& labels() const { return labels_; }

  const std::optional<DenseMatrix>& gold() const { return gold_; }

  // The mapped file, info().file_size bytes; valid while this object is
  // alive.
  const void* data() const { return base_; }

  // Bytes this dataset pins per process: the mapped file plus the
  // materialized labels. The dataset cache charges this against its
  // residency budget.
  std::int64_t resident_bytes() const;

 private:
  std::string path_;
  FgrBinInfo info_;
  void* base_ = nullptr;       // mapped region; nullptr when empty
  std::int64_t map_size_ = 0;
  const std::int64_t* row_ptr_ = nullptr;
  const std::int64_t* col_idx_ = nullptr;
  const double* values_ = nullptr;  // nullptr: unit weights
  Labeling labels_;
  std::optional<DenseMatrix> gold_;

  void Unmap();
};

}  // namespace fgr

#endif  // FGR_DATA_MMAP_FGRBIN_H_
