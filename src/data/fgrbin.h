// The .fgrbin on-disk binary CSR cache.
//
// Parsing a SNAP-style text edge list is O(bytes) of tokenization plus a
// full CSR assembly; the binary cache stores the finished CSR (plus labels
// and the gold matrix when known) so a graph parses once and every later
// run reloads it with straight sequential reads — O(read), no tokenizing,
// no sorting.
//
// Layout (all integers little-endian, fixed-width):
//   offset  size  field
//   0       8     magic "fgrbin01"
//   8       4     endianness check 0x01020304 (readers reject a mismatch)
//   12      4     flags: bit0 = unit weights (values section omitted)
//                        bit1 = labels section present
//                        bit2 = gold-matrix section present
//   16      8     num_nodes n        (int64)
//   24      8     nnz                (int64; 2m for an undirected graph)
//   32      4     num_classes        (int32; 0 when no labels section)
//   36      4     gold k             (int32; 0 when no gold section)
//   40      —     row_ptr            (n+1 × int64)
//           —     col_idx            (nnz × int64)
//           —     values             (nnz × double, unless unit weights)
//           —     labels             (n × int32, -1 = unlabeled)
//           —     gold               (k×k × double, row-major)
//
// Readers fully validate structure (magic, sizes, positive finite weights,
// CSR row invariants via SparseMatrix::ValidateCsr, symmetry and a zero
// diagonal via Graph::ValidateAdjacency — one O(nnz) merge, no per-entry
// search — and label range), so a truncated or corrupted cache yields an
// error Status, never UB. ReadFgrBin and MappedFgrBin::Open run the same
// checks in the same order, so they accept and reject the same files.

#ifndef FGR_DATA_FGRBIN_H_
#define FGR_DATA_FGRBIN_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "data/graph_source.h"
#include "util/status.h"

namespace fgr {

// Conventional file extension, shared by the CLI and FileSource.
inline constexpr char kFgrBinExtension[] = ".fgrbin";

// Parsed and validated .fgrbin header: section sizes and byte offsets. The
// block-row streaming reader (data/block_row_reader.h) uses it to seek row
// panels without loading the file; ReadFgrBin validates through the same
// code path, so both readers reject exactly the same corrupt headers.
struct FgrBinInfo {
  std::int64_t num_nodes = 0;
  std::int64_t nnz = 0;
  bool unit_weights = false;   // values section omitted; weights are 1.0
  bool has_labels = false;
  bool has_gold = false;
  std::int32_t num_classes = 0;
  std::int32_t gold_k = 0;
  std::int64_t file_size = 0;
  // Byte offsets of the sections; values/labels/gold offsets are
  // meaningful only when the corresponding section is present.
  std::int64_t row_ptr_offset = 0;
  std::int64_t col_idx_offset = 0;
  std::int64_t values_offset = 0;
  std::int64_t labels_offset = 0;
  std::int64_t gold_offset = 0;
};

// Reads and fully validates the 40-byte header against the actual file size
// (magic, endianness, plausible sizes, flag consistency, every declared
// section in bounds), so a header that lies about its sizes can never
// trigger an OOM-scale allocation downstream.
Result<FgrBinInfo> InspectFgrBin(const std::string& path);

// Same, over a freshly opened stream the caller keeps: on success the
// stream is positioned at the end of the header, ready for section reads
// (what ReadFgrBin and BlockRowReader::Open do). `path` is only used in
// error messages.
Result<FgrBinInfo> InspectFgrBin(std::ifstream& in, const std::string& path);

// Writes graph + labels (when any node is labeled) + gold (when present).
Status WriteFgrBin(const LabeledGraph& data, const std::string& path);

// Same, over borrowed pieces — no LabeledGraph (and thus no CSR copy)
// needs to be assembled to write a cache. `labels`/`gold` may be null.
Status WriteFgrBin(const Graph& graph, const Labeling* labels,
                   const DenseMatrix* gold, const std::string& path);

// Loads a cache written by WriteFgrBin. The result's name is `path` unless
// the caller renames it.
Result<LabeledGraph> ReadFgrBin(const std::string& path);

// Reads only the labels section (validated exactly like ReadFgrBin does) —
// O(header + n·4 bytes), no CSR load. The serving layer uses this to get
// the seed labeling of a cache too large for residency, which it then
// summarizes through the streaming reader. A cache without a labels
// section yields the all-unlabeled 1-class labeling, matching ReadFgrBin.
Result<Labeling> ReadFgrBinLabels(const std::string& path);

// Range-validates raw label-section values (each must be kUnlabeled or in
// [0, num_classes)) and wraps them in a Labeling. The one validation every
// .fgrbin reader — full, labels-only, and mmap — applies, so they all
// reject exactly the same corrupt label sections. `path` is only used in
// error messages.
Result<Labeling> MakeValidatedLabeling(std::vector<ClassId> labels,
                                       std::int32_t num_classes,
                                       const std::string& path);

// Rejects non-positive or non-finite weights, as Graph::FromEdges does on
// the text path. Shared by ReadFgrBin and MappedFgrBin::Open.
Status ValidateEdgeWeights(const double* values, std::int64_t nnz,
                           const std::string& path);

}  // namespace fgr

#endif  // FGR_DATA_FGRBIN_H_
