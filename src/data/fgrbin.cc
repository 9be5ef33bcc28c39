#include "data/fgrbin.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace fgr {
namespace {

constexpr char kMagic[8] = {'f', 'g', 'r', 'b', 'i', 'n', '0', '1'};
constexpr std::uint32_t kEndianCheck = 0x01020304u;

constexpr std::uint32_t kFlagUnitWeights = 1u << 0;
constexpr std::uint32_t kFlagHasLabels = 1u << 1;
constexpr std::uint32_t kFlagHasGold = 1u << 2;

struct Header {
  char magic[8];
  std::uint32_t endian_check;
  std::uint32_t flags;
  std::int64_t num_nodes;
  std::int64_t nnz;
  std::int32_t num_classes;
  std::int32_t gold_k;
};
static_assert(sizeof(Header) == 40, "fgrbin header must pack to 40 bytes");

template <typename T>
bool WritePod(std::ofstream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::ifstream& in, T* data, std::size_t count) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

Status Truncated(const std::string& path) {
  return Status::InvalidArgument(path + ": truncated fgrbin file");
}

// Header validation shared by ReadFgrBin and InspectFgrBin; `in` must be
// freshly opened. Leaves the stream positioned at the end of the header.
Result<FgrBinInfo> InspectStream(std::ifstream& in, const std::string& path) {
  Header header;
  if (!ReadPod(in, &header, 1)) return Truncated(path);
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not an fgrbin file");
  }
  if (header.endian_check != kEndianCheck) {
    return Status::InvalidArgument(
        path + ": fgrbin file written on an incompatible (byte-swapped) "
        "machine");
  }
  if (header.num_nodes < 0 || header.nnz < 0 || header.num_classes < 0 ||
      header.gold_k < 0) {
    return Status::InvalidArgument(path + ": negative size in fgrbin header");
  }
  // Size sanity before any allocation, so a corrupted header cannot trigger
  // a terabyte resize: the declared sections must fit the actual file.
  in.seekg(0, std::ios::end);
  const std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
  in.seekg(static_cast<std::streamoff>(sizeof(Header)), std::ios::beg);
  constexpr std::int64_t kMaxCount = std::int64_t{1} << 48;
  // gold_k² · 8 must not overflow the int64 section arithmetic below.
  constexpr std::int32_t kMaxClasses = 1 << 15;
  if (header.num_nodes >= kMaxCount || header.nnz >= kMaxCount ||
      header.gold_k >= kMaxClasses || header.num_classes >= kMaxClasses) {
    return Status::InvalidArgument(path + ": fgrbin header sizes implausible");
  }

  FgrBinInfo info;
  info.num_nodes = header.num_nodes;
  info.nnz = header.nnz;
  info.unit_weights = (header.flags & kFlagUnitWeights) != 0;
  info.has_labels = (header.flags & kFlagHasLabels) != 0;
  info.has_gold = (header.flags & kFlagHasGold) != 0;
  info.num_classes = header.num_classes;
  info.gold_k = header.gold_k;
  info.file_size = file_size;
  if (info.has_labels && info.num_classes < 1) {
    return Status::InvalidArgument(path + ": labels section without classes");
  }
  if (info.has_gold && info.has_labels && info.gold_k != info.num_classes) {
    return Status::InvalidArgument(
        path + ": gold matrix is " + std::to_string(info.gold_k) + "x" +
        std::to_string(info.gold_k) + " but the labels have " +
        std::to_string(info.num_classes) + " classes");
  }

  info.row_ptr_offset = static_cast<std::int64_t>(sizeof(Header));
  info.col_idx_offset = info.row_ptr_offset + (info.num_nodes + 1) * 8;
  info.values_offset = info.col_idx_offset + info.nnz * 8;
  info.labels_offset =
      info.values_offset + (info.unit_weights ? 0 : info.nnz * 8);
  info.gold_offset =
      info.labels_offset + (info.has_labels ? info.num_nodes * 4 : 0);
  const std::int64_t expected =
      info.gold_offset +
      (info.has_gold
           ? static_cast<std::int64_t>(info.gold_k) * info.gold_k * 8
           : 0);
  if (file_size < expected) return Truncated(path);
  return info;
}

}  // namespace

Result<FgrBinInfo> InspectFgrBin(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return InspectStream(in, path);
}

Result<FgrBinInfo> InspectFgrBin(std::ifstream& in, const std::string& path) {
  return InspectStream(in, path);
}

Result<Labeling> MakeValidatedLabeling(std::vector<ClassId> labels,
                                       std::int32_t num_classes,
                                       const std::string& path) {
  for (ClassId label : labels) {
    if (label != kUnlabeled && (label < 0 || label >= num_classes)) {
      return Status::InvalidArgument(
          path + ": label " + std::to_string(label) + " outside [0, " +
          std::to_string(num_classes) + ")");
    }
  }
  return Labeling::FromVector(std::move(labels), num_classes);
}

Status ValidateEdgeWeights(const double* values, std::int64_t nnz,
                           const std::string& path) {
  for (std::int64_t i = 0; i < nnz; ++i) {
    if (!(values[i] > 0.0) || !std::isfinite(values[i])) {
      return Status::InvalidArgument(
          path + ": non-positive or non-finite edge weight at entry " +
          std::to_string(i));
    }
  }
  return Status::Ok();
}

Result<Labeling> ReadFgrBinLabels(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  Result<FgrBinInfo> inspected = InspectStream(in, path);
  if (!inspected.ok()) return inspected.status();
  const FgrBinInfo& info = inspected.value();
  if (!info.has_labels) return Labeling(info.num_nodes, 1);

  in.seekg(static_cast<std::streamoff>(info.labels_offset), std::ios::beg);
  std::vector<ClassId> labels(static_cast<std::size_t>(info.num_nodes));
  if (!ReadPod(in, labels.data(), labels.size())) return Truncated(path);
  return MakeValidatedLabeling(std::move(labels), info.num_classes, path);
}

Status WriteFgrBin(const LabeledGraph& data, const std::string& path) {
  return WriteFgrBin(data.graph, &data.labels,
                     data.gold.has_value() ? &*data.gold : nullptr, path);
}

Status WriteFgrBin(const Graph& graph, const Labeling* labels,
                   const DenseMatrix* gold, const std::string& path) {
  const SparseMatrix& adjacency = graph.adjacency();
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian_check = kEndianCheck;
  header.flags = 0;
  header.num_nodes = graph.num_nodes();
  header.nnz = adjacency.nnz();
  header.num_classes = 0;
  header.gold_k = 0;
  const bool unit_weights = graph.IsUnweighted();
  if (unit_weights) header.flags |= kFlagUnitWeights;
  const bool has_labels = labels != nullptr &&
                          labels->num_nodes() == graph.num_nodes() &&
                          labels->NumLabeled() > 0;
  if (has_labels) {
    header.flags |= kFlagHasLabels;
    header.num_classes = labels->num_classes();
  }
  if (gold != nullptr) {
    header.flags |= kFlagHasGold;
    header.gold_k = static_cast<std::int32_t>(gold->rows());
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot write " + path);
  bool ok = WritePod(out, &header, 1);
  ok = ok && WritePod(out, adjacency.row_ptr().data(),
                      adjacency.row_ptr().size());
  ok = ok && WritePod(out, adjacency.col_idx().data(),
                      adjacency.col_idx().size());
  if (!unit_weights) {
    ok = ok && WritePod(out, adjacency.values().data(),
                        adjacency.values().size());
  }
  if (has_labels) {
    ok = ok && WritePod(out, labels->raw().data(), labels->raw().size());
  }
  if (gold != nullptr) {
    ok = ok && WritePod(out, gold->data().data(), gold->data().size());
  }
  out.flush();
  if (!ok || !out) return Status::Internal("write failed for " + path);
  return Status::Ok();
}

Result<LabeledGraph> ReadFgrBin(const std::string& path) {
  FGR_TRACE_SPAN("io/load_fgrbin");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  Result<FgrBinInfo> inspected = InspectStream(in, path);
  if (!inspected.ok()) return inspected.status();
  const FgrBinInfo& info = inspected.value();

  const std::size_t n = static_cast<std::size_t>(info.num_nodes);
  const std::size_t nnz = static_cast<std::size_t>(info.nnz);

  std::vector<SparseMatrix::Index> row_ptr(n + 1);
  if (!ReadPod(in, row_ptr.data(), row_ptr.size())) return Truncated(path);
  std::vector<SparseMatrix::Index> col_idx(nnz);
  if (!ReadPod(in, col_idx.data(), col_idx.size())) return Truncated(path);
  std::vector<double> values;
  if (info.unit_weights) {
    values.assign(nnz, 1.0);
  } else {
    values.resize(nnz);
    if (!ReadPod(in, values.data(), values.size())) return Truncated(path);
  }

  LabeledGraph result;
  result.name = path;
  {
    FGR_TRACE_SPAN("io/validate_fgrbin");
    if (!info.unit_weights) {
      FGR_RETURN_IF_ERROR(ValidateEdgeWeights(values.data(), info.nnz, path));
    }
    Result<SparseMatrix> adjacency =
        SparseMatrix::FromCsr(info.num_nodes, info.num_nodes,
                              std::move(row_ptr), std::move(col_idx),
                              std::move(values));
    if (!adjacency.ok()) {
      return Status::InvalidArgument(path + ": " +
                                     adjacency.status().message());
    }
    Result<Graph> graph = Graph::FromAdjacency(std::move(adjacency).value());
    if (!graph.ok()) {
      return Status::InvalidArgument(path + ": " + graph.status().message());
    }
    result.graph = std::move(graph).value();
  }

  if (info.has_labels) {
    std::vector<ClassId> labels(n);
    if (!ReadPod(in, labels.data(), labels.size())) return Truncated(path);
    Result<Labeling> validated =
        MakeValidatedLabeling(std::move(labels), info.num_classes, path);
    if (!validated.ok()) return validated.status();
    result.labels = std::move(validated).value();
  } else {
    result.labels = Labeling(info.num_nodes, 1);
  }

  if (info.has_gold) {
    const std::size_t k = static_cast<std::size_t>(info.gold_k);
    std::vector<double> gold(k * k);
    if (!ReadPod(in, gold.data(), gold.size())) return Truncated(path);
    DenseMatrix matrix(info.gold_k, info.gold_k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        matrix(static_cast<DenseMatrix::Index>(i),
               static_cast<DenseMatrix::Index>(j)) = gold[i * k + j];
      }
    }
    result.gold = std::move(matrix);
  }
  return result;
}

}  // namespace fgr
