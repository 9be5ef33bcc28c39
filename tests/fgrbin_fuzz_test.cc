// Corruption hardening for the .fgrbin readers: randomized truncations,
// bit-flips, and header-size lies over a valid cache must always produce a
// clean error Status (or, for a benign flip, a still-valid graph) — never a
// crash, UB, or an OOM-sized allocation. Every reader is exercised: the
// in-core ReadFgrBin and MappedFgrBin (which must agree file for file) and
// the out-of-core BlockRowReader, the latter drained through a full
// streamed summarization so mid-stream validation runs too.
// The CI ASan+UBSan job runs this suite, which is what turns "no UB" from
// a hope into a check.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fgr/fgr.h"

namespace fgr {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct FuzzFixture {
  LabeledGraph data;
  Labeling seeds;
  std::string path;
  std::vector<char> bytes;  // pristine file content
};

// A weighted, labeled, gold-carrying cache so every section exists.
const FuzzFixture& SharedFixture() {
  static const FuzzFixture& fixture = *[] {
    auto* f = new FuzzFixture();
    Rng rng(77);
    auto planted = GeneratePlantedGraph(MakeSkewConfig(300, 6.0, 3, 3.0), rng);
    FGR_CHECK(planted.ok());
    std::vector<Edge> edges = planted.value().graph.UndirectedEdges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      edges[i].weight = 0.5 + static_cast<double>(i % 5);
    }
    auto weighted =
        Graph::FromEdges(planted.value().graph.num_nodes(), edges);
    FGR_CHECK(weighted.ok());
    f->data.name = "fuzz";
    f->data.graph = std::move(weighted).value();
    f->data.labels = planted.value().labels;
    f->data.gold = MakeSkewCompatibility(3, 3.0);
    f->seeds = SampleStratifiedSeeds(f->data.labels, 0.1, rng);
    f->path = TempPath("fuzz_pristine.fgrbin");
    FGR_CHECK(WriteFgrBin(f->data, f->path).ok());
    std::ifstream in(f->path, std::ios::binary);
    f->bytes.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    FGR_CHECK(!f->bytes.empty());
    return f;
  }();
  return fixture;
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FGR_CHECK(static_cast<bool>(out));
}

// Runs every reader over a (possibly corrupt) file. Every call must return
// — a Status or a valid result — and a reader that accepts the bytes must
// hand back internally consistent data (the summarizer CHECKs coverage).
// The two in-core readers run the same checks, so MappedFgrBin::Open must
// accept exactly the files ReadFgrBin accepts, and reject the rest with
// the same status.
void DriveReaders(const std::string& path) {
  const FuzzFixture& fixture = SharedFixture();
  auto loaded = ReadFgrBin(path);
  if (loaded.ok()) {
    EXPECT_GE(loaded.value().graph.num_nodes(), 0);
  }
  auto mapped = MappedFgrBin::Open(path);
  EXPECT_EQ(mapped.ok(), loaded.ok()) << (loaded.ok() ? mapped.status()
                                                      : loaded.status())
                                              .ToString();
  if (!mapped.ok() && !loaded.ok()) {
    EXPECT_EQ(mapped.status().ToString(), loaded.status().ToString());
  }
  BlockRowReaderOptions options;
  options.rows_per_panel = 37;
  auto streamed = ComputeGraphStatisticsStreaming(
      path, fixture.seeds, 3, PathType::kNonBacktracking,
      NormalizationVariant::kRowStochastic, options);
  if (streamed.ok()) {
    EXPECT_EQ(streamed.value().m_raw.size(), 3u);
  }
}

TEST(FgrBinFuzzTest, TruncationAtEveryRegionFailsCleanly) {
  const FuzzFixture& fixture = SharedFixture();
  const std::string path = TempPath("fuzz_truncated.fgrbin");
  const std::size_t size = fixture.bytes.size();
  // Every section boundary region plus a spread of interior cuts.
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 12, 16, 24, 32, 39, 40, 41};
  for (int i = 1; i <= 16; ++i) cuts.push_back(size * i / 17);
  cuts.push_back(size - 1);
  for (std::size_t cut : cuts) {
    if (cut >= size) continue;
    std::vector<char> bytes(fixture.bytes.begin(),
                            fixture.bytes.begin() +
                                static_cast<std::ptrdiff_t>(cut));
    WriteBytes(path, bytes);
    auto loaded = ReadFgrBin(path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
    auto reader = BlockRowReader::Open(path, {});
    if (reader.ok()) {
      // Open can succeed when only trailing sections are cut; the stream
      // must then fail mid-pass, not crash.
      CsrPanel panel;
      Status status = Status::Ok();
      while (status.ok() && !reader.value().Done()) {
        status = reader.value().NextPanel(&panel);
      }
    }
  }
}

TEST(FgrBinFuzzTest, RandomBitFlipsNeverCrashEitherReader) {
  const FuzzFixture& fixture = SharedFixture();
  const std::string path = TempPath("fuzz_bitflip.fgrbin");
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> bytes = fixture.bytes;
    const std::int64_t byte =
        rng.UniformInt(static_cast<std::int64_t>(bytes.size()));
    const int bit = static_cast<int>(rng.UniformInt(8));
    bytes[static_cast<std::size_t>(byte)] =
        static_cast<char>(bytes[static_cast<std::size_t>(byte)] ^ (1 << bit));
    WriteBytes(path, bytes);
    DriveReaders(path);
  }
}

TEST(FgrBinFuzzTest, AsymmetricHubColumnIsRejectedByBothInCoreReaders) {
  // Rewrite one column of the widest row to an unused column that keeps
  // the row strictly ascending and in range: every row-local check passes,
  // and only the mirror check can see that the new entry has no mirror.
  const FuzzFixture& fixture = SharedFixture();
  const SparseMatrix& a = fixture.data.graph.adjacency();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  std::int64_t hub = 0;
  for (std::int64_t r = 1; r < a.rows(); ++r) {
    if (row_ptr[r + 1] - row_ptr[r] > row_ptr[hub + 1] - row_ptr[hub]) hub = r;
  }
  std::int64_t entry = -1;
  for (std::int64_t p = row_ptr[hub]; p + 1 < row_ptr[hub + 1]; ++p) {
    if (col_idx[p] + 1 < col_idx[p + 1] && col_idx[p] + 1 != hub) {
      entry = p;
      break;
    }
  }
  ASSERT_GE(entry, 0) << "hub row " << hub << " has no column gap";
  std::vector<char> bytes = fixture.bytes;
  const std::int64_t n = a.rows();
  const std::int64_t moved = col_idx[entry] + 1;
  std::memcpy(bytes.data() + 40 + static_cast<std::size_t>(n + 1) * 8 +
                  static_cast<std::size_t>(entry) * 8,
              &moved, 8);
  const std::string path = TempPath("fuzz_hub_asym.fgrbin");
  WriteBytes(path, bytes);
  auto loaded = ReadFgrBin(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not symmetric"),
            std::string::npos)
      << loaded.status().ToString();
  auto mapped = MappedFgrBin::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().ToString(), loaded.status().ToString());
}

TEST(FgrBinFuzzTest, HeaderSizeLiesAreRejectedWithoutHugeAllocations) {
  const FuzzFixture& fixture = SharedFixture();
  const std::string path = TempPath("fuzz_header.fgrbin");
  struct Lie {
    std::size_t offset;  // byte offset into the header
    std::int64_t value;
    int width;  // 4 or 8 bytes
  };
  const std::vector<Lie> lies = {
      {16, std::int64_t{1} << 50, 8},   // num_nodes astronomically large
      {16, -5, 8},                      // num_nodes negative
      {16, (std::int64_t{1} << 48) - 1, 8},  // passes the cap, fails size
      {24, std::int64_t{1} << 50, 8},   // nnz astronomically large
      {24, -1, 8},                      // nnz negative
      {24, std::int64_t{1} << 40, 8},   // nnz way beyond the file
      {32, 1 << 20, 4},                 // num_classes beyond the cap
      {32, -3, 4},                      // num_classes negative
      {36, 1 << 20, 4},                 // gold_k beyond the cap
      {36, 9000, 4},                    // gold_k² · 8 beyond the file
  };
  for (const Lie& lie : lies) {
    std::vector<char> bytes = fixture.bytes;
    if (lie.width == 8) {
      std::memcpy(bytes.data() + lie.offset, &lie.value, 8);
    } else {
      const std::int32_t narrow = static_cast<std::int32_t>(lie.value);
      std::memcpy(bytes.data() + lie.offset, &narrow, 4);
    }
    WriteBytes(path, bytes);
    auto loaded = ReadFgrBin(path);
    EXPECT_FALSE(loaded.ok())
        << "lie at offset " << lie.offset << " value " << lie.value;
    auto reader = BlockRowReader::Open(path, {});
    EXPECT_FALSE(reader.ok())
        << "lie at offset " << lie.offset << " value " << lie.value;
  }

  // Flipping every flag on (0x6 → 0x7) claims unit weights, which SHRINKS
  // the expected size — structurally coherent, so the graph-only streaming
  // reader cannot detect it header-locally (it reinterprets the graph with
  // weight 1.0). The full reader still rejects the file: the bytes after
  // col_idx no longer parse as valid labels. Either way: clean returns.
  {
    std::vector<char> bytes = fixture.bytes;
    const std::int32_t all_flags = 0x7;
    std::memcpy(bytes.data() + 12, &all_flags, 4);
    WriteBytes(path, bytes);
    EXPECT_FALSE(ReadFgrBin(path).ok());
    DriveReaders(path);
  }
}

TEST(FgrBinFuzzTest, CorruptRowPtrAndColumnsFailLoudlyMidStream) {
  const FuzzFixture& fixture = SharedFixture();
  const std::string path = TempPath("fuzz_csr.fgrbin");
  const std::size_t row_ptr_offset = 40;
  // Locate col_idx for targeted corruption: after (n + 1) row_ptr entries.
  const std::int64_t n = fixture.data.graph.num_nodes();
  const std::size_t col_offset =
      row_ptr_offset + static_cast<std::size_t>(n + 1) * 8;

  {
    // Decreasing row_ptr mid-array: Open's scan must reject it.
    std::vector<char> bytes = fixture.bytes;
    const std::int64_t bogus = -9;
    std::memcpy(bytes.data() + row_ptr_offset + 8 * 100, &bogus, 8);
    WriteBytes(path, bytes);
    EXPECT_FALSE(BlockRowReader::Open(path, {}).ok());
    EXPECT_FALSE(ReadFgrBin(path).ok());
  }
  {
    // Column index out of range: caught by the panel validation.
    std::vector<char> bytes = fixture.bytes;
    const std::int64_t bogus = n + 1000;
    std::memcpy(bytes.data() + col_offset + 8 * 11, &bogus, 8);
    WriteBytes(path, bytes);
    BlockRowReaderOptions options;
    options.rows_per_panel = 13;
    auto streamed = ComputeGraphStatisticsStreaming(
        path, fixture.seeds, 2, PathType::kNonBacktracking,
        NormalizationVariant::kRowStochastic, options);
    EXPECT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(ReadFgrBin(path).ok());
  }
  {
    // Negative weight: both readers reject the values section.
    std::vector<char> bytes = fixture.bytes;
    const std::size_t nnz =
        static_cast<std::size_t>(fixture.data.graph.adjacency().nnz());
    const double bogus = -1.0;
    std::memcpy(bytes.data() + col_offset + nnz * 8 + 8 * 3, &bogus, 8);
    WriteBytes(path, bytes);
    BlockRowReaderOptions options;
    options.rows_per_panel = 13;
    auto streamed = ComputeGraphStatisticsStreaming(
        path, fixture.seeds, 2, PathType::kNonBacktracking,
        NormalizationVariant::kRowStochastic, options);
    EXPECT_FALSE(streamed.ok());
    EXPECT_FALSE(ReadFgrBin(path).ok());
  }
}

}  // namespace
}  // namespace fgr
