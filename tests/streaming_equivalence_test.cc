// Equivalence tests for the out-of-core estimation path: streaming a
// .fgrbin cache block-row by block-row through PanelSummarizer must match
// the in-core path — bit for bit in serial runs (the panels take exactly
// the in-core kernel in the same operation order), and within the
// tolerance parallel_equivalence_test already uses for sharded reductions
// when threaded. Panel shapes sweep the degenerate single row, a prime
// width (panels misaligned with every internal boundary), an aligned power
// of two, and the whole graph in one panel.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fgr/fgr.h"

namespace fgr {
namespace {

class ThreadGuard {
 public:
  ~ThreadGuard() { SetNumThreads(0); }
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct StreamFixture {
  Graph graph;
  Labeling truth;
  Labeling seeds;
  std::string path;  // .fgrbin cache of `graph`
};

StreamFixture MakeStreamFixture(std::int64_t n, const std::string& name,
                                bool weighted = false) {
  Rng rng(4242);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(n, 8.0, 3, 3.0), rng);
  FGR_CHECK(planted.ok());
  StreamFixture fixture;
  fixture.graph = std::move(planted.value().graph);
  if (weighted) {
    // Re-weight the planted edges deterministically so the values section
    // is present and exercised.
    std::vector<Edge> edges = fixture.graph.UndirectedEdges();
    for (Edge& edge : edges) {
      edge.weight = 0.25 + 1.5 / static_cast<double>(1 + (edge.u + edge.v) % 7);
    }
    auto reweighted = Graph::FromEdges(fixture.graph.num_nodes(), edges);
    FGR_CHECK(reweighted.ok());
    fixture.graph = std::move(reweighted).value();
  }
  fixture.truth = std::move(planted.value().labels);
  fixture.seeds = SampleStratifiedSeeds(fixture.truth, 0.05, rng);
  fixture.path = TempPath(name + ".fgrbin");
  FGR_CHECK(WriteFgrBin(fixture.graph, nullptr, nullptr, fixture.path).ok());
  return fixture;
}

std::vector<std::int64_t> PanelSweep(std::int64_t n) {
  // One row, a prime, an aligned power of two, the whole graph.
  return {1, 97, 256, n};
}

BlockRowReaderOptions PanelOptions(std::int64_t rows_per_panel) {
  BlockRowReaderOptions options;
  options.rows_per_panel = rows_per_panel;
  return options;
}

// --- block-row reader -----------------------------------------------------

TEST(BlockRowReaderTest, PanelsTileTheGraphAndMatchTheCsr) {
  const StreamFixture fixture = MakeStreamFixture(500, "reader_tile");
  auto reader = BlockRowReader::Open(fixture.path, PanelOptions(97));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().num_nodes(), 500);
  EXPECT_EQ(reader.value().nnz(), fixture.graph.adjacency().nnz());
  EXPECT_EQ(reader.value().num_panels(), (500 + 96) / 97);

  const SparseMatrix& adjacency = fixture.graph.adjacency();
  CsrPanel panel;
  std::int64_t row = 0;
  while (!reader.value().Done()) {
    ASSERT_TRUE(reader.value().NextPanel(&panel).ok());
    EXPECT_EQ(panel.first_row, row);
    for (std::int64_t r = 0; r < panel.rows(); ++r) {
      const std::int64_t global = panel.first_row + r;
      const std::int64_t begin =
          adjacency.row_ptr()[static_cast<std::size_t>(global)];
      const std::int64_t end =
          adjacency.row_ptr()[static_cast<std::size_t>(global) + 1];
      ASSERT_EQ(panel.row_ptr[static_cast<std::size_t>(r) + 1] -
                    panel.row_ptr[static_cast<std::size_t>(r)],
                end - begin);
      for (std::int64_t p = begin; p < end; ++p) {
        const std::int64_t local =
            panel.row_ptr[static_cast<std::size_t>(r)] + (p - begin);
        EXPECT_EQ(panel.col_idx[static_cast<std::size_t>(local)],
                  adjacency.col_idx()[static_cast<std::size_t>(p)]);
        EXPECT_EQ(panel.values[static_cast<std::size_t>(local)],
                  adjacency.values()[static_cast<std::size_t>(p)]);
      }
    }
    row += panel.rows();
  }
  EXPECT_EQ(row, 500);
  EXPECT_FALSE(reader.value().NextPanel(&panel).ok());  // exhausted
  ASSERT_TRUE(reader.value().Rewind().ok());
  EXPECT_FALSE(reader.value().Done());
}

TEST(BlockRowReaderTest, BudgetBoundsThePanelPayload) {
  const StreamFixture fixture = MakeStreamFixture(800, "reader_budget");
  BlockRowReaderOptions options;
  options.memory_budget_bytes = 4096;
  auto reader = BlockRowReader::Open(fixture.path, options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_GT(reader.value().num_panels(), 1);
  CsrPanel panel;
  while (!reader.value().Done()) {
    ASSERT_TRUE(reader.value().NextPanel(&panel).ok());
    const std::int64_t bytes =
        (panel.rows() + 1) * 8 + panel.nnz() * 16;
    // Every multi-row panel respects the budget; a single row may exceed it.
    if (panel.rows() > 1) {
      EXPECT_LE(bytes, options.memory_budget_bytes);
    }
  }
}

TEST(BlockRowReaderTest, WholeGraphBudgetYieldsOnePanel) {
  const StreamFixture fixture = MakeStreamFixture(300, "reader_one_panel");
  auto reader = BlockRowReader::Open(fixture.path, {});  // default 64 MB
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().num_panels(), 1);
}

TEST(BlockRowReaderTest, FileTruncatedAfterOpenFailsMidStream) {
  const StreamFixture fixture = MakeStreamFixture(400, "reader_truncated");
  const std::string copy = TempPath("reader_truncated_copy.fgrbin");
  std::filesystem::copy_file(
      fixture.path, copy, std::filesystem::copy_options::overwrite_existing);
  auto reader = BlockRowReader::Open(copy, PanelOptions(64));
  ASSERT_TRUE(reader.ok());
  std::filesystem::resize_file(copy,
                               std::filesystem::file_size(copy) / 2);
  CsrPanel panel;
  Status status = Status::Ok();
  while (status.ok() && !reader.value().Done()) {
    status = reader.value().NextPanel(&panel);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --- panel kernels --------------------------------------------------------

TEST(CsrPanelViewTest, PanelwiseMultiplyIsBitIdenticalToFullSpmm) {
  const StreamFixture fixture = MakeStreamFixture(700, "panel_spmm", true);
  const SparseMatrix& w = fixture.graph.adjacency();
  const DenseMatrix x = fixture.seeds.ToOneHot();
  const DenseMatrix reference = w.Multiply(x);

  for (std::int64_t rows : PanelSweep(700)) {
    DenseMatrix out(w.rows(), x.cols());
    for (std::int64_t lo = 0; lo < w.rows(); lo += rows) {
      const std::int64_t hi = std::min<std::int64_t>(lo + rows, w.rows());
      w.PanelView(lo, hi).MultiplyInto(x, &out);
    }
    ASSERT_EQ(out.data(), reference.data()) << "panel rows " << rows;
  }
}

// --- streamed statistics --------------------------------------------------

TEST(StreamingEquivalenceTest, SerialStreamedStatisticsAreBitIdentical) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture = MakeStreamFixture(1500, "stats_serial");
  const GraphStatistics in_core =
      ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);

  for (std::int64_t rows : PanelSweep(1500)) {
    auto streamed = ComputeGraphStatisticsStreaming(
        fixture.path, fixture.seeds, 5, PathType::kNonBacktracking,
        NormalizationVariant::kRowStochastic, PanelOptions(rows));
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_EQ(streamed.value().m_raw.size(), in_core.m_raw.size());
    for (std::size_t l = 0; l < in_core.m_raw.size(); ++l) {
      EXPECT_EQ(streamed.value().m_raw[l].data(), in_core.m_raw[l].data())
          << "panel rows " << rows << ", path length " << l + 1;
      EXPECT_EQ(streamed.value().p_hat[l].data(), in_core.p_hat[l].data())
          << "panel rows " << rows << ", path length " << l + 1;
    }
  }
}

TEST(StreamingEquivalenceTest, WeightedGraphStreamsBitIdenticallyToo) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture =
      MakeStreamFixture(900, "stats_weighted", true);
  const GraphStatistics in_core =
      ComputeGraphStatistics(fixture.graph, fixture.seeds, 4);
  auto streamed = ComputeGraphStatisticsStreaming(
      fixture.path, fixture.seeds, 4, PathType::kNonBacktracking,
      NormalizationVariant::kRowStochastic, PanelOptions(97));
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  for (std::size_t l = 0; l < in_core.m_raw.size(); ++l) {
    EXPECT_EQ(streamed.value().m_raw[l].data(), in_core.m_raw[l].data());
  }
}

TEST(StreamingEquivalenceTest, ThreadedStreamedStatisticsMatchTolerance) {
  ThreadGuard guard;
  const StreamFixture fixture = MakeStreamFixture(1500, "stats_threaded");
  SetNumThreads(1);
  const GraphStatistics reference =
      ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);

  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (std::int64_t rows : PanelSweep(1500)) {
      auto streamed = ComputeGraphStatisticsStreaming(
          fixture.path, fixture.seeds, 5, PathType::kNonBacktracking,
          NormalizationVariant::kRowStochastic, PanelOptions(rows));
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      for (std::size_t l = 0; l < reference.p_hat.size(); ++l) {
        EXPECT_TRUE(AllClose(streamed.value().p_hat[l], reference.p_hat[l],
                             1e-9))
            << threads << " threads, panel rows " << rows << ", length "
            << l + 1;
      }
    }
  }
}

TEST(StreamingEquivalenceTest, FullPathVariantStreamsIdentically) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture = MakeStreamFixture(800, "stats_full_paths");
  const GraphStatistics in_core = ComputeGraphStatistics(
      fixture.graph, fixture.seeds, 3, PathType::kFull);
  auto streamed = ComputeGraphStatisticsStreaming(
      fixture.path, fixture.seeds, 3, PathType::kFull,
      NormalizationVariant::kRowStochastic, PanelOptions(1));
  ASSERT_TRUE(streamed.ok());
  for (std::size_t l = 0; l < in_core.m_raw.size(); ++l) {
    EXPECT_EQ(streamed.value().m_raw[l].data(), in_core.m_raw[l].data());
  }
}

TEST(StreamingEquivalenceTest, RejectsSeedCountMismatch) {
  const StreamFixture fixture = MakeStreamFixture(300, "stats_mismatch");
  const Labeling wrong(299, 3);
  auto streamed = ComputeGraphStatisticsStreaming(fixture.path, wrong, 3);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kInvalidArgument);
}

// --- prefetched panel pipeline --------------------------------------------

// Clones the fixture's .fgrbin so mutation tests never corrupt the file a
// later test reuses.
std::string CloneFixture(const StreamFixture& fixture,
                         const std::string& name) {
  const std::string copy = TempPath(name + ".fgrbin");
  std::filesystem::copy_file(
      fixture.path, copy, std::filesystem::copy_options::overwrite_existing);
  return copy;
}

// Flips one bit of the row_ptr entry at `index` (a panel boundary makes the
// next read of that panel fail the changed-since-Open check).
void FlipRowPtrBit(const std::string& path, std::int64_t index) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  FGR_CHECK(static_cast<bool>(file));
  const std::streamoff offset = 40 + index * 8;  // header is 40 bytes
  std::int64_t value = 0;
  file.seekg(offset);
  FGR_CHECK(static_cast<bool>(
      file.read(reinterpret_cast<char*>(&value), sizeof(value))));
  value ^= 1;
  file.seekp(offset);
  FGR_CHECK(static_cast<bool>(
      file.write(reinterpret_cast<const char*>(&value), sizeof(value))));
}

TEST(PrefetchingPanelReaderTest, DeliversIdenticalPanelsAcrossPasses) {
  const StreamFixture fixture =
      MakeStreamFixture(500, "prefetch_panels", true);
  auto sync = BlockRowReader::Open(fixture.path, PanelOptions(97));
  ASSERT_TRUE(sync.ok());
  auto async_reader = BlockRowReader::Open(fixture.path, PanelOptions(97));
  ASSERT_TRUE(async_reader.ok());
  PrefetchingPanelReader prefetched(std::move(async_reader).value());
  EXPECT_EQ(prefetched.num_nodes(), sync.value().num_nodes());
  EXPECT_EQ(prefetched.num_panels(), sync.value().num_panels());

  // Two full passes with a Rewind in between — the producer restarts and
  // must deliver the identical panel sequence again.
  for (int pass = 0; pass < 2; ++pass) {
    CsrPanel expected, got;
    while (!sync.value().Done()) {
      ASSERT_FALSE(prefetched.Done());
      ASSERT_TRUE(sync.value().NextPanel(&expected).ok());
      ASSERT_TRUE(prefetched.NextPanel(&got).ok());
      EXPECT_EQ(got.first_row, expected.first_row);
      EXPECT_EQ(got.row_ptr, expected.row_ptr);
      EXPECT_EQ(got.col_idx, expected.col_idx);
      EXPECT_EQ(got.values, expected.values);
    }
    EXPECT_TRUE(prefetched.Done());
    ASSERT_TRUE(sync.value().Rewind().ok());
    ASSERT_TRUE(prefetched.Rewind().ok());
  }
}

TEST(PrefetchingPanelReaderTest, TruncationWhileProducerRunsFailsLoudly) {
  const StreamFixture fixture = MakeStreamFixture(600, "prefetch_trunc");
  const std::string copy = CloneFixture(fixture, "prefetch_trunc_copy");
  auto opened = BlockRowReader::Open(copy, PanelOptions(16));
  ASSERT_TRUE(opened.ok());
  PrefetchingPanelReader reader(std::move(opened).value());

  CsrPanel panel;
  ASSERT_TRUE(reader.NextPanel(&panel).ok());
  std::filesystem::resize_file(copy, std::filesystem::file_size(copy) / 2);

  // The producer may have a couple of panels buffered ahead; the error must
  // still surface in-band before the stream claims completion.
  Status status = Status::Ok();
  while (status.ok() && !reader.Done()) {
    status = reader.NextPanel(&panel);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.ToString();

  // Once failed, the reader stays failed until Rewind...
  EXPECT_FALSE(reader.NextPanel(&panel).ok());
  // ...and the next pass over the still-truncated file fails loudly too.
  ASSERT_TRUE(reader.Rewind().ok());
  status = Status::Ok();
  while (status.ok() && !reader.Done()) {
    status = reader.NextPanel(&panel);
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(PrefetchingPanelReaderTest, BitFlipBetweenPassesFailsTheNextPass) {
  const StreamFixture fixture = MakeStreamFixture(400, "prefetch_flip");
  const std::string copy = CloneFixture(fixture, "prefetch_flip_copy");
  auto opened = BlockRowReader::Open(copy, PanelOptions(64));
  ASSERT_TRUE(opened.ok());
  PrefetchingPanelReader reader(std::move(opened).value());

  CsrPanel panel;
  while (!reader.Done()) ASSERT_TRUE(reader.NextPanel(&panel).ok());

  // Corrupt the row_ptr entry on the boundary between panels 1 and 2
  // (rows_per_panel = 64 → entry 128), then rewind into the next ℓ pass.
  FlipRowPtrBit(copy, 128);
  ASSERT_TRUE(reader.Rewind().ok());
  Status status = Status::Ok();
  while (status.ok() && !reader.Done()) {
    status = reader.NextPanel(&panel);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("changed since Open"), std::string::npos)
      << status.ToString();
}

TEST(BlockRowReaderTest, BitFlipBetweenPassesFailsTheSyncReader) {
  const StreamFixture fixture = MakeStreamFixture(400, "sync_flip");
  const std::string copy = CloneFixture(fixture, "sync_flip_copy");
  auto reader = BlockRowReader::Open(copy, PanelOptions(64));
  ASSERT_TRUE(reader.ok());

  CsrPanel panel;
  while (!reader.value().Done()) {
    ASSERT_TRUE(reader.value().NextPanel(&panel).ok());
  }
  FlipRowPtrBit(copy, 128);
  ASSERT_TRUE(reader.value().Rewind().ok());
  Status status = Status::Ok();
  while (status.ok() && !reader.value().Done()) {
    status = reader.value().NextPanel(&panel);
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("changed since Open"), std::string::npos)
      << status.ToString();
}

// --- streamed LinBP propagation -------------------------------------------

TEST(StreamingEquivalenceTest, StreamedLinBpIsBitIdenticalInSerial) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture =
      MakeStreamFixture(900, "linbp_stream", true);
  DceOptions dce;
  dce.restarts = 2;
  const EstimationResult estimate =
      EstimateDce(fixture.graph, fixture.seeds, dce);
  const LinBpResult in_core =
      RunLinBp(fixture.graph, fixture.seeds, estimate.h);

  for (std::int64_t rows : PanelSweep(900)) {
    auto streamed = PropagateLinBPStreaming(fixture.path, fixture.seeds,
                                            estimate.h, LinBpOptions(),
                                            PanelOptions(rows));
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(streamed.value().beliefs.data(), in_core.beliefs.data())
        << "panel rows " << rows;
    EXPECT_EQ(streamed.value().epsilon, in_core.epsilon);
    EXPECT_EQ(streamed.value().rho_w, in_core.rho_w);
    EXPECT_EQ(streamed.value().rho_h, in_core.rho_h);
    EXPECT_EQ(streamed.value().iterations_run, in_core.iterations_run);
  }
}

TEST(StreamingEquivalenceTest, StreamedLinBpMatchesToleranceWhenThreaded) {
  ThreadGuard guard;
  const StreamFixture fixture = MakeStreamFixture(900, "linbp_threaded");
  SetNumThreads(1);
  DceOptions dce;
  dce.restarts = 2;
  const EstimationResult estimate =
      EstimateDce(fixture.graph, fixture.seeds, dce);
  const LinBpResult reference =
      RunLinBp(fixture.graph, fixture.seeds, estimate.h);

  SetNumThreads(4);
  auto streamed = PropagateLinBPStreaming(fixture.path, fixture.seeds,
                                          estimate.h, LinBpOptions(),
                                          PanelOptions(97));
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(
      AllClose(streamed.value().beliefs, reference.beliefs, 1e-9));
}

TEST(StreamingEquivalenceTest, StreamedLinBpEchoCancellationMatches) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture =
      MakeStreamFixture(500, "linbp_echo", true);
  DceOptions dce;
  dce.restarts = 2;
  const EstimationResult estimate =
      EstimateDce(fixture.graph, fixture.seeds, dce);
  LinBpOptions linbp;
  linbp.echo_cancellation = true;
  linbp.early_stop_tolerance = 1e-6;
  const LinBpResult in_core =
      RunLinBp(fixture.graph, fixture.seeds, estimate.h, linbp);
  auto streamed = PropagateLinBPStreaming(
      fixture.path, fixture.seeds, estimate.h, linbp, PanelOptions(97));
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed.value().beliefs.data(), in_core.beliefs.data());
  EXPECT_EQ(streamed.value().iterations_run, in_core.iterations_run);
}

// The shared LinBP body over a streamed source whose file is truncated
// after Open: the read error must come back as the result — from the ρ(W)
// pass when no hint is given, from the first iteration pass otherwise —
// with no beliefs and no crash.
TEST(StreamingEquivalenceTest, SharedLinBpBodyReturnsTheReadError) {
  const StreamFixture fixture = MakeStreamFixture(600, "linbp_truncated");
  const std::string copy = CloneFixture(fixture, "linbp_truncated_copy");
  auto source = StreamedPanelSource::Open(copy, PanelOptions(16),
                                          fixture.seeds.num_nodes());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  std::filesystem::resize_file(copy, std::filesystem::file_size(copy) / 2);

  const DenseMatrix h = DenseMatrix::FromRows(
      {{0.8, 0.1, 0.1}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}});
  for (double rho_w_hint : {0.0, 5.0}) {
    LinBpOptions options;
    options.rho_w_hint = rho_w_hint;
    auto result =
        RunLinBpOverPanels(*source.value(), fixture.seeds, h, options);
    ASSERT_FALSE(result.ok()) << "hint " << rho_w_hint;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("truncated"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(StreamingEquivalenceTest, StreamedLinBpRejectsBadShapes) {
  const StreamFixture fixture = MakeStreamFixture(300, "linbp_shapes");
  const DenseMatrix wrong_h(2, 2);
  auto bad_h = PropagateLinBPStreaming(fixture.path, fixture.seeds, wrong_h);
  ASSERT_FALSE(bad_h.ok());
  EXPECT_EQ(bad_h.status().code(), StatusCode::kInvalidArgument);

  const Labeling wrong_seeds(299, 3);
  const DenseMatrix h(3, 3);
  auto bad_seeds = PropagateLinBPStreaming(fixture.path, wrong_seeds, h);
  ASSERT_FALSE(bad_seeds.ok());
  EXPECT_EQ(bad_seeds.status().code(), StatusCode::kInvalidArgument);
}

// --- fgr::Label routing ---------------------------------------------------

TEST(StreamingEquivalenceTest, BudgetedLabelMatchesInCore) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture =
      MakeStreamFixture(700, "label_budget", true);

  LabelOptions in_core_options;
  in_core_options.estimate.dce.restarts = 2;
  auto in_core = Label(
      DatasetRef::InMemory(fixture.graph, fixture.seeds), in_core_options);
  ASSERT_TRUE(in_core.ok()) << in_core.status().ToString();

  LabelOptions streamed_options = in_core_options;
  // A budget far below the file size forces the whole pipeline — the
  // estimation passes and the propagation — through the panel streamer.
  streamed_options.estimate.memory_budget_bytes = 4096;
  auto streamed = Label(DatasetRef::FgrBin(fixture.path, &fixture.seeds),
                        streamed_options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  EXPECT_EQ(streamed.value().estimate.h.data(),
            in_core.value().estimate.h.data());
  EXPECT_EQ(streamed.value().propagation.beliefs.data(),
            in_core.value().propagation.beliefs.data());
  EXPECT_EQ(streamed.value().labels.raw(), in_core.value().labels.raw());
  EXPECT_GT(streamed.value().labels.NumLabeled(),
            fixture.seeds.NumLabeled());
}

TEST(StreamingEquivalenceTest, UnbudgetedPathLabelLoadsInCore) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture = MakeStreamFixture(400, "label_incore");
  LabelOptions options;
  options.estimate.dce.restarts = 2;
  auto from_path =
      Label(DatasetRef::FgrBin(fixture.path, &fixture.seeds), options);
  ASSERT_TRUE(from_path.ok()) << from_path.status().ToString();
  auto from_memory =
      Label(DatasetRef::InMemory(fixture.graph, fixture.seeds), options);
  ASSERT_TRUE(from_memory.ok());
  EXPECT_EQ(from_path.value().labels.raw(), from_memory.value().labels.raw());
  EXPECT_EQ(from_path.value().propagation.beliefs.data(),
            from_memory.value().propagation.beliefs.data());
}

// --- LCE M/B panel accumulators -------------------------------------------

TEST(StreamingEquivalenceTest, LceStatisticsFoldTheSameOverPanelRanges) {
  ThreadGuard guard;
  SetNumThreads(1);
  const StreamFixture fixture = MakeStreamFixture(500, "lce_ranges", true);
  const std::int64_t k = fixture.seeds.num_classes();
  const DenseMatrix n =
      fixture.graph.adjacency().Multiply(fixture.seeds.ToOneHot());

  DenseMatrix m_whole(k, k), b_whole(k, k);
  AccumulateLceStatistics(fixture.seeds, n, 0, n.rows(), &m_whole, &b_whole);

  // Panel-shaped folding in ascending ranges — what a streamed LCE would
  // do with the rows of N produced from each W panel — must agree exactly
  // in serial runs.
  for (std::int64_t rows : PanelSweep(500)) {
    DenseMatrix m(k, k), b(k, k);
    for (std::int64_t lo = 0; lo < n.rows(); lo += rows) {
      const std::int64_t hi = std::min<std::int64_t>(lo + rows, n.rows());
      AccumulateLceStatistics(fixture.seeds, n, lo, hi, &m, &b);
    }
    EXPECT_EQ(m.data(), m_whole.data()) << "panel rows " << rows;
    EXPECT_EQ(b.data(), b_whole.data()) << "panel rows " << rows;
  }
}

// --- end-to-end DCE over the mimic datasets -------------------------------

// Acceptance gate: the streamed fgr::Estimate route must land within 1e-9 of
// the in-core estimate on every mimic dataset, at panel sizes down to a
// single block-row, in both the serial and 4-thread CI runs (the suite
// executes under both settings). The mimics are scaled down so the sweep
// stays fast; the estimation problem (planted gold H, power-law degrees,
// class skew) is unchanged by scale.
TEST(StreamingEquivalenceTest, StreamedDceMatchesInCoreOnAllMimics) {
  for (const DatasetSpec& spec : RealWorldDatasetSpecs()) {
    Rng rng(7);
    auto mimic = GenerateDatasetMimic(spec, 0.001, rng);
    ASSERT_TRUE(mimic.ok()) << spec.name;
    const Graph& graph = mimic.value().graph;
    Rng seed_rng(11);
    const Labeling seeds =
        SampleStratifiedSeeds(mimic.value().labels, 0.05, seed_rng);
    const std::string path =
        TempPath("mimic_" + DatasetSlug(spec.name) + ".fgrbin");
    ASSERT_TRUE(WriteFgrBin(graph, nullptr, nullptr, path).ok());

    DceOptions options;
    options.restarts = 2;
    const EstimationResult in_core = EstimateDce(graph, seeds, options);
    for (std::int64_t rows : {std::int64_t{1}, graph.num_nodes()}) {
      EstimateOptions streamed_options;
      streamed_options.dce = options;
      streamed_options.reader = PanelOptions(rows);
      streamed_options.memory_budget_bytes =
          streamed_options.reader.memory_budget_bytes;
      auto streamed =
          Estimate(DatasetRef::FgrBin(path, &seeds), streamed_options);
      ASSERT_TRUE(streamed.ok())
          << spec.name << ": " << streamed.status().ToString();
      EXPECT_TRUE(AllClose(streamed.value().h, in_core.h, 1e-9))
          << spec.name << " at panel rows " << rows << "\nstreamed:\n"
          << streamed.value().h.ToString(12) << "\nin-core:\n"
          << in_core.h.ToString(12);
      EXPECT_EQ(streamed.value().restarts_used, in_core.restarts_used);
    }
  }
}

}  // namespace
}  // namespace fgr
