// Determinism and serial-vs-threaded equivalence tests for the parallel
// backend. Row-partitioned kernels (SpMM, SpMV, CSR assembly) must match the
// serial results bit for bit at any thread count; sharded reductions
// (summarization, LCE/DCE end-to-end) reassociate floating-point sums and
// must match within tolerance.

#include <cmath>
#include <cstdint>
#include <vector>

#include "fgr/fgr.h"
#include "gtest/gtest.h"
#include "util/arena.h"
#include "util/parallel.h"

namespace fgr {
namespace {

class ThreadGuard {
 public:
  ~ThreadGuard() { SetNumThreads(0); }
};

SparseMatrix RandomSparse(std::int64_t rows, std::int64_t cols,
                          std::int64_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz));
  for (std::int64_t i = 0; i < nnz; ++i) {
    triplets.push_back(
        {rng.UniformInt(rows), rng.UniformInt(cols), rng.Uniform(-2.0, 2.0)});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

DenseMatrix RandomDense(std::int64_t rows, std::int64_t cols,
                        std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix x(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) x(i, j) = rng.Uniform(-1.0, 1.0);
  }
  return x;
}

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.data(), b.data());
}

struct PlantedFixture {
  Graph graph;
  Labeling truth;
  Labeling seeds;
};

PlantedFixture MakePlantedFixture(std::int64_t n) {
  Rng rng(4242);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(n, 8.0, 3, 3.0), rng);
  FGR_CHECK(planted.ok());
  PlantedFixture fixture;
  fixture.graph = std::move(planted.value().graph);
  fixture.truth = std::move(planted.value().labels);
  fixture.seeds = SampleStratifiedSeeds(fixture.truth, 0.05, rng);
  return fixture;
}

TEST(ParallelEquivalenceTest, SpmmIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SparseMatrix w = RandomSparse(3000, 3000, 30000, 7);
  const DenseMatrix x = RandomDense(3000, 5, 11);

  SetNumThreads(1);
  const DenseMatrix serial = w.Multiply(x);
  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    ExpectBitIdentical(w.Multiply(x), serial);
  }
}

TEST(ParallelEquivalenceTest, SpmvIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const SparseMatrix w = RandomSparse(5000, 4000, 40000, 13);
  Rng rng(17);
  std::vector<double> x(4000);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);

  SetNumThreads(1);
  std::vector<double> serial;
  w.MultiplyVector(x, &serial);
  SetNumThreads(4);
  std::vector<double> threaded;
  w.MultiplyVector(x, &threaded);
  EXPECT_EQ(serial, threaded);
}

TEST(ParallelEquivalenceTest, FromTripletsIsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // Include duplicate coordinates so the merge path is exercised.
  Rng rng(23);
  std::vector<Triplet> triplets;
  for (std::int64_t i = 0; i < 50000; ++i) {
    triplets.push_back(
        {rng.UniformInt(2000), rng.UniformInt(500), rng.Uniform(-1.0, 1.0)});
  }

  SetNumThreads(1);
  const SparseMatrix serial = SparseMatrix::FromTriplets(2000, 500, triplets);
  SetNumThreads(4);
  const SparseMatrix threaded = SparseMatrix::FromTriplets(2000, 500, triplets);

  EXPECT_EQ(serial.row_ptr(), threaded.row_ptr());
  EXPECT_EQ(serial.col_idx(), threaded.col_idx());
  EXPECT_EQ(serial.values(), threaded.values());
}

TEST(ParallelEquivalenceTest, LinBpBeliefsMatchAcrossThreadCounts) {
  ThreadGuard guard;
  const PlantedFixture fixture = MakePlantedFixture(2000);
  const DenseMatrix h = MakeSkewCompatibility(3, 3.0);

  SetNumThreads(1);
  const LinBpResult serial = RunLinBp(fixture.graph, fixture.seeds, h, {});
  SetNumThreads(4);
  const LinBpResult threaded = RunLinBp(fixture.graph, fixture.seeds, h, {});

  EXPECT_EQ(serial.iterations_run, threaded.iterations_run);
  EXPECT_TRUE(AllClose(serial.beliefs, threaded.beliefs, 1e-9));
}

TEST(ParallelEquivalenceTest, HarmonicBeliefsMatchAcrossThreadCounts) {
  ThreadGuard guard;
  const PlantedFixture fixture = MakePlantedFixture(2000);

  SetNumThreads(1);
  const HarmonicResult serial =
      RunHarmonicFunctions(fixture.graph, fixture.seeds, {});
  SetNumThreads(4);
  const HarmonicResult threaded =
      RunHarmonicFunctions(fixture.graph, fixture.seeds, {});

  EXPECT_EQ(serial.iterations_run, threaded.iterations_run);
  EXPECT_TRUE(AllClose(serial.beliefs, threaded.beliefs, 1e-9));
}

TEST(ParallelEquivalenceTest, DceEstimateMatchesAcrossThreadCounts) {
  ThreadGuard guard;
  const PlantedFixture fixture = MakePlantedFixture(2000);
  DceOptions options;
  options.restarts = 4;

  SetNumThreads(1);
  const EstimationResult serial =
      EstimateDce(fixture.graph, fixture.seeds, options);
  SetNumThreads(4);
  const EstimationResult threaded =
      EstimateDce(fixture.graph, fixture.seeds, options);

  EXPECT_EQ(serial.restarts_used, threaded.restarts_used);
  EXPECT_NEAR(serial.energy, threaded.energy,
              1e-8 * (1.0 + std::fabs(serial.energy)));
  EXPECT_TRUE(AllClose(serial.h, threaded.h, 1e-6));
}

TEST(ParallelEquivalenceTest, LceEstimateMatchesAcrossThreadCounts) {
  ThreadGuard guard;
  const PlantedFixture fixture = MakePlantedFixture(2000);

  SetNumThreads(1);
  const EstimationResult serial = EstimateLce(fixture.graph, fixture.seeds, {});
  SetNumThreads(4);
  const EstimationResult threaded =
      EstimateLce(fixture.graph, fixture.seeds, {});

  EXPECT_NEAR(serial.energy, threaded.energy,
              1e-8 * (1.0 + std::fabs(serial.energy)));
  EXPECT_TRUE(AllClose(serial.h, threaded.h, 1e-6));
}

TEST(ParallelEquivalenceTest, NumericGradientIsBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  const FunctionObjective objective([](const std::vector<double>& x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      sum += (static_cast<double>(i) + 1.0) * x[i] * x[i];
    }
    return sum;
  });
  const std::vector<double> x = {0.3, -1.2, 0.7, 2.5, -0.4, 1.1};

  SetNumThreads(1);
  const std::vector<double> serial = NumericGradient(objective, x);
  SetNumThreads(4);
  const std::vector<double> threaded = NumericGradient(objective, x);
  EXPECT_EQ(serial, threaded);
}

TEST(ParallelEquivalenceTest, PlantedGenerationIsBitIdenticalAcrossThreads) {
  // The generator's parallel stages (stub fill, DeterministicShuffle, edge
  // wiring, CSR assembly) are all thread-count invariant, so the same seed
  // must give the same graph — not merely a statistically equivalent one.
  ThreadGuard guard;
  SetNumThreads(1);
  Rng serial_rng(31);
  auto serial =
      GeneratePlantedGraph(MakeSkewConfig(3000, 15.0, 3, 3.0), serial_rng);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    Rng threaded_rng(31);
    auto threaded =
        GeneratePlantedGraph(MakeSkewConfig(3000, 15.0, 3, 3.0), threaded_rng);
    ASSERT_TRUE(threaded.ok());
    EXPECT_EQ(threaded.value().graph.num_edges(),
              serial.value().graph.num_edges());
    EXPECT_EQ(threaded.value().graph.adjacency().row_ptr(),
              serial.value().graph.adjacency().row_ptr());
    EXPECT_EQ(threaded.value().graph.adjacency().col_idx(),
              serial.value().graph.adjacency().col_idx());
    EXPECT_EQ(threaded.value().labels.raw(), serial.value().labels.raw());
  }
}

TEST(ParallelEquivalenceTest, DatasetMimicIsBitIdenticalAcrossThreads) {
  auto spec = FindDatasetSpec("MovieLens");
  ASSERT_TRUE(spec.ok());
  ThreadGuard guard;
  SetNumThreads(1);
  Rng serial_rng(5);
  auto serial = GenerateDatasetMimic(spec.value(), 0.02, serial_rng);
  ASSERT_TRUE(serial.ok());
  SetNumThreads(4);
  Rng threaded_rng(5);
  auto threaded = GenerateDatasetMimic(spec.value(), 0.02, threaded_rng);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(threaded.value().graph.adjacency().col_idx(),
            serial.value().graph.adjacency().col_idx());
  EXPECT_EQ(threaded.value().labels.raw(), serial.value().labels.raw());
}

TEST(ParallelEquivalenceTest, EdgeListParsingMatchesAcrossThreadCounts) {
  ThreadGuard guard;
  SetNumThreads(1);
  Rng rng(67);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(2000, 10.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  const std::string path = testing::TempDir() + "/parallel_parse.edges";
  ASSERT_TRUE(WriteEdgeList(planted.value().graph, path).ok());

  auto serial = ReadEdgeList(path);
  ASSERT_TRUE(serial.ok());
  SetNumThreads(4);
  auto threaded = ReadEdgeList(path);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(threaded.value().adjacency().row_ptr(),
            serial.value().adjacency().row_ptr());
  EXPECT_EQ(threaded.value().adjacency().col_idx(),
            serial.value().adjacency().col_idx());
  EXPECT_EQ(threaded.value().adjacency().values(),
            serial.value().adjacency().values());
}

class KernelIsaGuard {
 public:
  ~KernelIsaGuard() { kernels::ResetKernelIsaForTest(); }
};

// Relative agreement against the scalar variant (kernels.h contract).
void ExpectWithinVariantTolerance(const DenseMatrix& scalar,
                                  const DenseMatrix& simd) {
  ASSERT_EQ(scalar.rows(), simd.rows());
  ASSERT_EQ(scalar.cols(), simd.cols());
  for (std::int64_t i = 0; i < scalar.rows(); ++i) {
    for (std::int64_t j = 0; j < scalar.cols(); ++j) {
      EXPECT_NEAR(scalar(i, j), simd(i, j),
                  kernels::kKernelVariantTolerance *
                      (1.0 + std::fabs(scalar(i, j))))
          << i << "," << j;
    }
  }
}

TEST(ParallelEquivalenceTest, KernelVariantsKeepThreadCountBitIdentity) {
  // The PR 2 determinism contract, per variant: for any FIXED kernel ISA,
  // row-partitioned SpMM/SpMV stay bit-identical across thread counts, and
  // the SIMD results match scalar within the pinned tolerance.
  ThreadGuard thread_guard;
  KernelIsaGuard isa_guard;
  const SparseMatrix w = RandomSparse(3000, 3000, 30000, 71);
  const DenseMatrix x = RandomDense(3000, 5, 73);
  Rng rng(79);
  std::vector<double> xv(3000);
  for (double& v : xv) v = rng.Uniform(-1.0, 1.0);

  ASSERT_TRUE(kernels::SetKernelIsaForTest(kernels::Isa::kScalar));
  SetNumThreads(1);
  const DenseMatrix scalar_spmm = w.Multiply(x);
  std::vector<double> scalar_spmv;
  w.MultiplyVector(xv, &scalar_spmv);

  for (kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::IsaAvailable(isa)) continue;
    ASSERT_TRUE(kernels::SetKernelIsaForTest(isa));
    SetNumThreads(1);
    const DenseMatrix serial_spmm = w.Multiply(x);
    std::vector<double> serial_spmv;
    w.MultiplyVector(xv, &serial_spmv);
    if (isa == kernels::Isa::kScalar) {
      // FGR_KERNEL=scalar is the historical code path, bit for bit.
      ExpectBitIdentical(serial_spmm, scalar_spmm);
      EXPECT_EQ(serial_spmv, scalar_spmv);
    } else {
      ExpectWithinVariantTolerance(scalar_spmm, serial_spmm);
      ASSERT_EQ(scalar_spmv.size(), serial_spmv.size());
      for (std::size_t i = 0; i < scalar_spmv.size(); ++i) {
        EXPECT_NEAR(scalar_spmv[i], serial_spmv[i],
                    kernels::kKernelVariantTolerance *
                        (1.0 + std::fabs(scalar_spmv[i])))
            << "spmv [" << i << "]";
      }
    }
    for (int threads : {2, 4}) {
      SetNumThreads(threads);
      ExpectBitIdentical(w.Multiply(x), serial_spmm);
      std::vector<double> threaded_spmv;
      w.MultiplyVector(xv, &threaded_spmv);
      EXPECT_EQ(threaded_spmv, serial_spmv);
    }
  }
}

TEST(ParallelEquivalenceTest, SummarizerFoldReusesArenaScratch) {
  // PanelSummarizer::FoldClassCounts draws its per-shard k×k partials from
  // the calling thread's arena, so once the arena is warm, repeated
  // summarization passes must not reserve new blocks. 16k+ rows at 4
  // threads make the fold split into several shards (grain 4096), which is
  // the only case that touches the arena.
  ThreadGuard guard;
  SetNumThreads(4);
  const PlantedFixture fixture = MakePlantedFixture(20000);
  ASSERT_GT(NumShards(fixture.graph.num_nodes(), /*grain=*/4096), 1);
  ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);  // warm the arena
  const Arena::Stats warm = ThreadLocalArena().stats();
  for (int pass = 0; pass < 3; ++pass) {
    ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);
  }
  const Arena::Stats after = ThreadLocalArena().stats();
  EXPECT_GT(after.allocations, warm.allocations) << "fold bypassed the arena";
  EXPECT_EQ(after.blocks_allocated, warm.blocks_allocated);
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
}

TEST(ParallelEquivalenceTest, SummarizationMatchesAcrossThreadCounts) {
  ThreadGuard guard;
  const PlantedFixture fixture = MakePlantedFixture(3000);

  SetNumThreads(1);
  const GraphStatistics serial =
      ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);
  SetNumThreads(4);
  const GraphStatistics threaded =
      ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);

  ASSERT_EQ(serial.p_hat.size(), threaded.p_hat.size());
  for (std::size_t l = 0; l < serial.p_hat.size(); ++l) {
    EXPECT_TRUE(AllClose(serial.p_hat[l], threaded.p_hat[l], 1e-9))
        << "path length " << l + 1;
  }
}

}  // namespace
}  // namespace fgr
