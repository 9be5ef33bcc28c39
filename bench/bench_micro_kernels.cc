// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// SpMM (the inner step of propagation and summarization), CSR assembly,
// the full factorized summarization, spectral radius, one LinBP run, the
// DCE objective/gradient evaluation (the graph-size-independent inner loop
// of the optimization step), a warm DCEr estimate over cached statistics,
// and the numeric gradient.
//
// Kernels that ride the parallel backend take a trailing thread-count
// argument (benchmark name suffix `/threads:N` reads as the last `/N`);
// 1 thread is the serial baseline. Thread counts beyond the machine's core
// count measure oversubscription, not speedup.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fgr/fgr.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace fgr {
namespace {

struct Fixture {
  Graph graph;
  Labeling truth;
  Labeling seeds;
  double rho_w = 0.0;
};

const Fixture& SharedFixture(std::int64_t n, double degree) {
  // Keyed cache so each size is generated once per process.
  static auto& cache = *new std::map<std::int64_t, std::unique_ptr<Fixture>>();
  auto& slot = cache[n];
  if (!slot) {
    Rng rng(99);
    auto planted =
        GeneratePlantedGraph(MakeSkewConfig(n, degree, 3, 3.0), rng);
    FGR_CHECK(planted.ok());
    slot = std::make_unique<Fixture>();
    slot->graph = std::move(planted.value().graph);
    slot->truth = std::move(planted.value().labels);
    slot->seeds = SampleStratifiedSeeds(slot->truth, 0.01, rng);
    slot->rho_w = SpectralRadius(slot->graph.adjacency());
  }
  return *slot;
}

DenseMatrix RandomBeliefs(std::int64_t n, std::int64_t k) {
  Rng rng(7);
  DenseMatrix x(n, k);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) x(i, j) = rng.Uniform(0.0, 1.0);
  }
  return x;
}

void BM_SpMM(benchmark::State& state) {
  const Fixture& fixture = SharedFixture(state.range(0), 25.0);
  const std::int64_t k = state.range(1);
  SetNumThreads(static_cast<int>(state.range(2)));
  const DenseMatrix x = RandomBeliefs(state.range(0), k);
  DenseMatrix out;
  for (auto _ : state) {
    fixture.graph.adjacency().Multiply(x, &out);
    benchmark::DoNotOptimize(out.data().data());
  }
  SetNumThreads(0);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(fixture.graph.num_edges() * 2),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SpMM)
    ->ArgsProduct({{10000}, {2, 5, 10}, {1, 2, 4, 8}})
    ->ArgsProduct({{100000}, {5}, {1, 2, 4, 8}})
    ->ArgNames({"n", "k", "threads"});

// One million *disabled* trace spans per iteration — the "near-zero cost
// when off" contract, measured directly. A healthy disabled span is one
// relaxed atomic load (~0.3 ns measured; 1M spans ≈ 0.3 ms), so the
// tracing_off_overhead gate's ratio against the ~14 ms n=100k SpMM sits
// near 0.02. Sneak a clock read into the disabled constructor and the
// same loop costs ~20 ms (ratio ~1.4) — the 0.5 bound has an order of
// magnitude of headroom on both sides, which short quick-mode benchmark
// runs on a noisy runner cannot bridge.
void BM_DisabledTraceSpans(benchmark::State& state) {
  obs::DisableTracing();
  const std::int64_t spans = state.range(0);
  for (auto _ : state) {
    for (std::int64_t span = 0; span < spans; ++span) {
      FGR_TRACE_SPAN("bench/spmm_disabled");
    }
  }
  state.counters["sec_per_span"] = benchmark::Counter(
      static_cast<double>(spans),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DisabledTraceSpans)->Arg(1000000)->ArgNames({"spans"});

// Kernel-variant dimension: the same SpMM with the ISA pinned via
// SetKernelIsaForTest, so the dispatch cost and the SIMD win are
// measured head to head on one binary. Cases are registered at runtime
// (RegisterKernelIsaBenches) because the variant list depends on what this
// build compiled in and this CPU supports:
//   * isa:scalar — always, the portable baseline;
//   * isa:best   — the widest supported variant, only when that is not
//                  scalar (its SetLabel carries the actual ISA name);
//   * isa:avx2 / isa:avx512 at k=5, threads:1 — each supported variant
//     individually, so the trajectory can tell the two apart.
// The perf gate's simd_spmm_speedup invariant reads the k=5/threads:1
// scalar-vs-best pair (tools/bench_lib.py).
void RunSpmmIsa(benchmark::State& state, kernels::Isa isa, std::int64_t n,
                std::int64_t k, int threads) {
  FGR_CHECK(kernels::SetKernelIsaForTest(isa))
      << "variant " << kernels::IsaName(isa) << " unavailable";
  const Fixture& fixture = SharedFixture(n, 25.0);
  SetNumThreads(threads);
  const DenseMatrix x = RandomBeliefs(n, k);
  DenseMatrix out;
  for (auto _ : state) {
    fixture.graph.adjacency().Multiply(x, &out);
    benchmark::DoNotOptimize(out.data().data());
  }
  SetNumThreads(0);
  kernels::ResetKernelIsaForTest();
  state.SetLabel(kernels::IsaName(isa));
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(fixture.graph.num_edges() * 2),
      benchmark::Counter::kIsIterationInvariantRate);
}

void RegisterSpmmIsaCase(const std::string& isa_label, kernels::Isa isa,
                         std::int64_t n, std::int64_t k, int threads) {
  const std::string name = "BM_SpMMIsa/isa:" + isa_label +
                           "/n:" + std::to_string(n) +
                           "/k:" + std::to_string(k) +
                           "/threads:" + std::to_string(threads);
  benchmark::RegisterBenchmark(name.c_str(),
                               [isa, n, k, threads](benchmark::State& state) {
                                 RunSpmmIsa(state, isa, n, k, threads);
                               });
}

void RegisterKernelIsaBenches() {
  kernels::Isa best = kernels::Isa::kScalar;
  if (kernels::IsaAvailable(kernels::Isa::kAvx2)) {
    best = kernels::Isa::kAvx2;
  }
  if (kernels::IsaAvailable(kernels::Isa::kAvx512)) {
    best = kernels::Isa::kAvx512;
  }
  std::vector<std::pair<std::string, kernels::Isa>> variants;
  variants.emplace_back("scalar", kernels::Isa::kScalar);
  if (best != kernels::Isa::kScalar) variants.emplace_back("best", best);
  for (const auto& [label, isa] : variants) {
    for (std::int64_t k : {2, 5, 10}) {
      for (int threads : {1, 4}) {
        RegisterSpmmIsaCase(label, isa, 100000, k, threads);
      }
    }
  }
  // Each supported SIMD variant under its own name, single-threaded k=5.
  if (kernels::IsaAvailable(kernels::Isa::kAvx2)) {
    RegisterSpmmIsaCase("avx2", kernels::Isa::kAvx2, 100000, 5, 1);
  }
  if (kernels::IsaAvailable(kernels::Isa::kAvx512)) {
    RegisterSpmmIsaCase("avx512", kernels::Isa::kAvx512, 100000, 5, 1);
  }
}

void BM_CsrFromTriplets(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t nnz = n * 25;
  SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(3);
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz));
  for (std::int64_t i = 0; i < nnz; ++i) {
    triplets.push_back({rng.UniformInt(n), rng.UniformInt(n), 1.0});
  }
  for (auto _ : state) {
    const SparseMatrix m = SparseMatrix::FromTriplets(n, n, triplets);
    benchmark::DoNotOptimize(m.nnz());
  }
  SetNumThreads(0);
  state.counters["triplets_per_sec"] = benchmark::Counter(
      static_cast<double>(nnz), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CsrFromTriplets)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

void BM_GraphSummarization(benchmark::State& state) {
  const Fixture& fixture = SharedFixture(state.range(0), 25.0);
  SetNumThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const GraphStatistics stats =
        ComputeGraphStatistics(fixture.graph, fixture.seeds, 5);
    benchmark::DoNotOptimize(stats.p_hat.front()(0, 0));
  }
  SetNumThreads(0);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(fixture.graph.num_edges() * 2 * 5),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GraphSummarization)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

void BM_SpectralRadius(benchmark::State& state) {
  const Fixture& fixture = SharedFixture(state.range(0), 25.0);
  SetNumThreads(static_cast<int>(state.range(1)));
  const std::int64_t spmv_before =
      obs::GetCounter(obs::PipelineCounter::kKernelSpmvCalls);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpectralRadius(fixture.graph.adjacency()));
  }
  SetNumThreads(0);
  // Multiplies (passes over W) per radius: one SpMV each on the in-core
  // matrix.
  state.counters["multiplies"] = benchmark::Counter(
      static_cast<double>(
          obs::GetCounter(obs::PipelineCounter::kKernelSpmvCalls) -
          spmv_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SpectralRadius)
    ->ArgsProduct({{10000, 100000}, {1, 4}})
    ->ArgNames({"n", "threads"});

void BM_LinBpPropagation(benchmark::State& state) {
  const Fixture& fixture = SharedFixture(state.range(0), 25.0);
  SetNumThreads(static_cast<int>(state.range(1)));
  const DenseMatrix h = MakeSkewCompatibility(3, 3.0);
  LinBpOptions options;
  options.rho_w_hint = fixture.rho_w;
  for (auto _ : state) {
    const LinBpResult result =
        RunLinBp(fixture.graph, fixture.seeds, h, options);
    benchmark::DoNotOptimize(result.beliefs(0, 0));
  }
  SetNumThreads(0);
}
BENCHMARK(BM_LinBpPropagation)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

// P̂(ℓ) = Hℓ for ℓ = 1..5 of the skew matrix, and two parameter points
// near it: the DCE benches alternate between them so the workspace's memo
// never hits and each evaluation computes its powers from scratch.
struct DceBenchInputs {
  DceObjective objective;
  std::vector<double> points[2];
};

DceBenchInputs MakeDceBenchInputs(std::int64_t k) {
  const DenseMatrix h = MakeSkewCompatibility(k, 3.0);
  std::vector<DenseMatrix> p_hat;
  DenseMatrix power = h;
  for (int l = 1; l <= 5; ++l) {
    if (l > 1) power = power.Multiply(h);
    p_hat.push_back(power);
  }
  DceBenchInputs inputs{DceObjective::WithGeometricWeights(p_hat, 10.0), {}};
  inputs.points[0] = ParametersFromCompatibility(h);
  inputs.points[1] = inputs.points[0];
  for (double& v : inputs.points[1]) v += 1e-3;
  return inputs;
}

void BM_DceObjectiveValue(benchmark::State& state) {
  const DceBenchInputs inputs = MakeDceBenchInputs(state.range(0));
  DceObjective::Workspace workspace(inputs.objective);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inputs.objective.Evaluate(inputs.points[next], &workspace, nullptr));
    next ^= 1;
  }
}
BENCHMARK(BM_DceObjectiveValue)->Arg(3)->Arg(7);

// The one evaluation body with the gradient: energy, all 2ℓmax−1 powers
// and the Prop. 4.7 entry gradient, through a reused workspace.
void BM_DceObjectiveGradient(benchmark::State& state) {
  const DceBenchInputs inputs = MakeDceBenchInputs(state.range(0));
  DceObjective::Workspace workspace(inputs.objective);
  std::vector<double> gradient;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        inputs.objective.Evaluate(inputs.points[next], &workspace, &gradient));
    benchmark::DoNotOptimize(gradient.data());
    next ^= 1;
  }
}
BENCHMARK(BM_DceObjectiveGradient)->Arg(3)->Arg(7);

// A warm estimate: the DCEr restarts over cached statistics (a planted
// graph with 2% seeds), all a warm served estimate computes.
void BM_DceWarmEstimate(benchmark::State& state) {
  const std::int64_t k = state.range(0);
  static auto& cache = *new std::map<std::int64_t, GraphStatistics>();
  auto it = cache.find(k);
  if (it == cache.end()) {
    Rng rng(static_cast<std::uint64_t>(k));
    auto planted =
        GeneratePlantedGraph(MakeSkewConfig(20000, 20.0, k, 3.0), rng);
    FGR_CHECK(planted.ok());
    const Labeling seeds =
        SampleStratifiedSeeds(planted.value().labels, 0.02, rng);
    it = cache.emplace(k, ComputeGraphStatistics(planted.value().graph,
                                                 seeds, 5)).first;
  }
  DceOptions options;
  options.max_path_length = 5;
  options.restarts = static_cast<int>(state.range(1));
  SetNumThreads(static_cast<int>(state.range(2)));
  for (auto _ : state) {
    const EstimationResult result =
        EstimateDceFromStatistics(it->second, k, options);
    benchmark::DoNotOptimize(result.h(0, 0));
  }
  SetNumThreads(0);
}
BENCHMARK(BM_DceWarmEstimate)
    ->ArgsProduct({{3, 5, 7}, {1, 10}, {1, 4}})
    ->ArgNames({"k", "restarts", "threads"})
    ->Unit(benchmark::kMicrosecond);

void BM_NumericGradient(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(1)));
  const DceBenchInputs inputs = MakeDceBenchInputs(state.range(0));
  for (auto _ : state) {
    const std::vector<double> gradient =
        NumericGradient(inputs.objective, inputs.points[0]);
    benchmark::DoNotOptimize(gradient.data());
  }
  SetNumThreads(0);
}
BENCHMARK(BM_NumericGradient)
    ->ArgsProduct({{7}, {1, 2, 4, 8}})
    ->ArgNames({"k", "threads"});

void BM_PlantedGeneration(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    Rng rng(1);
    auto planted = GeneratePlantedGraph(
        MakeSkewConfig(state.range(0), 25.0, 3, 3.0), rng);
    benchmark::DoNotOptimize(planted.ok());
  }
  SetNumThreads(0);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * 12.5,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PlantedGeneration)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

// Ingestion benchmarks: the same planted graph written once as a text edge
// list and as a .fgrbin cache, then re-read per iteration. The fgrbin read
// is the O(read) bar the text parser is measured against.
const std::string& IngestionFixturePath(std::int64_t n, bool binary) {
  static auto& cache = *new std::map<std::pair<std::int64_t, bool>,
                                     std::unique_ptr<std::string>>();
  auto& slot = cache[{n, binary}];
  if (!slot) {
    const Fixture& fixture = SharedFixture(n, 25.0);
    std::string path = "/tmp/fgr_bench_ingest_" + std::to_string(n) +
                       (binary ? ".fgrbin" : ".edges");
    if (binary) {
      LabeledGraph data;
      data.name = "bench";
      data.graph = fixture.graph;
      data.labels = fixture.truth;
      FGR_CHECK(WriteFgrBin(data, path).ok());
    } else {
      FGR_CHECK(WriteEdgeList(fixture.graph, path).ok());
    }
    slot = std::make_unique<std::string>(std::move(path));
  }
  return *slot;
}

void BM_EdgeListParse(benchmark::State& state) {
  const std::string& path = IngestionFixturePath(state.range(0), false);
  SetNumThreads(static_cast<int>(state.range(1)));
  EdgeListReadOptions options;
  options.streaming = state.range(2) != 0;
  std::int64_t edges = 0;
  for (auto _ : state) {
    auto graph = ReadEdgeList(path, options);
    FGR_CHECK(graph.ok()) << graph.status().ToString();
    edges = graph.value().num_edges();
    benchmark::DoNotOptimize(edges);
  }
  SetNumThreads(0);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(edges),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EdgeListParse)
    ->ArgsProduct({{100000}, {1, 2, 4, 8}, {0, 1}})
    ->ArgNames({"n", "threads", "streaming"});

void BM_FgrBinRead(benchmark::State& state) {
  const std::string& path = IngestionFixturePath(state.range(0), true);
  SetNumThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto loaded = ReadFgrBin(path);
    FGR_CHECK(loaded.ok()) << loaded.status().ToString();
    benchmark::DoNotOptimize(loaded.value().graph.num_edges());
  }
  SetNumThreads(0);
}
BENCHMARK(BM_FgrBinRead)
    ->ArgsProduct({{100000}, {1, 4}})
    ->ArgNames({"n", "threads"});

// The zero-copy reader on the same cache: the same validation as
// BM_FgrBinRead over the mapped sections, minus the section copies.
void BM_MappedFgrBinOpen(benchmark::State& state) {
  const std::string& path = IngestionFixturePath(state.range(0), true);
  SetNumThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto mapped = MappedFgrBin::Open(path);
    FGR_CHECK(mapped.ok()) << mapped.status().ToString();
    benchmark::DoNotOptimize(mapped.value().data());
  }
  SetNumThreads(0);
}
BENCHMARK(BM_MappedFgrBinOpen)
    ->ArgsProduct({{100000}, {1, 4}})
    ->ArgNames({"n", "threads"});

// In-core vs streamed summarization: the same graph summarized from RAM
// and from its .fgrbin cache at a sweep of panel sizes. rows_per_panel = 0
// is the budget-default single panel (pure streaming overhead: ℓmax passes
// of sequential reads); small panels add per-panel seek/validate cost. The
// gap to BM_GraphSummarization is the price of never materializing the CSR.
void BM_StreamingSummarization(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::string& path = IngestionFixturePath(n, true);
  const Fixture& fixture = SharedFixture(n, 25.0);
  SetNumThreads(static_cast<int>(state.range(2)));
  BlockRowReaderOptions options;
  options.rows_per_panel = state.range(1);
  for (auto _ : state) {
    auto stats = ComputeGraphStatisticsStreaming(
        path, fixture.seeds, 5, PathType::kNonBacktracking,
        NormalizationVariant::kRowStochastic, options);
    FGR_CHECK(stats.ok()) << stats.status().ToString();
    benchmark::DoNotOptimize(stats.value().p_hat.front()(0, 0));
  }
  SetNumThreads(0);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(fixture.graph.num_edges() * 2 * 5),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_StreamingSummarization)
    ->ArgsProduct({{100000}, {0, 1024, 8192, 65536}, {1, 4}})
    ->ArgNames({"n", "panel_rows", "threads"});

// The prefetch baseline: a PanelSource that reads every panel inline on
// the compute thread with a bare BlockRowReader.
class InlineReadSource final : public PanelSource {
 public:
  explicit InlineReadSource(BlockRowReader reader)
      : reader_(std::move(reader)) {}
  std::int64_t num_nodes() const override { return reader_.num_nodes(); }
  Status ForEachPanel(const PanelFn& fn) override {
    FGR_RETURN_IF_ERROR(reader_.Rewind());
    while (!reader_.Done()) {
      FGR_RETURN_IF_ERROR(reader_.NextPanel(&panel_));
      fn(panel_.View(reader_.num_nodes()));
    }
    return Status::Ok();
  }

 private:
  BlockRowReader reader_;
  CsrPanel panel_;
};

// Sync vs prefetched panel pipeline: the same streamed summarization body
// over inline reads (prefetch:0, InlineReadSource) and over the library's
// StreamedPanelSource (prefetch:1, reads overlap compute through the
// ring-queue double buffer). The prefetched column should sit at or below
// the sync one — the prefetch_overlap perf gate holds that line.
void BM_StreamingPipeline(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::string& path = IngestionFixturePath(n, true);
  const Fixture& fixture = SharedFixture(n, 25.0);
  SetNumThreads(static_cast<int>(state.range(3)));
  BlockRowReaderOptions options;
  options.rows_per_panel = state.range(1);
  const bool prefetch = state.range(2) != 0;
  const auto summarize = [&]() -> Result<GraphStatistics> {
    if (prefetch) {
      return ComputeGraphStatisticsStreaming(
          path, fixture.seeds, 5, PathType::kNonBacktracking,
          NormalizationVariant::kRowStochastic, options);
    }
    auto reader = BlockRowReader::Open(path, options);
    FGR_CHECK(reader.ok()) << reader.status().ToString();
    InlineReadSource source(std::move(reader).value());
    return SummarizePanels(source, fixture.seeds, 5,
                           PathType::kNonBacktracking,
                           NormalizationVariant::kRowStochastic);
  };
  for (auto _ : state) {
    Result<GraphStatistics> stats = summarize();
    FGR_CHECK(stats.ok()) << stats.status().ToString();
    benchmark::DoNotOptimize(stats.value().p_hat.front()(0, 0));
  }
  SetNumThreads(0);
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(fixture.graph.num_edges() * 2 * 5),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_StreamingPipeline)
    ->ArgsProduct({{100000}, {1024, 8192}, {0, 1}, {1}})
    ->ArgNames({"n", "panel_rows", "prefetch", "threads"});

// Serving-layer benchmarks: a planted graph converted once to a .fgrbin
// whose embedded labels are a 1% stratified seed set (the daemon's seed
// contract), queried through the transport-free request path and over
// real loopback TCP.
const std::string& ServeFixturePath(std::int64_t n) {
  static auto& cache =
      *new std::map<std::int64_t, std::unique_ptr<std::string>>();
  auto& slot = cache[n];
  if (!slot) {
    const Fixture& fixture = SharedFixture(n, 25.0);
    std::string path = "/tmp/fgr_bench_serve_" + std::to_string(n) +
                       ".fgrbin";
    LabeledGraph data;
    data.name = "bench-serve";
    data.graph = fixture.graph;
    data.labels = fixture.seeds;
    FGR_CHECK(WriteFgrBin(data, path).ok());
    std::remove(FgrSumPathFor(path).c_str());  // benches start cold
    slot = std::make_unique<std::string>(std::move(path));
  }
  return *slot;
}

std::string ServeEstimateRequest(const std::string& path) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op").Value("estimate");
  writer.Key("dataset").Value(path);
  writer.Key("restarts").Value(std::int64_t{4});
  writer.EndObject();
  return writer.Take();
}

// Cold estimate: a fresh server per iteration pays mmap open + full CSR
// validation + the O(m·k·ℓmax) summarization before optimizing.
void BM_ServeQueryCold(benchmark::State& state) {
  const std::string& path = ServeFixturePath(state.range(0));
  const std::string request = ServeEstimateRequest(path);
  SetNumThreads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    ServerOptions options;
    options.persist_summaries = false;  // keep every iteration cold
    FgrServer server(options);
    std::string response = server.HandleRequestLine(request);
    FGR_CHECK(response.find("\"ok\":true") != std::string::npos)
        << response;
    benchmark::DoNotOptimize(response.data());
  }
  SetNumThreads(0);
}
BENCHMARK(BM_ServeQueryCold)
    ->ArgsProduct({{100000}, {1, 4}})
    ->ArgNames({"n", "threads"});

// Warm estimate: the summary cache already holds M(ℓ), so a query is pure
// protocol + k-scale optimization — the latency repeated traffic sees.
void BM_ServeQueryWarm(benchmark::State& state) {
  const std::string& path = ServeFixturePath(state.range(0));
  const std::string request = ServeEstimateRequest(path);
  SetNumThreads(static_cast<int>(state.range(1)));
  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);
  {
    std::string warmup = server.HandleRequestLine(request);
    FGR_CHECK(warmup.find("\"ok\":true") != std::string::npos) << warmup;
  }
  for (auto _ : state) {
    std::string response = server.HandleRequestLine(request);
    benchmark::DoNotOptimize(response.data());
  }
  SetNumThreads(0);
}
BENCHMARK(BM_ServeQueryWarm)
    ->ArgsProduct({{100000}, {1, 4}})
    ->ArgNames({"n", "threads"});

// Warm queries over real loopback TCP with concurrent clients: measures
// the full daemon path (accept queue, worker pool, framing) under load.
// Each iteration runs `clients` threads × kRequestsPerClient requests;
// items_per_sec is the aggregate query throughput.
void BM_ServeQueryConcurrent(benchmark::State& state) {
  const std::string& path = ServeFixturePath(state.range(0));
  const std::string request = ServeEstimateRequest(path);
  const int clients = static_cast<int>(state.range(1));
  constexpr int kRequestsPerClient = 8;

  ServerOptions options;
  options.port = 0;
  options.worker_threads = clients;
  options.persist_summaries = false;
  FgrServer server(options);
  FGR_CHECK(server.Start().ok());
  {
    std::string warmup =
        server.HandleRequestLine(ServeEstimateRequest(path));
    FGR_CHECK(warmup.find("\"ok\":true") != std::string::npos) << warmup;
  }

  const auto run_client = [&] {
    auto client = LineClient::Connect(server.host(), server.port());
    FGR_CHECK(client.ok()) << client.status().ToString();
    for (int r = 0; r < kRequestsPerClient; ++r) {
      auto response = client.value().Exchange(request);
      FGR_CHECK(response.ok()) << response.status().ToString();
    }
  };

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(run_client);
    for (std::thread& thread : threads) thread.join();
  }
  server.Stop();
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(clients * kRequestsPerClient),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ServeQueryConcurrent)
    ->ArgsProduct({{100000}, {1, 4, 8}})
    ->ArgNames({"n", "clients"})
    ->UseRealTime();

void BM_DeterministicShuffle(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(1)));
  std::vector<NodeId> values(static_cast<std::size_t>(state.range(0)));
  std::iota(values.begin(), values.end(), 0);
  for (auto _ : state) {
    DeterministicShuffle(values, 99);
    benchmark::DoNotOptimize(values.data());
  }
  SetNumThreads(0);
  state.counters["items_per_sec"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DeterministicShuffle)
    ->ArgsProduct({{1000000}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"});

}  // namespace
}  // namespace fgr

// Expanded BENCHMARK_MAIN() with the harness-wide `--json <path>` flag:
// google-benchmark already writes structured JSON, so --json simply maps to
// --benchmark_out=<path> --benchmark_out_format=json and the orchestrator
// normalizes that schema alongside the table benches' (bench_util.h).
int main(int argc, char** argv) {
  fgr::RegisterKernelIsaBenches();
  std::vector<char*> args;
  std::vector<std::string> owned;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  owned.reserve(2);
  if (argc > 0) args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string json_path;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
      continue;
    }
    owned.push_back("--benchmark_out=" + json_path);
    owned.push_back("--benchmark_out_format=json");
    for (std::string& flag : owned) args.push_back(flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
