// Tests for fgr::Estimate and fgr::Label (fgr/estimate.h), the unified
// entry points: the three panel sources (in-memory, mapped .fgrbin,
// streamed .fgrbin under a budget), bit-identity across them in serial
// runs for unit-weight and weighted caches, exact equivalence of the
// legacy wrappers, and the error contract for malformed DatasetRefs,
// wrong-size seeds and invalid DCE and LinBP options.

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fgr/fgr.h"

namespace fgr {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct Fixture {
  LabeledGraph data;
  Labeling seeds;
  std::string path;
};

Fixture MakeFixture(const std::string& name, std::uint64_t seed = 91,
                    std::int64_t nodes = 400, bool weighted = false) {
  Rng rng(seed);
  auto planted =
      GeneratePlantedGraph(MakeSkewConfig(nodes, 8.0, 3, 3.0), rng);
  FGR_CHECK(planted.ok());
  Fixture fixture;
  fixture.data.name = name;
  fixture.data.graph = std::move(planted.value().graph);
  if (weighted) {
    // Deterministic non-unit weights, so the cache carries a values section.
    std::vector<Edge> edges = fixture.data.graph.UndirectedEdges();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      edges[i].weight = 0.25 + static_cast<double>(i % 7) * 0.375;
    }
    auto reweighted = Graph::FromEdges(nodes, edges);
    FGR_CHECK(reweighted.ok());
    fixture.data.graph = std::move(reweighted).value();
  }
  fixture.seeds = SampleStratifiedSeeds(planted.value().labels, 0.05, rng);
  fixture.data.labels = fixture.seeds;
  fixture.path = TempPath(name + ".fgrbin");
  FGR_CHECK(WriteFgrBin(fixture.data, fixture.path).ok());
  return fixture;
}

EstimateOptions TestOptions() {
  EstimateOptions options;
  options.dce.restarts = 3;
  options.dce.max_path_length = 4;
  return options;
}

TEST(EstimateApiTest, InMemoryRouteMatchesTheExplicitPipeline) {
  Fixture fixture = MakeFixture("api_inmemory");
  const EstimateOptions options = TestOptions();
  // The router against the pipeline it should be routing to.
  const GraphStatistics stats = ComputeGraphStatistics(
      fixture.data.graph, fixture.seeds, options.dce.max_path_length,
      options.dce.path_type, options.dce.variant);
  const EstimationResult expected = EstimateDceFromStatistics(
      stats, fixture.seeds.num_classes(), options.dce);

  auto routed = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.value().h.data(), expected.h.data());
  EXPECT_EQ(routed.value().energy, expected.energy);
}

TEST(EstimateApiTest, EstimateDceWrapperIsTheRouter) {
  Fixture fixture = MakeFixture("api_wrapper");
  const EstimateOptions options = TestOptions();
  const EstimationResult wrapped =
      EstimateDce(fixture.data.graph, fixture.seeds, options.dce);
  auto routed = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), options);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value().h.data(), wrapped.h.data());
}

TEST(EstimateApiTest, PathRouteSeedsFromEmbeddedLabels) {
  for (const bool weighted : {false, true}) {
    SetNumThreads(1);
    Fixture fixture = MakeFixture(weighted ? "api_path_w" : "api_path_u", 91,
                                  400, weighted);
    auto in_memory = Estimate(
        DatasetRef::InMemory(fixture.data.graph, fixture.seeds),
        TestOptions());
    auto from_path = Estimate(DatasetRef::FgrBin(fixture.path), TestOptions());
    SetNumThreads(0);
    ASSERT_TRUE(in_memory.ok());
    ASSERT_TRUE(from_path.ok()) << from_path.status().ToString();
    // Serial runs over the same graph + seeds are bit-identical, whether
    // the CSR is the in-memory graph's or the mapped cache's.
    EXPECT_EQ(from_path.value().h.data(), in_memory.value().h.data())
        << "weighted=" << weighted;
  }
}

TEST(EstimateApiTest, BudgetRouteStreamsBitIdenticallyWhenSerial) {
  for (const bool weighted : {false, true}) {
    SetNumThreads(1);
    Fixture fixture = MakeFixture(
        weighted ? "api_budget_w" : "api_budget_u", 91, 400, weighted);
    auto in_core = Estimate(DatasetRef::FgrBin(fixture.path), TestOptions());
    EstimateOptions streamed_options = TestOptions();
    streamed_options.memory_budget_bytes = 8192;  // force multiple panels
    auto streamed =
        Estimate(DatasetRef::FgrBin(fixture.path), streamed_options);
    SetNumThreads(0);
    ASSERT_TRUE(in_core.ok());
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(streamed.value().h.data(), in_core.value().h.data())
        << "weighted=" << weighted;
  }
}

TEST(EstimateApiTest, LabelIsBitIdenticalOverAllThreeSourcesWhenSerial) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("api_label");
  LabelOptions options;
  options.estimate = TestOptions();
  auto in_memory = Label(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), options);
  auto mapped = Label(DatasetRef::FgrBin(fixture.path), options);
  LabelOptions streamed_options = options;
  streamed_options.estimate.memory_budget_bytes = 8192;
  auto streamed = Label(DatasetRef::FgrBin(fixture.path), streamed_options);
  SetNumThreads(0);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  for (const LabelResult* other : {&mapped.value(), &streamed.value()}) {
    EXPECT_EQ(other->estimate.h.data(), in_memory.value().estimate.h.data());
    EXPECT_EQ(other->propagation.rho_w, in_memory.value().propagation.rho_w);
    EXPECT_EQ(other->propagation.beliefs.data(),
              in_memory.value().propagation.beliefs.data());
    EXPECT_EQ(other->labels.raw(), in_memory.value().labels.raw());
  }
}

TEST(EstimateApiTest, WrongSizeSeedsAreInvalidArgumentOnEveryRoute) {
  Fixture fixture = MakeFixture("api_seed_size");
  const Labeling four_nodes = Labeling::FromVector({0, -1, 1, 2}, 3);
  EstimateOptions budgeted = TestOptions();
  budgeted.memory_budget_bytes = 8192;
  const DatasetRef refs[] = {
      DatasetRef::InMemory(fixture.data.graph, four_nodes),
      DatasetRef::FgrBin(fixture.path, &four_nodes)};
  for (const DatasetRef& ref : refs) {
    for (const EstimateOptions& options : {TestOptions(), budgeted}) {
      if (ref.graph != nullptr && options.memory_budget_bytes) continue;
      auto estimate = Estimate(ref, options);
      ASSERT_FALSE(estimate.ok());
      EXPECT_EQ(estimate.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(estimate.status().message().find("the seed labeling has 4"),
                std::string::npos)
          << estimate.status().message();

      LabelOptions label_options;
      label_options.estimate = options;
      auto labeled = Label(ref, label_options);
      ASSERT_FALSE(labeled.ok());
      EXPECT_EQ(labeled.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(EstimateApiTest, LabelRejectsNonPositiveLinBpOptionsOnEveryRoute) {
  Fixture fixture = MakeFixture("api_linbp_options");
  for (const bool zero_iterations : {true, false}) {
    LabelOptions options;
    options.estimate = TestOptions();
    if (zero_iterations) {
      options.linbp.iterations = 0;
    } else {
      options.linbp.convergence_scale = 0.0;
    }
    LabelOptions budgeted = options;
    budgeted.estimate.memory_budget_bytes = 8192;
    const Result<LabelResult> results[] = {
        Label(DatasetRef::InMemory(fixture.data.graph, fixture.seeds),
              options),
        Label(DatasetRef::FgrBin(fixture.path), options),
        Label(DatasetRef::FgrBin(fixture.path), budgeted)};
    for (const Result<LabelResult>& result : results) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(EstimateApiTest, InvalidDceOptionsAreInvalidArgumentOnEveryRoute) {
  Fixture fixture = MakeFixture("api_dce_options");
  const auto zero_restarts = [](DceOptions* o) { o->restarts = 0; };
  const auto zero_lmax = [](DceOptions* o) { o->max_path_length = 0; };
  const auto zero_lambda = [](DceOptions* o) { o->lambda = 0.0; };
  const auto negative_lambda = [](DceOptions* o) { o->lambda = -1.0; };
  const auto nan_lambda = [](DceOptions* o) { o->lambda = std::nan(""); };
  const auto inf_lambda = [](DceOptions* o) {
    o->lambda = std::numeric_limits<double>::infinity();
  };
  const auto zero_history = [](DceOptions* o) { o->optimizer.history = 0; };
  for (const auto& corrupt :
       std::vector<std::function<void(DceOptions*)>>{
           zero_restarts, zero_lmax, zero_lambda, negative_lambda,
           nan_lambda, inf_lambda, zero_history}) {
    EstimateOptions options = TestOptions();
    corrupt(&options.dce);
    EstimateOptions budgeted = options;
    budgeted.memory_budget_bytes = 8192;
    const DatasetRef in_memory =
        DatasetRef::InMemory(fixture.data.graph, fixture.seeds);
    const DatasetRef cache = DatasetRef::FgrBin(fixture.path);
    const std::pair<DatasetRef, EstimateOptions> routes[] = {
        {in_memory, options}, {cache, options}, {cache, budgeted}};
    for (const auto& [ref, route_options] : routes) {
      auto estimate = Estimate(ref, route_options);
      ASSERT_FALSE(estimate.ok());
      EXPECT_EQ(estimate.status().code(), StatusCode::kInvalidArgument)
          << estimate.status().ToString();

      LabelOptions label_options;
      label_options.estimate = route_options;
      auto labeled = Label(ref, label_options);
      ASSERT_FALSE(labeled.ok());
      EXPECT_EQ(labeled.status().code(), StatusCode::kInvalidArgument)
          << labeled.status().ToString();
    }
  }
}

TEST(EstimateApiTest, RejectsMalformedDatasetRefs) {
  Fixture fixture = MakeFixture("api_errors");

  // Both routes set at once.
  DatasetRef both = DatasetRef::InMemory(fixture.data.graph, fixture.seeds);
  both.path = fixture.path;
  auto ambiguous = Estimate(both, TestOptions());
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kInvalidArgument);

  // Neither route set.
  auto empty = Estimate(DatasetRef{}, TestOptions());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // An in-memory graph without seeds.
  DatasetRef seedless;
  seedless.graph = &fixture.data.graph;
  auto no_seeds = Estimate(seedless, TestOptions());
  ASSERT_FALSE(no_seeds.ok());
  EXPECT_EQ(no_seeds.status().code(), StatusCode::kInvalidArgument);

  // A memory budget makes no sense for an already-resident graph.
  EstimateOptions budgeted = TestOptions();
  budgeted.memory_budget_bytes = 1 << 20;
  auto resident = Estimate(
      DatasetRef::InMemory(fixture.data.graph, fixture.seeds), budgeted);
  ASSERT_FALSE(resident.ok());
  EXPECT_EQ(resident.status().code(), StatusCode::kInvalidArgument);

  // A missing file surfaces the I/O error.
  EXPECT_FALSE(
      Estimate(DatasetRef::FgrBin(TempPath("absent.fgrbin")), TestOptions())
          .ok());
}

TEST(EstimateApiTest, LabelFreeCachesNeedExplicitSeeds) {
  auto graph = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("api_no_labels.fgrbin");
  ASSERT_TRUE(WriteFgrBin(graph.value(), nullptr, nullptr, path).ok());

  // Embedded-label seeding fails with a precise precondition...
  auto unseeded = Estimate(DatasetRef::FgrBin(path), TestOptions());
  ASSERT_FALSE(unseeded.ok());
  EXPECT_EQ(unseeded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unseeded.status().message().find("no label section"),
            std::string::npos);

  // ...while caller-supplied seeds work over the same cache.
  const Labeling seeds = Labeling::FromVector({0, -1, 1, -1}, 2);
  auto seeded = Estimate(DatasetRef::FgrBin(path, &seeds), TestOptions());
  EXPECT_TRUE(seeded.ok()) << seeded.status().ToString();
}

}  // namespace
}  // namespace fgr
