// Tests for the src/serve subsystem: the line-JSON protocol (malformed,
// unknown-op, oversized requests), the .fgrsum summary cache (round trip,
// hash invalidation, ℓmax extension, disk hits), LRU dataset residency
// under a byte budget, the server request handlers against the offline
// estimators (bit-for-bit in pinned-serial runs), and a multi-client
// TCP concurrency test.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "fgr/fgr.h"
#include "obs/log.h"

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

// A planted graph with a stratified 5% seed labeling written as .fgrbin —
// the daemon's seeds are the embedded labels, so the offline comparison
// uses the same partial labeling.
Fixture MakeFixture(const std::string& name, std::uint64_t seed = 17,
                    std::int64_t nodes = 400) {
  Rng rng(seed);
  auto planted =
      GeneratePlantedGraph(MakeSkewConfig(nodes, 8.0, 3, 3.0), rng);
  FGR_CHECK(planted.ok());
  Fixture fixture;
  fixture.data.name = name;
  fixture.data.graph = std::move(planted.value().graph);
  fixture.seeds = SampleStratifiedSeeds(planted.value().labels, 0.05, rng);
  fixture.data.labels = fixture.seeds;
  fixture.path = TempPath(name + ".fgrbin");
  FGR_CHECK(WriteFgrBin(fixture.data, fixture.path).ok());
  return fixture;
}

DceOptions TestDceOptions() {
  DceOptions options;
  options.restarts = 3;
  options.max_path_length = 4;
  return options;
}

std::string EstimateRequest(const std::string& dataset,
                            const std::string& op = "estimate") {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op").Value(op);
  writer.Key("dataset").Value(dataset);
  writer.Key("restarts").Value(std::int64_t{3});
  writer.Key("lmax").Value(std::int64_t{4});
  writer.EndObject();
  return writer.Take();
}

Json MustParse(const std::string& line) {
  auto parsed = ParseJson(line);
  FGR_CHECK(parsed.ok()) << parsed.status().ToString() << " in " << line;
  return std::move(parsed).value();
}

// The structured error's members ("" on a success or a missing member).
std::string ErrorCode(const Json& response) {
  const Json* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("code", "");
}

std::string ErrorMessage(const Json& response) {
  const Json* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("message", "");
}

DenseMatrix MatrixFrom(const Json& response, const std::string& key) {
  const Json* h = response.Find(key);
  FGR_CHECK(h != nullptr && h->type() == Json::Type::kArray);
  const auto k = static_cast<std::int64_t>(h->items().size());
  DenseMatrix matrix(k, k);
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      matrix(i, j) = h->items()[static_cast<std::size_t>(i)]
                         .items()[static_cast<std::size_t>(j)]
                         .number_value();
    }
  }
  return matrix;
}

// --- protocol -------------------------------------------------------------

TEST(ProtocolTest, RejectsMalformedJson) {
  for (const char* bad :
       {"", "{", "not json at all", "{\"op\":\"estimate\"",
        "{\"op\":}", "{\"op\":\"estimate\",}", "{\"op\":\"a\" \"b\":1}",
        "\x01\x02", "{\"op\":\"estimate\",\"lambda\":1e}", "[1,2,3"}) {
    auto parsed = ParseRequest(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, RejectsNonObjectAndBadOps) {
  auto array = ParseRequest("[1,2,3]");
  ASSERT_FALSE(array.ok());
  EXPECT_NE(array.status().message().find("must be a JSON object"),
            std::string::npos);

  auto missing = ParseRequest("{\"dataset\":\"x.fgrbin\"}");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("missing \"op\""),
            std::string::npos);

  auto unknown = ParseRequest("{\"op\":\"frobnicate\"}");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown op"),
            std::string::npos);

  auto no_dataset = ParseRequest("{\"op\":\"estimate\"}");
  ASSERT_FALSE(no_dataset.ok());
  EXPECT_NE(no_dataset.status().message().find("requires a \"dataset\""),
            std::string::npos);
}

TEST(ProtocolTest, RejectsOutOfRangeKnobs) {
  const std::string base = "\"op\":\"estimate\",\"dataset\":\"d.fgrbin\"";
  EXPECT_FALSE(ParseRequest("{" + base + ",\"restarts\":0}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"restarts\":5000}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"lmax\":0}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"lmax\":64}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"lambda\":0}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"lambda\":-3}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"variant\":4}").ok());
  EXPECT_FALSE(ParseRequest("{" + base + ",\"path_type\":\"zig\"}").ok());
}

TEST(ProtocolTest, DefaultsMatchTheOfflineCli) {
  auto parsed =
      ParseRequest("{\"op\":\"estimate\",\"dataset\":\"d.fgrbin\"}");
  ASSERT_TRUE(parsed.ok());
  const DceOptions& options = parsed.value().options;
  const DceOptions defaults;  // library defaults = CLI defaults
  EXPECT_EQ(options.restarts, 10);  // fgr_cli --restarts default
  EXPECT_EQ(options.max_path_length, defaults.max_path_length);
  EXPECT_EQ(options.lambda, defaults.lambda);
  EXPECT_EQ(options.seed, defaults.seed);
  EXPECT_EQ(options.variant, defaults.variant);
  EXPECT_EQ(options.path_type, defaults.path_type);
}

TEST(ProtocolTest, DoublesRoundTripExactly) {
  const double values[] = {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23,
                           -1.6e-35, 5.0, 0.0};
  for (const double value : values) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("x").Value(value);
    writer.EndObject();
    const Json parsed = MustParse(writer.Take());
    EXPECT_EQ(parsed.GetNumber("x", -1), value);
  }
}

TEST(ProtocolTest, StringEscapingRoundTrips) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g/h";
  const Json parsed = MustParse("{\"s\":" + JsonQuote(nasty) + "}");
  EXPECT_EQ(parsed.GetString("s", ""), nasty);
  // And the Dump of the parse re-parses to the same string.
  const Json again = MustParse(parsed.Dump());
  EXPECT_EQ(again.GetString("s", ""), nasty);
}

// --- the one wire shape + strict validation -------------------------------
//
// Suite names keep the protocol version that introduced each contract;
// every contract now holds for the one shape, v2.

// Every numeric knob must be rejected — not clamped, not defaulted — when
// it is mistyped, non-integral, non-finite, or out of range.
TEST(ProtocolV1Test, StrictValidationRejectsEachNumericField) {
  const std::string base = "\"op\":\"estimate\",\"dataset\":\"d.fgrbin\"";
  const char* bad[] = {
      "\"restarts\":3.7",      // non-integral count
      "\"restarts\":\"10\"",   // wrong type
      "\"restarts\":true",     // wrong type
      "\"lmax\":2.5",          // non-integral count
      "\"lmax\":\"5\"",        // wrong type
      "\"lambda\":1e999",      // overflows to +inf: non-finite
      "\"lambda\":\"ten\"",    // wrong type
      "\"seed\":-1",           // negative
      "\"seed\":3.5",          // non-integral
      "\"seed\":1e19",         // beyond the 2^62 integer-exact window
      "\"variant\":2.5",       // non-integral
      "\"variant\":\"rs\"",    // wrong type
      "\"path_type\":3",       // wrong type
      "\"v\":1.5",             // not the one protocol version
  };
  for (const char* field : bad) {
    auto parsed = ParseRequest("{" + base + "," + field + "}");
    EXPECT_FALSE(parsed.ok()) << "accepted: " << field;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << field;
  }
  // A mistyped dataset needs its own request (duplicate keys resolve to
  // the first occurrence, so appending to `base` would mask it).
  auto bad_dataset = ParseRequest("{\"op\":\"estimate\",\"dataset\":42}");
  EXPECT_FALSE(bad_dataset.ok());
  EXPECT_EQ(bad_dataset.status().code(), StatusCode::kInvalidArgument);
  // The well-formed request these were mutated from parses fine.
  EXPECT_TRUE(ParseRequest("{" + base + "}").ok());
}

// A request with no "v" and one with "v":2 get the same shape: "v":2
// echoed on every response.
TEST(ProtocolV1Test, VersionedRequestsGetVersionedShapes) {
  FgrServer server(ServerOptions{});
  for (const char* request :
       {"{\"op\":\"stats\"}", "{\"v\":2,\"op\":\"stats\"}",
        "{\"op\":\"datasets\"}", "{\"v\":2,\"op\":\"datasets\"}"}) {
    const Json response = MustParse(server.HandleRequestLine(request));
    EXPECT_EQ(response.GetInt("v", -1), 2) << request;
    EXPECT_TRUE(response.Find("ok")->bool_value()) << request;
  }
}

// Failures carry the structured {"code","message"} object whether or not
// the request named its version.
TEST(ProtocolV1Test, ErrorTaxonomyMapsStatusCodes) {
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kBadRequest),
               "bad_request");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kOverloaded), "overloaded");
  EXPECT_EQ(ServeErrorCodeFromStatus(StatusCode::kInvalidArgument),
            ServeErrorCode::kBadRequest);
  EXPECT_EQ(ServeErrorCodeFromStatus(StatusCode::kNotFound),
            ServeErrorCode::kUnknownDataset);
  EXPECT_EQ(ServeErrorCodeFromStatus(StatusCode::kFailedPrecondition),
            ServeErrorCode::kOverBudget);
  EXPECT_EQ(ServeErrorCodeFromStatus(StatusCode::kInternal),
            ServeErrorCode::kInternal);

  FgrServer server(ServerOptions{});
  const std::string dataset = JsonQuote(TempPath("absent.fgrbin"));
  for (const std::string& request :
       {"{\"op\":\"estimate\",\"dataset\":" + dataset + "}",
        "{\"v\":2,\"op\":\"estimate\",\"dataset\":" + dataset + "}"}) {
    const Json response = MustParse(server.HandleRequestLine(request));
    EXPECT_EQ(response.GetInt("v", -1), 2) << request;
    EXPECT_FALSE(response.Find("ok")->bool_value()) << request;
    EXPECT_EQ(ErrorCode(response), "unknown_dataset") << request;
    EXPECT_FALSE(ErrorMessage(response).empty()) << request;
  }
}

// Any "v" but 2 — the retired 0 and 1 included — is a structured
// bad_request, not a different shape.
TEST(ProtocolV1Test, UnsupportedVersionIsAStructuredError) {
  FgrServer server(ServerOptions{});
  for (const char* version : {"0", "1", "3", "1.5", "\"2\"", "null"}) {
    const Json response = MustParse(server.HandleRequestLine(
        std::string("{\"v\":") + version + ",\"op\":\"stats\"}"));
    EXPECT_EQ(response.GetInt("v", -1), 2) << version;
    EXPECT_FALSE(response.Find("ok")->bool_value()) << version;
    EXPECT_EQ(ErrorCode(response), "bad_request") << version;
    EXPECT_NE(ErrorMessage(response).find("unsupported protocol version"),
              std::string::npos)
        << version;
  }
}

// The metrics document carries the per-stage histograms and the pipeline
// counter section whether or not the request named its version.
TEST(ProtocolV2Test, MetricsGrowsStageAndPipelineSections) {
  FgrServer server(ServerOptions{});
  for (const char* request :
       {"{\"op\":\"metrics\"}", "{\"v\":2,\"op\":\"metrics\"}"}) {
    const Json metrics = MustParse(server.HandleRequestLine(request));
    EXPECT_EQ(metrics.GetInt("v", 0), 2) << request;
    EXPECT_TRUE(metrics.Find("ok")->bool_value()) << request;
    const Json* stages = metrics.Find("stages");
    ASSERT_NE(stages, nullptr) << request;
    for (const char* stage : {"queue_wait", "compute", "write"}) {
      const Json* ring = stages->Find(stage);
      ASSERT_NE(ring, nullptr) << stage;
      EXPECT_NE(ring->Find("count"), nullptr);
      EXPECT_NE(ring->Find("p50_ms"), nullptr);
      EXPECT_NE(ring->Find("p99_ms"), nullptr);
    }
    const Json* pipeline = metrics.Find("pipeline");
    ASSERT_NE(pipeline, nullptr) << request;
    EXPECT_NE(pipeline->Find("prefetch_producer_read_ns"), nullptr);
    EXPECT_NE(pipeline->Find("kernel_spmm_calls"), nullptr);
    EXPECT_NE(pipeline->Find("prefetch_queue_depth_mean"), nullptr);
  }
}

// Estimate/label responses carry a per-request "stages" breakdown, each
// stage non-negative. Clients take a request's server-side time as the sum
// of every member of "stages", so the key sets are pinned exactly: a
// silently added key would inflate that sum.
TEST(ProtocolV2Test, EstimateCarriesStageBreakdown) {
  Fixture fixture = MakeFixture("v2_stages", 83);
  FgrServer server(ServerOptions{});
  const std::vector<std::string> estimate_keys = {"acquire_ms", "summarize_ms",
                                                  "optimize_ms"};
  std::vector<std::string> label_keys = estimate_keys;
  label_keys.push_back("propagate_ms");
  for (const auto& [op, expected] :
       {std::pair{"estimate", estimate_keys}, std::pair{"label", label_keys}}) {
    const Json response = MustParse(server.HandleRequestLine(
        "{\"v\":2,\"op\":\"" + std::string(op) +
        "\",\"dataset\":" + JsonQuote(fixture.path) + "}"));
    ASSERT_TRUE(response.Find("ok")->bool_value()) << response.Dump();
    EXPECT_EQ(response.GetInt("v", 0), 2);
    const Json* stages = response.Find("stages");
    ASSERT_NE(stages, nullptr) << op;
    std::vector<std::string> keys;
    for (const auto& [key, value] : stages->members()) {
      keys.push_back(key);
      EXPECT_GE(value.number_value(), 0.0) << op << " " << key;
    }
    EXPECT_EQ(keys, expected) << op;
  }
}

TEST(ProtocolV1Test, MetricsVerbCountsObservedRequests) {
  Fixture fixture = MakeFixture("metrics_counts", 71);
  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);
  // 2 good estimates + 1 estimate against a missing file (an error that
  // still counts as an estimate request) + 1 stats + 1 datasets.
  MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  MustParse(
      server.HandleRequestLine(EstimateRequest(TempPath("gone.fgrbin"))));
  MustParse(server.HandleRequestLine("{\"op\":\"stats\"}"));
  MustParse(server.HandleRequestLine("{\"op\":\"datasets\"}"));

  const Json metrics =
      MustParse(server.HandleRequestLine("{\"v\":2,\"op\":\"metrics\"}"));
  ASSERT_TRUE(metrics.Find("ok")->bool_value());
  EXPECT_EQ(metrics.GetInt("v", -1), 2);
  const Json* requests = metrics.Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->GetInt("total", -1), 6);  // incl. this metrics call
  EXPECT_EQ(requests->GetInt("estimate", -1), 3);
  EXPECT_EQ(requests->GetInt("stats", -1), 1);
  EXPECT_EQ(requests->GetInt("datasets", -1), 1);
  EXPECT_EQ(requests->GetInt("metrics", -1), 1);
  EXPECT_EQ(requests->GetInt("errors", -1), 1);
  EXPECT_EQ(requests->GetInt("shed", -1), 0);
  EXPECT_EQ(requests->GetInt("timed_out", -1), 0);
  const Json* summary = metrics.Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->GetInt("computed", -1), 1);
  EXPECT_EQ(summary->GetInt("memory_hits", -1), 1);
}

// --- summary cache --------------------------------------------------------

DatasetSummary MakeSummary(int max_length, std::uint64_t hash,
                           double salt = 0.0) {
  DatasetSummary summary;
  summary.path_type = PathType::kNonBacktracking;
  summary.max_length = max_length;
  summary.num_nodes = 42;
  summary.num_classes = 3;
  summary.content_hash = hash;
  for (int l = 1; l <= max_length; ++l) {
    DenseMatrix m(3, 3);
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 3; ++j) {
        m(i, j) = salt + static_cast<double>(l * 100 + i * 10 + j) / 7.0;
      }
    }
    summary.m_raw.push_back(std::move(m));
  }
  return summary;
}

TEST(FgrSumTest, RoundTripsExactBits) {
  const std::string path = TempPath("roundtrip.fgrsum");
  const DatasetSummary written = MakeSummary(4, 0xabcdef0123456789ull);
  ASSERT_TRUE(WriteFgrSum(written, path).ok());
  auto read = ReadFgrSum(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().max_length, 4);
  EXPECT_EQ(read.value().content_hash, written.content_hash);
  EXPECT_EQ(read.value().num_nodes, written.num_nodes);
  EXPECT_EQ(read.value().path_type, written.path_type);
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(read.value().m_raw[l].data(), written.m_raw[l].data());
  }
}

TEST(FgrSumTest, RejectsCorruptFiles) {
  const std::string path = TempPath("corrupt.fgrsum");
  ASSERT_TRUE(WriteFgrSum(MakeSummary(3, 7), path).ok());
  // Truncate mid-matrix.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 13);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadFgrSum(path).ok());
  // Wrong magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "definitely not an fgrsum file with enough bytes to not be "
           "truncated at the header";
  }
  auto bad_magic = ReadFgrSum(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("not an fgrsum"),
            std::string::npos);
  EXPECT_FALSE(ReadFgrSum(TempPath("missing.fgrsum")).ok());
}

TEST(FgrSumTest, WriteKeepsTheLongerPrefixUnderConcurrentWriters) {
  const std::string path = TempPath("longer_prefix.fgrsum");
  const std::uint64_t hash = 0x5eedull;
  // A shorter write for the same bytes must not clobber a longer sidecar:
  // ℓ=10's statistics subsume ℓ=5's (the recurrence's prefix property).
  ASSERT_TRUE(WriteFgrSum(MakeSummary(10, hash), path).ok());
  ASSERT_TRUE(WriteFgrSum(MakeSummary(5, hash), path).ok());
  auto read = ReadFgrSum(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().max_length, 10);

  // A changed content hash is not a prefix of anything: it must replace.
  ASSERT_TRUE(WriteFgrSum(MakeSummary(5, hash + 1), path).ok());
  read = ReadFgrSum(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().max_length, 5);
  EXPECT_EQ(read.value().content_hash, hash + 1);

  // Two writers interleaving under the advisory lock: whatever the
  // schedule, the surviving sidecar is complete and carries the longest
  // prefix either writer produced.
  const std::string raced = TempPath("raced_prefix.fgrsum");
  std::thread writer_a([&] {
    for (int i = 0; i < 8; ++i) {
      FGR_CHECK(WriteFgrSum(MakeSummary(10, hash), raced).ok());
    }
  });
  std::thread writer_b([&] {
    for (int i = 0; i < 8; ++i) {
      FGR_CHECK(WriteFgrSum(MakeSummary(5, hash), raced).ok());
    }
  });
  writer_a.join();
  writer_b.join();
  auto survived = ReadFgrSum(raced);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();
  EXPECT_EQ(survived.value().max_length, 10);
  EXPECT_EQ(survived.value().content_hash, hash);
}

TEST(SummaryCacheTest, ComputesOnceThenHitsMemory) {
  SummaryCache cache(/*persist_sidecars=*/false);
  const std::string key = TempPath("cache_a.fgrbin");
  int computed = 0;
  const auto compute = [&](int length) -> Result<DatasetSummary> {
    ++computed;
    return MakeSummary(length, 0);
  };
  SummarySource source;
  for (int i = 0; i < 3; ++i) {
    auto summary = cache.GetOrCompute(key, 11, PathType::kNonBacktracking,
                                      4, compute, &source);
    ASSERT_TRUE(summary.ok());
    EXPECT_EQ(source, i == 0 ? SummarySource::kComputed
                             : SummarySource::kMemory);
  }
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.counters().memory_hits, 2);
  EXPECT_EQ(cache.counters().computed, 1);
}

TEST(SummaryCacheTest, ContentHashChangeInvalidates) {
  SummaryCache cache(/*persist_sidecars=*/false);
  const std::string key = TempPath("cache_b.fgrbin");
  int computed = 0;
  const auto compute = [&](int length) -> Result<DatasetSummary> {
    ++computed;
    return MakeSummary(length, 0, static_cast<double>(computed));
  };
  SummarySource source;
  ASSERT_TRUE(cache.GetOrCompute(key, 1, PathType::kNonBacktracking, 2,
                                 compute, &source)
                  .ok());
  auto after_change = cache.GetOrCompute(
      key, 2, PathType::kNonBacktracking, 2, compute, &source);
  ASSERT_TRUE(after_change.ok());
  EXPECT_EQ(source, SummarySource::kComputed);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.counters().invalidations, 1);
  // The new hash serves hits again.
  ASSERT_TRUE(cache.GetOrCompute(key, 2, PathType::kNonBacktracking, 2,
                                 compute, &source)
                  .ok());
  EXPECT_EQ(source, SummarySource::kMemory);
}

TEST(SummaryCacheTest, LongerRequestRecomputesShorterReuses) {
  SummaryCache cache(/*persist_sidecars=*/false);
  const std::string key = TempPath("cache_c.fgrbin");
  std::vector<int> lengths;
  const auto compute = [&](int length) -> Result<DatasetSummary> {
    lengths.push_back(length);
    return MakeSummary(length, 0);
  };
  SummarySource source;
  ASSERT_TRUE(cache.GetOrCompute(key, 5, PathType::kNonBacktracking, 3,
                                 compute, &source)
                  .ok());
  EXPECT_EQ(source, SummarySource::kComputed);
  // ℓmax 5 > cached 3: the prefix property cannot help, recompute.
  ASSERT_TRUE(cache.GetOrCompute(key, 5, PathType::kNonBacktracking, 5,
                                 compute, &source)
                  .ok());
  EXPECT_EQ(source, SummarySource::kComputed);
  // ℓmax 2 ≤ cached 5: prefix hit.
  auto shorter = cache.GetOrCompute(key, 5, PathType::kNonBacktracking, 2,
                                    compute, &source);
  ASSERT_TRUE(shorter.ok());
  EXPECT_EQ(source, SummarySource::kMemory);
  EXPECT_EQ(shorter.value()->max_length, 5);
  EXPECT_EQ(lengths, (std::vector<int>{3, 5}));

  // StatisticsFromSummary takes the prefix and normalizes it exactly as
  // the summarizer would.
  const GraphStatistics stats = StatisticsFromSummary(
      *shorter.value(), 2, NormalizationVariant::kRowStochastic);
  ASSERT_EQ(stats.m_raw.size(), 2u);
  EXPECT_EQ(stats.m_raw[0].data(), shorter.value()->m_raw[0].data());
  EXPECT_EQ(stats.p_hat[1].data(),
            NormalizeStatistics(shorter.value()->m_raw[1],
                                NormalizationVariant::kRowStochastic)
                .data());
}

TEST(SummaryCacheTest, PersistsAndReloadsSidecars) {
  const std::string key = TempPath("cache_d.fgrbin");
  int computed = 0;
  const auto compute = [&](int length) -> Result<DatasetSummary> {
    ++computed;
    return MakeSummary(length, 0);
  };
  SummarySource source;
  {
    SummaryCache cache(/*persist_sidecars=*/true);
    ASSERT_TRUE(cache.GetOrCompute(key, 9, PathType::kNonBacktracking, 4,
                                   compute, &source)
                    .ok());
    EXPECT_EQ(source, SummarySource::kComputed);
  }
  // A fresh cache (new process, conceptually) hits the sidecar.
  {
    SummaryCache cache(/*persist_sidecars=*/true);
    ASSERT_TRUE(cache.GetOrCompute(key, 9, PathType::kNonBacktracking, 4,
                                   compute, &source)
                    .ok());
    EXPECT_EQ(source, SummarySource::kDisk);
    // But a different hash must not: the sidecar is stale.
    ASSERT_TRUE(cache.GetOrCompute(key, 10, PathType::kNonBacktracking, 4,
                                   compute, &source)
                    .ok());
    EXPECT_EQ(source, SummarySource::kComputed);
  }
  EXPECT_EQ(computed, 2);
}

// --- dataset cache --------------------------------------------------------

TEST(DatasetCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  Fixture a = MakeFixture("lru_a", 21);
  Fixture b = MakeFixture("lru_b", 22);
  Fixture c = MakeFixture("lru_c", 23);
  // Budget fits roughly two datasets (each ~n·12 + nnz·8 bytes).
  std::ifstream probe(a.path, std::ios::binary | std::ios::ate);
  const std::int64_t file_size = static_cast<std::int64_t>(probe.tellg());
  DatasetCache cache(2 * file_size + file_size / 2);

  ASSERT_TRUE(cache.Acquire(a.path).ok());
  ASSERT_TRUE(cache.Acquire(b.path).ok());
  EXPECT_EQ(cache.entries(), 2);
  // Touch A so B is the LRU victim when C arrives.
  ASSERT_TRUE(cache.Acquire(a.path).ok());
  ASSERT_TRUE(cache.Acquire(c.path).ok());
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_GE(cache.counters().evictions, 1);
  const std::vector<std::string> resident = cache.ResidentPaths();
  ASSERT_EQ(resident.size(), 2u);
  EXPECT_NE(resident[0].find("lru_c"), std::string::npos);
  EXPECT_NE(resident[1].find("lru_a"), std::string::npos);
  EXPECT_LE(cache.resident_bytes(), cache.byte_budget());

  // An evicted dataset reloads on demand (a miss, not an error).
  const auto before = cache.counters();
  ASSERT_TRUE(cache.Acquire(b.path).ok());
  EXPECT_EQ(cache.counters().misses, before.misses + 1);
}

TEST(DatasetCacheTest, RefusesFilesLargerThanTheBudget) {
  Fixture fixture = MakeFixture("over_budget", 24);
  DatasetCache cache(1024);  // 1 KB: smaller than any real cache
  auto acquired = cache.Acquire(fixture.path);
  ASSERT_FALSE(acquired.ok());
  EXPECT_EQ(acquired.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(acquired.status().message().find("residency budget"),
            std::string::npos);
}

TEST(DatasetCacheTest, ReopensWhenTheFileChanges) {
  Fixture fixture = MakeFixture("stale", 25);
  DatasetCache cache(std::int64_t{64} << 20);
  auto first = cache.Acquire(fixture.path);
  ASSERT_TRUE(first.ok());
  const std::uint64_t original_hash = first.value().content_hash;

  // Rewrite with one extra node so size (and content) change.
  Fixture bigger = MakeFixture("stale_tmp", 26, 410);
  std::ifstream in(bigger.path, std::ios::binary);
  std::ofstream out(fixture.path, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  out.close();

  auto second = cache.Acquire(fixture.path);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().content_hash, original_hash);
  EXPECT_GE(cache.counters().stale_reopens, 1);
}

TEST(DatasetCacheTest, ReopensOnMtimePreservingSameSizeRewrite) {
  namespace fs = std::filesystem;
  Fixture fixture = MakeFixture("inode_stale", 27);
  DatasetCache cache(std::int64_t{64} << 20);
  auto first = cache.Acquire(fixture.path);
  ASSERT_TRUE(first.ok());
  const std::uint64_t original_hash = first.value().content_hash;

  // Same graph (same generation seed), different seed labeling: identical
  // file size, different bytes. Copy the original's mtime onto it and
  // rename it over the original — the classic rsync -t / cp -p / atomic
  // temp+rename shape. Only the inode changes.
  Rng rng(27);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(400, 8.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  LabeledGraph rewrite;
  rewrite.name = "inode_stale";
  rewrite.graph = std::move(planted.value().graph);
  Rng other_rng(9001);
  rewrite.labels =
      SampleStratifiedSeeds(planted.value().labels, 0.05, other_rng);
  const std::string staged = TempPath("inode_stale_staged.fgrbin");
  ASSERT_TRUE(WriteFgrBin(rewrite, staged).ok());
  ASSERT_EQ(fs::file_size(staged), fs::file_size(fixture.path));
  fs::last_write_time(staged, fs::last_write_time(fixture.path));
  fs::rename(staged, fixture.path);

  // (mtime, size) alone would call this a hit and serve the stale mapping
  // (and its stale content hash); the inode/device check must reopen.
  auto second = cache.Acquire(fixture.path);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.counters().stale_reopens, 1);
  EXPECT_NE(second.value().content_hash, original_hash);
}

TEST(DatasetCacheTest, ContentHashTracksContent) {
  namespace fs = std::filesystem;
  Fixture fixture = MakeFixture("hash_tracks", 28);
  DatasetCache cache(std::int64_t{64} << 20);
  auto first = cache.Acquire(fixture.path);
  ASSERT_TRUE(first.ok());
  auto original = HashFileContents(fixture.path);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(first.value().content_hash, original.value());

  // Same graph, one seed moved to another class: same size, new bytes.
  Labeling flipped = fixture.seeds;
  for (NodeId i = 0; i < flipped.num_nodes(); ++i) {
    if (flipped.is_labeled(i)) {
      flipped.set_label(i, (flipped.label(i) + 1) % 3);
      break;
    }
  }
  LabeledGraph changed = fixture.data;
  changed.labels = flipped;
  const std::string staged = TempPath("hash_tracks_staged.fgrbin");
  ASSERT_TRUE(WriteFgrBin(changed, staged).ok());
  ASSERT_EQ(fs::file_size(staged), fs::file_size(fixture.path));

  // Copy the new bytes over the old in place and restore the mtime: size,
  // mtime and inode all match, so the next Acquire is a warm hit, and it
  // must hand back the hash stored at open rather than hash again.
  const fs::file_time_type mtime = fs::last_write_time(fixture.path);
  {
    std::ifstream in(staged, std::ios::binary);
    std::ofstream out(fixture.path, std::ios::binary | std::ios::in);
    out << in.rdbuf();
  }
  fs::last_write_time(fixture.path, mtime);
  auto rewritten = HashFileContents(fixture.path);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_NE(rewritten.value(), original.value());
  auto warm = cache.Acquire(fixture.path);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.counters().hits, 1);
  EXPECT_EQ(warm.value().mapped, first.value().mapped);
  EXPECT_EQ(warm.value().content_hash, original.value());

  // Once the rewrite is visible (a new mtime), the reopen hashes the new
  // bytes.
  fs::last_write_time(fixture.path, mtime + std::chrono::seconds(1));
  auto reopened = cache.Acquire(fixture.path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(cache.counters().stale_reopens, 1);
  EXPECT_EQ(reopened.value().content_hash, rewritten.value());
}

// --- server handlers (transport-free) -------------------------------------

TEST(ServerTest, RejectsUnknownDatasetAndWrongExtension) {
  FgrServer server(ServerOptions{});
  const Json missing = MustParse(
      server.HandleRequestLine(EstimateRequest(TempPath("nope.fgrbin"))));
  EXPECT_FALSE(missing.Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(missing), "unknown_dataset");

  const Json wrong_kind = MustParse(
      server.HandleRequestLine(EstimateRequest(TempPath("graph.edges"))));
  EXPECT_FALSE(wrong_kind.Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(wrong_kind), "bad_request");
  EXPECT_NE(ErrorMessage(wrong_kind).find("convert first"),
            std::string::npos);
}

TEST(ServerTest, RejectsOversizedRequests) {
  ServerOptions options;
  options.max_request_bytes = 64;
  FgrServer server(options);
  const std::string big(200, 'x');
  const Json response = MustParse(server.HandleRequestLine(big));
  EXPECT_FALSE(response.Find("ok")->bool_value());
  EXPECT_EQ(ErrorCode(response), "bad_request");
  EXPECT_NE(ErrorMessage(response).find("64-byte limit"),
            std::string::npos);
}

TEST(ServerTest, RejectsLabelFreeCaches) {
  auto graph = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("no_labels.fgrbin");
  ASSERT_TRUE(WriteFgrBin(graph.value(), nullptr, nullptr, path).ok());
  FgrServer server(ServerOptions{});
  const Json response =
      MustParse(server.HandleRequestLine(EstimateRequest(path)));
  EXPECT_FALSE(response.Find("ok")->bool_value());
  EXPECT_NE(ErrorMessage(response).find("no label section"),
            std::string::npos);
}

TEST(ServerTest, EstimateMatchesOfflineBitForBitWhenSerial) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("serve_serial", 31);
  const EstimationResult offline =
      EstimateDce(fixture.data.graph, fixture.seeds, TestDceOptions());

  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);
  const Json response =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  SetNumThreads(0);
  ASSERT_TRUE(response.Find("ok")->bool_value())
      << response.Dump();
  EXPECT_EQ(response.GetString("summary_source", ""), "computed");
  EXPECT_EQ(response.GetInt("n", 0), fixture.data.graph.num_nodes());
  EXPECT_EQ(response.GetInt("m", 0), fixture.data.graph.num_edges());
  EXPECT_EQ(response.GetInt("labeled", 0), fixture.seeds.NumLabeled());
  EXPECT_EQ(response.GetNumber("energy", -1), offline.energy);
  const DenseMatrix h = MatrixFrom(response, "h");
  EXPECT_EQ(h.data(), offline.h.data());  // bit-for-bit, serial
}

TEST(ServerTest, LabelMatchesOfflinePipelineBitForBitWhenSerial) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("serve_label", 32);
  const EstimationResult offline_estimate =
      EstimateDce(fixture.data.graph, fixture.seeds, TestDceOptions());
  const LinBpResult offline_prop =
      RunLinBp(fixture.data.graph, fixture.seeds, offline_estimate.h);
  const Labeling offline_labels =
      LabelsFromBeliefs(offline_prop.beliefs, fixture.seeds);

  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);
  const Json response = MustParse(
      server.HandleRequestLine(EstimateRequest(fixture.path, "label")));
  SetNumThreads(0);
  ASSERT_TRUE(response.Find("ok")->bool_value())
      << response.Dump();
  const Json* labels = response.Find("labels");
  ASSERT_NE(labels, nullptr);
  ASSERT_EQ(static_cast<NodeId>(labels->items().size()),
            offline_labels.num_nodes());
  for (NodeId i = 0; i < offline_labels.num_nodes(); ++i) {
    EXPECT_EQ(static_cast<ClassId>(
                  labels->items()[static_cast<std::size_t>(i)]
                      .number_value()),
              offline_labels.label(i))
        << "node " << i;
  }
}

TEST(ServerTest, RepeatEstimateHitsTheSummaryCache) {
  Fixture fixture = MakeFixture("serve_repeat", 33);
  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);

  const Json first =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  ASSERT_TRUE(first.Find("ok")->bool_value());
  EXPECT_EQ(first.GetString("summary_source", ""), "computed");

  const Json second =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  ASSERT_TRUE(second.Find("ok")->bool_value());
  EXPECT_EQ(second.GetString("summary_source", ""), "memory");
  // Identical request against identical statistics: identical answer.
  EXPECT_EQ(MatrixFrom(second, "h").data(), MatrixFrom(first, "h").data());
  EXPECT_EQ(second.GetNumber("seconds_summarization", -1), 0.0);

  EXPECT_EQ(server.summaries().counters().computed, 1);
  EXPECT_EQ(server.summaries().counters().memory_hits, 1);
}

TEST(ServerTest, RewritingTheCacheInvalidatesTheSummary) {
  Fixture fixture = MakeFixture("serve_invalidate", 34);
  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);
  const Json first =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  ASSERT_TRUE(first.Find("ok")->bool_value());

  // Replace the file with a different graph (different size → the dataset
  // cache reopens → new content hash → summary recomputes).
  Fixture other = MakeFixture("serve_invalidate_new", 35, 410);
  std::ifstream in(other.path, std::ios::binary);
  std::ofstream out(fixture.path, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  out.close();

  const Json second =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  ASSERT_TRUE(second.Find("ok")->bool_value())
      << second.Dump();
  EXPECT_EQ(second.GetString("summary_source", ""), "computed");
  EXPECT_EQ(second.GetInt("n", 0), 410);
  EXPECT_EQ(server.summaries().counters().invalidations, 1);
}

TEST(ServerTest, OverBudgetDatasetsStreamEstimatesAndLabels) {
  SetNumThreads(1);
  Fixture fixture = MakeFixture("serve_stream", 36);
  const EstimationResult offline =
      EstimateDce(fixture.data.graph, fixture.seeds, TestDceOptions());
  const Labeling offline_labels = LabelsFromBeliefs(
      RunLinBp(fixture.data.graph, fixture.seeds, offline.h).beliefs,
      fixture.seeds);

  ServerOptions options;
  options.dataset_budget_bytes = 1024;  // nothing fits
  options.streaming_budget_bytes = 8192;  // force multiple panels too
  options.persist_summaries = false;
  FgrServer server(options);
  const Json estimate =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  ASSERT_TRUE(estimate.Find("ok")->bool_value())
      << estimate.Dump();
  EXPECT_FALSE(estimate.Find("resident")->bool_value());
  // Streamed serial summarization is bit-identical to in-core.
  EXPECT_EQ(MatrixFrom(estimate, "h").data(), offline.h.data());

  // Label no longer needs residency: propagation streams block-row over
  // the same panels, and serial streamed labels match in-core exactly.
  const Json label = MustParse(
      server.HandleRequestLine(EstimateRequest(fixture.path, "label")));
  SetNumThreads(0);
  ASSERT_TRUE(label.Find("ok")->bool_value())
      << label.Dump();
  EXPECT_FALSE(label.Find("resident")->bool_value());
  const Json* labels = label.Find("labels");
  ASSERT_NE(labels, nullptr);
  ASSERT_EQ(static_cast<NodeId>(labels->items().size()),
            offline_labels.num_nodes());
  for (NodeId i = 0; i < offline_labels.num_nodes(); ++i) {
    EXPECT_EQ(static_cast<ClassId>(
                  labels->items()[static_cast<std::size_t>(i)]
                      .number_value()),
              offline_labels.label(i))
        << "node " << i;
  }
}

TEST(ServerTest, StreamedRouteSeesMtimePreservingSameSizeRewrite) {
  namespace fs = std::filesystem;
  SetNumThreads(1);
  Fixture fixture = MakeFixture("serve_stream_inode", 37);
  ServerOptions options;
  options.dataset_budget_bytes = 1024;  // nothing fits: every query streams
  options.persist_summaries = false;
  FgrServer server(options);
  const Json first =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  ASSERT_TRUE(first.Find("ok")->bool_value()) << first.Dump();
  EXPECT_FALSE(first.Find("resident")->bool_value());

  // Same graph, other seeds: identical size, different bytes. Copy the
  // original's mtime onto it and rename it over the original, so only the
  // inode tells the two files apart. The streamed content-hash memo must
  // notice, or the summary cache answers with the old file's statistics.
  Rng rng(37);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(400, 8.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  LabeledGraph rewrite;
  rewrite.name = "serve_stream_inode";
  rewrite.graph = std::move(planted.value().graph);
  Rng other_rng(9002);
  rewrite.labels =
      SampleStratifiedSeeds(planted.value().labels, 0.05, other_rng);
  const std::string staged = TempPath("serve_stream_inode_staged.fgrbin");
  ASSERT_TRUE(WriteFgrBin(rewrite, staged).ok());
  ASSERT_EQ(fs::file_size(staged), fs::file_size(fixture.path));
  fs::last_write_time(staged, fs::last_write_time(fixture.path));
  fs::rename(staged, fixture.path);
  const EstimationResult offline =
      EstimateDce(rewrite.graph, rewrite.labels, TestDceOptions());

  const Json second =
      MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  SetNumThreads(0);
  ASSERT_TRUE(second.Find("ok")->bool_value()) << second.Dump();
  EXPECT_FALSE(second.Find("resident")->bool_value());
  EXPECT_EQ(second.GetString("summary_source", ""), "computed");
  EXPECT_NE(MatrixFrom(first, "h").data(), offline.h.data());
  EXPECT_EQ(MatrixFrom(second, "h").data(), offline.h.data());
}

TEST(ServerTest, StatsAndDatasetsOpsReportCounters) {
  Fixture fixture = MakeFixture("serve_stats", 37);
  ServerOptions options;
  options.persist_summaries = false;
  FgrServer server(options);
  MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  MustParse(server.HandleRequestLine(EstimateRequest(fixture.path)));
  MustParse(server.HandleRequestLine("{\"op\":\"notreal\"}"));

  const Json stats = MustParse(server.HandleRequestLine("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.Find("ok")->bool_value());
  EXPECT_EQ(stats.GetString("op", ""), "stats");
  EXPECT_EQ(stats.Find("requests")->GetInt("estimate", -1), 2);
  EXPECT_EQ(stats.Find("requests")->GetInt("errors", -1), 1);
  EXPECT_EQ(stats.Find("summary")->GetInt("computed", -1), 1);
  EXPECT_EQ(stats.Find("summary")->GetInt("memory_hits", -1), 1);
  EXPECT_EQ(stats.Find("datasets")->GetInt("resident", -1), 1);

  // `stats` is a view over the metrics document: the same cache counter
  // groups, written once, stale_reopens included.
  const Json metrics =
      MustParse(server.HandleRequestLine("{\"op\":\"metrics\"}"));
  EXPECT_EQ(metrics.GetString("op", ""), "metrics");
  for (const char* group : {"summary", "datasets"}) {
    ASSERT_NE(stats.Find(group), nullptr) << group;
    ASSERT_NE(metrics.Find(group), nullptr) << group;
    EXPECT_EQ(stats.Find(group)->Dump(), metrics.Find(group)->Dump())
        << group;
    if (std::string(group) == "datasets") {
      EXPECT_NE(stats.Find(group)->Find("stale_reopens"), nullptr);
    }
  }

  const Json datasets =
      MustParse(server.HandleRequestLine("{\"op\":\"datasets\"}"));
  ASSERT_TRUE(datasets.Find("ok")->bool_value());
  ASSERT_EQ(datasets.Find("resident")->items().size(), 1u);
  EXPECT_NE(datasets.Find("resident")
                ->items()[0]
                .string_value()
                .find("serve_stats"),
            std::string::npos);
}

// Each access-log line's ok= is that request's own outcome: a concurrent
// worker's failure must never flip it.
TEST(ServerTest, AccessLogOkIsEachRequestsOwnOutcome) {
  constexpr int kRequests = 300;
  const std::string failing = EstimateRequest(TempPath("never.fgrbin"));
  FgrServer server(ServerOptions{});
  const obs::LogLevel saved = obs::GetLogLevel();
  obs::SetLogLevel(obs::LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  std::thread failer([&] {
    for (int i = 0; i < kRequests; ++i) server.HandleRequestLine(failing);
  });
  std::thread lister([&] {
    for (int i = 0; i < kRequests; ++i) {
      server.HandleRequestLine("{\"op\":\"datasets\"}");
    }
  });
  failer.join();
  lister.join();
  const std::string log = ::testing::internal::GetCapturedStderr();
  obs::SetLogLevel(saved);

  int datasets_lines = 0;
  int estimate_lines = 0;
  std::size_t start = 0;
  while (start < log.size()) {
    std::size_t end = log.find('\n', start);
    if (end == std::string::npos) end = log.size();
    const std::string line = log.substr(start, end - start);
    start = end + 1;
    if (line.find("[serve] req=") == std::string::npos) continue;
    if (line.find(" op=datasets ") != std::string::npos) {
      ++datasets_lines;
      EXPECT_NE(line.find(" ok=1 "), std::string::npos) << line;
    } else if (line.find(" op=estimate ") != std::string::npos) {
      ++estimate_lines;
      EXPECT_NE(line.find(" ok=0 "), std::string::npos) << line;
    }
  }
  EXPECT_EQ(datasets_lines, kRequests);
  EXPECT_EQ(estimate_lines, kRequests);
  EXPECT_EQ(server.metrics().requests_errors.load(), kRequests);
}

// --- sockets + concurrency ------------------------------------------------

// The library's own reference client (serve/protocol.h LineClient) drives
// the socket tests, with failures turned into FGR_CHECK aborts.
std::string MustExchange(LineClient* client, const std::string& request) {
  auto response = client->Exchange(request);
  FGR_CHECK(response.ok()) << response.status().ToString();
  return std::move(response).value();
}

LineClient MustConnect(const std::string& host, int port) {
  auto client = LineClient::Connect(host, port);
  FGR_CHECK(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

TEST(ServerSocketTest, ConcurrentClientsMatchOfflineWithin1e9) {
  Fixture fixture_a = MakeFixture("sock_a", 41);
  Fixture fixture_b = MakeFixture("sock_b", 42);
  const EstimationResult offline_a =
      EstimateDce(fixture_a.data.graph, fixture_a.seeds, TestDceOptions());
  const EstimationResult offline_b =
      EstimateDce(fixture_b.data.graph, fixture_b.seeds, TestDceOptions());
  const Labeling offline_labels_a = LabelsFromBeliefs(
      RunLinBp(fixture_a.data.graph, fixture_a.seeds, offline_a.h).beliefs,
      fixture_a.seeds);

  ServerOptions options;
  options.port = 0;  // ephemeral
  options.worker_threads = 4;
  options.persist_summaries = false;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client = MustConnect(server.host(), server.port());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const bool use_a = (c + r) % 2 == 0;
        const Fixture& fixture = use_a ? fixture_a : fixture_b;
        const EstimationResult& offline = use_a ? offline_a : offline_b;
        const Json response =
            MustParse(MustExchange(&client, EstimateRequest(fixture.path)));
        if (!response.Find("ok")->bool_value()) {
          failures[c] = response.Dump();
          return;
        }
        const DenseMatrix h = MatrixFrom(response, "h");
        for (std::size_t i = 0; i < h.data().size(); ++i) {
          if (std::abs(h.data()[i] - offline.h.data()[i]) > 1e-9) {
            failures[c] = "H mismatch beyond 1e-9";
            return;
          }
        }
      }
      // One label request per client against dataset A.
      const Json labeled =
          MustParse(MustExchange(&client, EstimateRequest(fixture_a.path,
                                                    "label")));
      if (!labeled.Find("ok")->bool_value()) {
        failures[c] = labeled.Dump();
        return;
      }
      const Json* labels = labeled.Find("labels");
      for (NodeId i = 0; i < offline_labels_a.num_nodes(); ++i) {
        if (static_cast<ClassId>(
                labels->items()[static_cast<std::size_t>(i)]
                    .number_value()) != offline_labels_a.label(i)) {
          failures[c] = "labels mismatch";
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  // Exactly two summaries were computed (one per dataset) no matter how
  // the 16 estimate requests interleaved — concurrent misses coalesce.
  EXPECT_EQ(server.summaries().counters().computed, 2);
  server.Stop();
}

TEST(ServerSocketTest, SurvivesGarbageAndPipelinedRequests) {
  Fixture fixture = MakeFixture("sock_garbage", 43);
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  options.persist_summaries = false;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client = MustConnect(server.host(), server.port());
  const Json garbage = MustParse(MustExchange(&client, "this is not json"));
  EXPECT_FALSE(garbage.Find("ok")->bool_value());
  // The connection stays usable after a bad request.
  const Json stats = MustParse(MustExchange(&client, "{\"op\":\"stats\"}"));
  EXPECT_TRUE(stats.Find("ok")->bool_value());
  // Pipelined: two requests in one write still get two responses in order.
  const Json first = MustParse(MustExchange(&client, 
      "{\"op\":\"datasets\"}\n{\"op\":\"stats\"}"));
  EXPECT_EQ(first.GetString("op", ""), "datasets");
  server.Stop();
}

// --- event-loop robustness: timeouts, eviction, shedding, pipelining ------

// A heavy request (~hundreds of ms of optimization) for occupying workers.
std::string HeavyEstimateRequest(const std::string& dataset) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("v").Value(std::int64_t{2});
  writer.Key("op").Value("estimate");
  writer.Key("dataset").Value(dataset);
  writer.Key("restarts").Value(std::int64_t{1000});
  writer.Key("lmax").Value(std::int64_t{8});
  writer.EndObject();
  return writer.Take();
}

// Raw blocking TCP connect with an optionally shrunken receive buffer (the
// slow-client tests need the kernel to absorb as little as possible).
int RawConnect(const std::string& host, int port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FGR_CHECK(fd >= 0);
  if (rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  FGR_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1);
  FGR_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads until `count` newline-terminated lines arrive, EOF, or error.
std::vector<std::string> RecvLines(int fd, int count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[4096];
  while (static_cast<int>(lines.size()) < count) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos &&
           static_cast<int>(lines.size()) < count) {
      lines.push_back(buffer.substr(0, pos));
      buffer.erase(0, pos + 1);
    }
  }
  return lines;
}

// Polls `predicate` until it holds or ~5s pass.
bool EventuallyTrue(const std::function<bool()>& predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(ServerRobustnessTest, RequestTimeoutAnswersAndCloses) {
  Fixture fixture = MakeFixture("timeout_fixture", 51, 2000);
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  options.request_timeout_ms = 5;  // the heavy request runs ~400ms
  options.persist_summaries = false;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client = MustConnect(server.host(), server.port());
  const Json response = MustParse(
      MustExchange(&client, HeavyEstimateRequest(fixture.path)));
  EXPECT_FALSE(response.Find("ok")->bool_value());
  const Json* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "timeout");
  EXPECT_NE(error->GetString("message", "").find("deadline"),
            std::string::npos);
  // The connection was closed behind the error: the next exchange fails.
  EXPECT_FALSE(client.Exchange("{\"op\":\"stats\"}").ok());
  EXPECT_TRUE(EventuallyTrue(
      [&] { return server.metrics().requests_timed_out.load() >= 1; }));
  server.Stop();
}

TEST(ServerRobustnessTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 40;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.host(), server.port());
  EXPECT_TRUE(EventuallyTrue(
      [&] { return server.metrics().connections_closed_idle.load() >= 1; }));
  // The server closed its side: the read drains to EOF.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.Stop();
}

TEST(ServerRobustnessTest, SlowClientsAreEvictedAtTheWriteBufferCap) {
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  options.send_buffer_bytes = 4096;         // shrink kernel-side slack
  options.max_write_buffer_bytes = 16384;   // evict past 16 KB of backlog
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Pipeline thousands of stats requests and never read a byte: responses
  // pile up in the connection's write buffer until the cap evicts us.
  const int fd = RawConnect(server.host(), server.port(),
                            /*rcvbuf_bytes=*/2048);
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "{\"op\":\"stats\"}\n";
  SendAll(fd, burst);  // may fail midway once the server closes — fine
  EXPECT_TRUE(EventuallyTrue(
      [&] { return server.metrics().connections_evicted_slow.load() >= 1; }));
  ::close(fd);
  server.Stop();
}

TEST(ServerRobustnessTest, OverloadedRequestsAreShedWithAStructuredError) {
  Fixture fixture = MakeFixture("shed_fixture", 52, 2000);
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;    // one slot in service...
  options.queue_high_water = 1;  // ...one slot in the queue
  options.persist_summaries = false;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // A occupies the worker (~400ms), B occupies the queue, C must be shed.
  LineClient a = MustConnect(server.host(), server.port());
  LineClient b = MustConnect(server.host(), server.port());
  LineClient c = MustConnect(server.host(), server.port());
  std::thread a_thread([&] {
    const Json response = MustParse(
        MustExchange(&a, HeavyEstimateRequest(fixture.path)));
    EXPECT_TRUE(response.Find("ok")->bool_value())
        << response.Dump();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  std::thread b_thread([&] {
    const Json response = MustParse(
        MustExchange(&b, HeavyEstimateRequest(fixture.path)));
    EXPECT_TRUE(response.Find("ok")->bool_value())
        << response.Dump();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  const Json shed = MustParse(
      MustExchange(&c, HeavyEstimateRequest(fixture.path)));
  EXPECT_FALSE(shed.Find("ok")->bool_value());
  const Json* error = shed.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("code", ""), "overloaded");
  EXPECT_NE(error->GetString("message", "").find("high-water"),
            std::string::npos);
  EXPECT_GE(server.metrics().requests_shed.load(), 1);

  a_thread.join();
  b_thread.join();
  // The shed connection stays usable once pressure clears.
  const Json after = MustParse(MustExchange(&c, "{\"op\":\"stats\"}"));
  EXPECT_TRUE(after.Find("ok")->bool_value());
  server.Stop();
}

// 16 clients, each pipelining 48 requests in a single write: every
// response arrives, in order, with zero drops — the acceptance soak.
TEST(ServerRobustnessTest, PipelinedSoakDropsNothing) {
  Fixture fixture = MakeFixture("soak_fixture", 53);
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 4;
  options.persist_summaries = false;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Warm the summary cache so the pipelined estimates are uniform.
  {
    LineClient warm = MustConnect(server.host(), server.port());
    MustExchange(&warm, EstimateRequest(fixture.path));
  }

  constexpr int kClients = 16;
  constexpr int kRequests = 48;
  const char* cycle[] = {"stats", "datasets", "metrics", "estimate"};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = RawConnect(server.host(), server.port());
      std::string burst;
      for (int r = 0; r < kRequests; ++r) {
        const std::string verb = cycle[r % 4];
        burst += verb == "estimate"
                     ? EstimateRequest(fixture.path)
                     : "{\"op\":\"" + verb + "\"}";
        burst += "\n";
      }
      if (!SendAll(fd, burst)) {
        failures[c] = "send failed";
        ::close(fd);
        return;
      }
      const std::vector<std::string> lines = RecvLines(fd, kRequests);
      ::close(fd);
      if (static_cast<int>(lines.size()) != kRequests) {
        failures[c] = "dropped: got " + std::to_string(lines.size()) +
                      " of " + std::to_string(kRequests);
        return;
      }
      for (int r = 0; r < kRequests; ++r) {
        const Json response = MustParse(lines[static_cast<std::size_t>(r)]);
        if (!response.Find("ok")->bool_value()) {
          failures[c] = "response " + std::to_string(r) + " not ok";
          return;
        }
        const std::string verb = cycle[r % 4];
        // Ordering check: each response is distinguishable by its shape.
        const bool matches =
            verb == "estimate" ? response.Find("h") != nullptr
                               : response.GetString("op", "") == verb;
        if (!matches) {
          failures[c] = "response " + std::to_string(r) +
                        " out of order (wanted " + verb + ")";
          return;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  // The metrics verb observed every request the soak sent.
  const Json metrics =
      MustParse(server.HandleRequestLine("{\"op\":\"metrics\"}"));
  EXPECT_GE(metrics.Find("requests")->GetInt("total", 0),
            std::int64_t{kClients * kRequests});
  EXPECT_EQ(metrics.Find("requests")->GetInt("shed", -1), 0);
  EXPECT_EQ(metrics.Find("requests")->GetInt("timed_out", -1), 0);
  server.Stop();
}

// Stop() drains: a request in flight when Stop() begins still gets its
// response before the socket closes.
TEST(ServerRobustnessTest, GracefulDrainFlushesInFlightWork) {
  Fixture fixture = MakeFixture("drain_fixture", 54, 2000);
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 1;
  options.drain_timeout_ms = 10000;
  options.persist_summaries = false;
  FgrServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client = MustConnect(server.host(), server.port());
  std::string response_line;
  std::thread requester([&] {
    auto response = client.Exchange(HeavyEstimateRequest(fixture.path));
    if (response.ok()) response_line = std::move(response).value();
  });
  // Let the request reach the worker, then stop mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();
  requester.join();
  ASSERT_FALSE(response_line.empty()) << "drain dropped the response";
  const Json response = MustParse(response_line);
  EXPECT_TRUE(response.Find("ok")->bool_value()) << response.Dump();
}

// --- registry thread safety (satellite regression) ------------------------

TEST(RegistryThreadTest, ConcurrentRegisterAndLookupIsSafe) {
  DatasetRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          // Writers register fresh and overwrite shared names.
          const std::string name =
              "source-" + std::to_string(t) + "-" + std::to_string(i);
          registry.Register(std::make_shared<CallbackSource>(
              name, "threaded",
              [](const LoadOptions&) -> Result<LabeledGraph> {
                return Status::Internal("unused");
              }));
          registry.Register(std::make_shared<CallbackSource>(
              "shared", "threaded",
              [](const LoadOptions&) -> Result<LabeledGraph> {
                return Status::Internal("unused");
              }));
        } else {
          // Readers resolve names and snapshot the listing concurrently.
          (void)registry.Find("shared");
          (void)registry.Names();
          (void)registry.List();
          (void)ResolveGraphSource("shared", registry);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every writer's sources landed, and "shared" was replaced, not
  // duplicated.
  int shared_count = 0;
  for (const std::string& name : registry.Names()) {
    if (name == "shared") ++shared_count;
  }
  EXPECT_EQ(shared_count, 1);
  EXPECT_EQ(registry.Names().size(),
            static_cast<std::size_t>(kThreads / 2 * kPerThread + 1));
  EXPECT_NE(registry.Find("source-0-49"), nullptr);
}

}  // namespace
}  // namespace fgr
