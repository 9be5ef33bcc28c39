// fgr command-line tool: run the estimation pipeline on any dataset the
// registry can resolve — a registered mimic name, a SNAP-style edge-list
// file, or a .fgrbin binary cache.
//
// Subcommands:
//   fgr_cli --dataset <name|path> [--labels seeds.txt] [--classes K]
//           [--f FRAC] [--scale S] [--seed N] [--restarts R] [--lmax L]
//           [--lambda X] [--out predicted.txt]
//       End-to-end: load the dataset, estimate the compatibility matrix
//       with DCEr, propagate labels with LinBP, report accuracy when the
//       ground truth is known, and optionally write the predicted labels.
//       Fully labeled sources (mimics, converted caches) expose only a
//       stratified --f fraction (default 1%) as seeds.
//
//   fgr_cli datasets list
//       Print every registered dataset (name, description, published size).
//
//   fgr_cli datasets convert <name|path> <out.fgrbin> [--labels file]
//           [--classes K] [--scale S] [--seed N]
//       Load any resolvable dataset and write it as a binary cache —
//       including labels and the gold matrix when known — so later runs
//       reload it in O(read).
//
//   fgr_cli generate <edges.txt> <labels.txt> --nodes N --edges M
//           --classes K [--skew H] [--seed S] [--powerlaw]
//       Write a planted-compatibility graph and its full ground truth.
//
//   fgr_cli estimate <name|edges.txt> <labels.txt> --classes K
//           [--restarts R] [--lmax L] [--lambda X] [--memory-budget MB]
//       Estimate and print the compatibility matrix. Labels use -1 for
//       unlabeled nodes. A .fgrbin cache is mapped, not copied. With
//       --memory-budget the dataset must be a .fgrbin cache; the CSR is
//       then streamed block-row by block-row under the budget instead
//       (out-of-core estimation for graphs larger than RAM).
//
//   fgr_cli label <name|edges.txt> <labels.txt> <out.txt> --classes K
//           [--restarts R] [--memory-budget MB]
//       Estimate + LinBP propagation; writes a fully labeled file. With
//       --memory-budget the dataset must be a .fgrbin cache; estimation
//       and propagation then both stream block-row under the budget
//       (out-of-core labeling — only the n×k beliefs stay resident), with
//       output byte-identical to the in-core path in serial runs.
//
//   fgr_cli query estimate <dataset.fgrbin> [--restarts R] [--lmax L]
//           [--lambda X] [--dce-seed N] [--port P] [--host H]
//   fgr_cli query label <dataset.fgrbin> <out.txt> [--port P] [--host H]
//   fgr_cli query stats | datasets | metrics [--port P] [--host H]
//       Send one request to a running fgrd and print the result. estimate
//       prints the exact report the offline `estimate` subcommand prints
//       (the JSON carries full-precision doubles, so the matrices match
//       bit for bit); label writes the returned labels with WriteLabels,
//       byte-identical to the offline `label` output file.
//
// Every subcommand accepts --threads N, which pins the compute-kernel
// thread count; precedence is --threads > FGR_NUM_THREADS > hardware.
//
// Setting FGR_DATA_DIR redirects registered names (e.g. Pokec-Gender) to
// real downloaded files; see data/registry.h.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fgr/fgr.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fgr {
namespace cli {
namespace {

// Minimal --flag value parser over argv beyond the positional arguments.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  std::int64_t Int(const std::string& name, std::int64_t fallback) const {
    const std::string* raw = Find(name);
    return raw ? std::strtoll(raw->c_str(), nullptr, 10) : fallback;
  }
  double Double(const std::string& name, double fallback) const {
    const std::string* raw = Find(name);
    return raw ? std::strtod(raw->c_str(), nullptr) : fallback;
  }
  std::string Str(const std::string& name,
                  const std::string& fallback = "") const {
    const std::string* raw = Find(name);
    return raw ? *raw : fallback;
  }
  bool Bool(const std::string& name) const {
    for (const std::string& arg : args_) {
      if (arg == "--" + name) return true;
    }
    return false;
  }

 private:
  const std::string* Find(const std::string& name) const {
    const std::string key = "--" + name;
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == key) return &args_[i + 1];
    }
    return nullptr;
  }
  std::vector<std::string> args_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "fgr_cli: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  fgr_cli --dataset <name|path> [--labels seeds] [--classes K]\n"
      "          [--f FRAC] [--scale S] [--seed N] [--restarts R]\n"
      "          [--lmax L] [--lambda X] [--out predicted]\n"
      "  fgr_cli datasets list\n"
      "  fgr_cli datasets convert <name|path> <out.fgrbin> [--labels file]\n"
      "          [--classes K] [--scale S] [--seed N]\n"
      "  fgr_cli generate <edges> <labels> --nodes N --edges M --classes K\n"
      "          [--skew H] [--seed S] [--powerlaw]\n"
      "  fgr_cli estimate <name|edges> <labels> --classes K [--restarts R]\n"
      "          [--lmax L] [--lambda X] [--memory-budget MB]\n"
      "  fgr_cli label <name|edges> <labels> <out> --classes K "
      "[--restarts R]\n"
      "          [--memory-budget MB]\n"
      "  fgr_cli query estimate <dataset.fgrbin> [--restarts R] [--lmax L]\n"
      "          [--lambda X] [--dce-seed N] [--port P] [--host H]\n"
      "  fgr_cli query label <dataset.fgrbin> <out> [--port P] [--host H]\n"
      "  fgr_cli query stats|datasets|metrics [--port P] [--host H]\n"
      "  fgr_cli kernels\n"
      "(any subcommand: --threads N pins the kernel thread count;\n"
      " precedence --threads > FGR_NUM_THREADS > hardware;\n"
      " FGR_KERNEL=scalar|avx2|avx512|auto forces the SIMD backend;\n"
      " --trace out.json writes a chrome-trace of the run (or FGR_TRACE);\n"
      " --timings prints a per-stage time breakdown after the command;\n"
      " FGR_LOG_LEVEL=debug|info|warn|error sets log verbosity)\n");
  return 2;
}

// Resolves and loads a dataset reference through the registry (names and
// file paths alike); `labels_path` (when non-empty) overrides the source's
// own labels, whatever kind of source resolved.
Result<LabeledGraph> LoadDataset(const std::string& reference,
                                 const std::string& labels_path,
                                 const Flags& flags) {
  LoadOptions options;
  options.scale = flags.Double("scale", 1.0);
  options.seed = static_cast<std::uint64_t>(flags.Int("seed", 42));
  options.num_classes = static_cast<ClassId>(flags.Int("classes", -1));
  auto source = ResolveGraphSource(reference);
  if (!source.ok()) return source.status();
  Result<LabeledGraph> loaded = source.value()->Load(options);
  if (!loaded.ok()) return loaded.status();
  if (!labels_path.empty()) {
    ClassId num_classes = options.num_classes;
    if (num_classes < 1 && loaded.value().has_labels()) {
      num_classes = loaded.value().labels.num_classes();
    }
    Result<Labeling> labels = ReadLabels(
        labels_path, loaded.value().graph.num_nodes(), num_classes);
    if (!labels.ok()) return labels.status();
    loaded.value().labels = std::move(labels).value();
  }
  return loaded;
}

struct Problem {
  LabeledGraph data;
  Labeling seeds;      // what the estimator sees
  bool truth_known = false;  // labels are the full ground truth
};

// With `sample_when_full` (the end-to-end runner), fully labeled sources
// expose only a stratified --f fraction as seeds so there is something left
// to predict; estimate/label take the label file exactly as given.
Result<Problem> MakeProblem(const std::string& reference,
                            const std::string& labels_path,
                            const Flags& flags, bool sample_when_full) {
  Result<LabeledGraph> loaded = LoadDataset(reference, labels_path, flags);
  if (!loaded.ok()) return loaded.status();
  Problem problem;
  problem.data = std::move(loaded).value();
  if (!problem.data.has_labels()) {
    return Status::FailedPrecondition(
        "dataset '" + reference +
        "' has no labels; pass --labels <file> with seed labels");
  }
  if (problem.data.labels.num_classes() < 2) {
    return Status::FailedPrecondition(
        "dataset '" + reference +
        "' resolves to fewer than 2 classes; pass --classes K");
  }
  const NodeId n = problem.data.graph.num_nodes();
  problem.truth_known = problem.data.labels.NumLabeled() == n;
  if (problem.truth_known && sample_when_full) {
    Rng rng(static_cast<std::uint64_t>(flags.Int("seed", 42)) + 1);
    problem.seeds = SampleStratifiedSeeds(problem.data.labels,
                                          flags.Double("f", 0.01), rng);
  } else {
    problem.seeds = problem.data.labels;
  }
  return problem;
}

DceOptions MakeDceOptions(const Flags& flags) {
  DceOptions options;
  options.restarts = static_cast<int>(flags.Int("restarts", 10));
  options.max_path_length = static_cast<int>(flags.Int("lmax", 5));
  options.lambda = flags.Double("lambda", 10.0);
  // --dce-seed pins the restart RNG, and `query` forwards the same flag
  // to the daemon, so served and offline runs stay reproducible against
  // each other for any seed. Deliberately not the generation --seed flag:
  // that one predates the serving layer with different semantics (and a
  // different default), and coupling them would silently change results
  // of pre-existing commands.
  options.seed = static_cast<std::uint64_t>(flags.Int("dce-seed", 7));
  return options;
}

// Shared by the in-core, streaming, and served `estimate` paths: the
// streaming-e2e and serve-e2e CI jobs diff their outputs bit for bit, so
// there is exactly one copy of these format strings. The labeled fraction
// is computed exactly as Labeling::LabeledFraction does, so a count-only
// caller (the query client) prints the same digits.
void PrintEstimateReport(std::int64_t num_nodes, std::int64_t num_edges,
                         std::int64_t num_labeled,
                         const EstimationResult& estimate) {
  const double fraction =
      num_nodes == 0 ? 0.0
                     : static_cast<double>(num_labeled) /
                           static_cast<double>(num_nodes);
  std::printf("graph: n=%lld m=%lld, %lld labeled (f=%.4f%%)\n",
              static_cast<long long>(num_nodes),
              static_cast<long long>(num_edges),
              static_cast<long long>(num_labeled), 100.0 * fraction);
  std::printf("estimated compatibility matrix "
              "(%.3fs summarization + %.3fs optimization, energy %.3g):\n%s\n",
              estimate.seconds_summarization, estimate.seconds_optimization,
              estimate.energy, estimate.h.ToString(4).c_str());
}

int RunEndToEnd(const Flags& flags) {
  const std::string reference = flags.Str("dataset");
  if (reference.empty()) return Usage();
  auto problem = MakeProblem(reference, flags.Str("labels"), flags,
                             /*sample_when_full=*/true);
  if (!problem.ok()) return Fail(problem.status().ToString());
  const Graph& graph = problem.value().data.graph;
  const Labeling& seeds = problem.value().seeds;

  std::printf("dataset %s: n=%lld m=%lld k=%d, %lld seed labels (f=%.4f%%)\n",
              problem.value().data.name.c_str(),
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()),
              static_cast<int>(seeds.num_classes()),
              static_cast<long long>(seeds.NumLabeled()),
              100.0 * seeds.LabeledFraction());

  const EstimationResult estimate =
      EstimateDce(graph, seeds, MakeDceOptions(flags));
  std::printf("estimated compatibility matrix "
              "(%.3fs summarization + %.3fs optimization):\n%s\n",
              estimate.seconds_summarization, estimate.seconds_optimization,
              estimate.h.ToString(4).c_str());
  if (problem.value().data.gold.has_value()) {
    std::printf("L2 distance to the known gold matrix: %.4f\n",
                FrobeniusDistance(estimate.h, *problem.value().data.gold));
  }

  const LinBpResult prop = RunLinBp(graph, seeds, estimate.h);
  const Labeling predicted = LabelsFromBeliefs(prop.beliefs, seeds);
  std::printf("LinBP: %d iterations\n", prop.iterations_run);
  if (problem.value().truth_known) {
    std::printf("accuracy vs ground truth (unlabeled nodes): %.4f\n",
                MacroAccuracy(problem.value().data.labels, predicted, seeds));
  }
  const std::string out_path = flags.Str("out");
  if (!out_path.empty()) {
    const Status status = WriteLabels(predicted, out_path);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote %lld predicted labels to %s\n",
                static_cast<long long>(predicted.num_nodes()),
                out_path.c_str());
  }
  return 0;
}

int RunDatasetsList() {
  Table table({"name", "n", "m", "k", "source"});
  for (const auto& source : DatasetRegistry::Global().List()) {
    const auto* mimic = dynamic_cast<const MimicSource*>(source.get());
    table.NewRow().Add(source->name());
    if (mimic != nullptr) {
      table.Add(mimic->spec().num_nodes)
          .Add(mimic->spec().num_edges)
          .Add(mimic->spec().num_classes);
    } else {
      table.Add("-").Add("-").Add("-");
    }
    table.Add(source->Describe());
  }
  table.Print("registered datasets (resolve with --dataset <name>; "
              "FGR_DATA_DIR overrides with real files)");
  return 0;
}

int RunDatasetsConvert(const std::string& reference,
                       const std::string& out_path, const Flags& flags) {
  auto loaded = LoadDataset(reference, flags.Str("labels"), flags);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Status status = WriteFgrBin(loaded.value(), out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("converted %s (n=%lld m=%lld%s%s) -> %s\n",
              loaded.value().name.c_str(),
              static_cast<long long>(loaded.value().graph.num_nodes()),
              static_cast<long long>(loaded.value().graph.num_edges()),
              loaded.value().has_labels() ? ", labels" : "",
              loaded.value().gold.has_value() ? ", gold" : "",
              out_path.c_str());
  return 0;
}

int RunGenerate(const std::string& edges_path, const std::string& labels_path,
                const Flags& flags) {
  PlantedGraphConfig config = MakeSkewConfig(
      flags.Int("nodes", 10000), /*avg_degree=*/10.0,
      flags.Int("classes", 3), flags.Double("skew", 3.0),
      flags.Bool("powerlaw") ? DegreeDistribution::kPowerLaw
                             : DegreeDistribution::kUniform);
  if (flags.Int("edges", 0) > 0) config.num_edges = flags.Int("edges", 0);
  Rng rng(static_cast<std::uint64_t>(flags.Int("seed", 42)));
  auto planted = GeneratePlantedGraph(config, rng);
  if (!planted.ok()) return Fail(planted.status().ToString());

  Status status = WriteEdgeList(planted.value().graph, edges_path);
  if (!status.ok()) return Fail(status.ToString());
  status = WriteLabels(planted.value().labels, labels_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %lld nodes / %lld edges to %s, labels to %s\n",
              static_cast<long long>(planted.value().graph.num_nodes()),
              static_cast<long long>(planted.value().graph.num_edges()),
              edges_path.c_str(), labels_path.c_str());
  std::printf("planted compatibilities:\n%s\n",
              config.compatibility.ToString(3).c_str());
  return 0;
}

// What estimate/label run over, as a DatasetRef for fgr::Estimate/Label. A
// .fgrbin goes to the library as its path — mapped in core, or streamed
// block-row under --memory-budget MB — with the seeds read from the label
// file over the cache's node count; the two outputs match line for line
// (timings aside), so CI diffs them. Any other reference loads in memory
// through MakeProblem. `ref` borrows the other members, so a target stays
// where ResolveTarget filled it.
struct Target {
  Problem problem;
  Labeling cache_seeds;
  DatasetRef ref;
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
};

// Fills `target` and `options` from the command line; returns 0, or the
// exit code of the failure it reported.
int ResolveTarget(const std::string& reference,
                  const std::string& labels_path, const Flags& flags,
                  Target* target, EstimateOptions* options) {
  // The legacy subcommands keep their explicit contract: a headerless seed
  // file cannot prove the class count (a class absent from the seeds would
  // silently shrink K), so --classes stays mandatory here.
  if (flags.Int("classes", 0) < 2) {
    return Fail("--classes K (K >= 2) is required");
  }
  options->dce = MakeDceOptions(flags);
  const std::int64_t budget_mb = flags.Int("memory-budget", 0);
  if (reference.ends_with(kFgrBinExtension)) {
    Result<FgrBinInfo> info = InspectFgrBin(reference);
    if (!info.ok()) return Fail(info.status().ToString());
    Result<Labeling> seeds =
        ReadLabels(labels_path, info.value().num_nodes,
                   static_cast<ClassId>(flags.Int("classes", -1)));
    if (!seeds.ok()) return Fail(seeds.status().ToString());
    target->cache_seeds = std::move(seeds).value();
    target->ref = DatasetRef::FgrBin(reference, &target->cache_seeds);
    target->num_nodes = info.value().num_nodes;
    target->num_edges = info.value().nnz / 2;
    if (budget_mb > 0) options->memory_budget_bytes = budget_mb << 20;
    return 0;
  }
  if (budget_mb > 0) {
    return Fail("--memory-budget streams a .fgrbin cache; convert first: "
                "fgr_cli datasets convert " + reference + " <out" +
                kFgrBinExtension + ">");
  }
  Result<Problem> problem = MakeProblem(reference, labels_path, flags,
                                        /*sample_when_full=*/false);
  if (!problem.ok()) return Fail(problem.status().ToString());
  target->problem = std::move(problem).value();
  const Graph& graph = target->problem.data.graph;
  target->ref = DatasetRef::InMemory(graph, target->problem.seeds);
  target->num_nodes = graph.num_nodes();
  target->num_edges = graph.num_edges();
  return 0;
}

int RunEstimate(const std::string& reference, const std::string& labels_path,
                const Flags& flags) {
  Target target;
  EstimateOptions options;
  if (const int rc =
          ResolveTarget(reference, labels_path, flags, &target, &options)) {
    return rc;
  }
  Result<EstimationResult> estimate = fgr::Estimate(target.ref, options);
  if (!estimate.ok()) return Fail(estimate.status().ToString());
  PrintEstimateReport(target.num_nodes, target.num_edges,
                      target.ref.seeds->NumLabeled(), estimate.value());
  return 0;
}

int RunLabel(const std::string& reference, const std::string& labels_path,
             const std::string& out_path, const Flags& flags) {
  Target target;
  LabelOptions options;
  if (const int rc = ResolveTarget(reference, labels_path, flags, &target,
                                   &options.estimate)) {
    return rc;
  }
  Result<LabelResult> labeled = fgr::Label(target.ref, options);
  if (!labeled.ok()) return Fail(labeled.status().ToString());
  const Labeling& predicted = labeled.value().labels;
  const Status status = WriteLabels(predicted, out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("estimated H, propagated %d LinBP iterations, wrote %lld "
              "labels to %s\n",
              labeled.value().propagation.iterations_run,
              static_cast<long long>(predicted.num_nodes()),
              out_path.c_str());
  return 0;
}

// --- the fgrd client ------------------------------------------------------

// Sends `request` over a fresh connection (serve/protocol.h LineClient),
// parses the response, and fails on {"ok":false,"error":{...}} with the
// error's taxonomy code and message.
Result<Json> QueryServer(const Flags& flags, const std::string& request) {
  const std::string host = flags.Str("host", "127.0.0.1");
  const int port = static_cast<int>(flags.Int("port", 7411));
  auto client = LineClient::Connect(host, port);
  if (!client.ok()) return client.status();
  auto raw = client.value().Exchange(request);
  if (!raw.ok()) return raw.status();
  auto parsed = ParseJson(raw.value());
  if (!parsed.ok()) {
    return Status::Internal("cannot parse fgrd response: " +
                            parsed.status().message());
  }
  const Json* ok = parsed.value().Find("ok");
  if (ok == nullptr || ok->type() != Json::Type::kBool) {
    return Status::Internal("fgrd response is missing \"ok\"");
  }
  if (!ok->bool_value()) {
    const Json* error = parsed.value().Find("error");
    const Json detail = error != nullptr ? *error : Json();
    return Status::Internal("fgrd: " + detail.GetString("code", "internal") +
                            ": " + detail.GetString("message", "unknown"));
  }
  return parsed;
}

// The estimate/label knobs of a query request, forwarded verbatim so the
// daemon's defaults (which equal this CLI's defaults) apply when omitted.
std::string BuildQueryRequest(const std::string& op,
                              const std::string& dataset,
                              const Flags& flags) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("v").Value(kServeProtocolVersion);
  writer.Key("op").Value(op);
  writer.Key("dataset").Value(dataset);
  writer.Key("restarts").Value(flags.Int("restarts", 10));
  writer.Key("lmax").Value(flags.Int("lmax", 5));
  writer.Key("lambda").Value(flags.Double("lambda", 10.0));
  writer.Key("seed").Value(flags.Int("dce-seed", 7));
  writer.EndObject();
  return writer.Take();
}

// Rebuilds the k×k H matrix from the response's nested "h" array; %.17g
// serialization makes this bit-exact.
Result<DenseMatrix> MatrixFromResponse(const Json& response) {
  const Json* h = response.Find("h");
  if (h == nullptr || h->type() != Json::Type::kArray || h->items().empty()) {
    return Status::Internal("fgrd response is missing \"h\"");
  }
  const std::int64_t k = static_cast<std::int64_t>(h->items().size());
  DenseMatrix matrix(k, k);
  for (std::int64_t i = 0; i < k; ++i) {
    const Json& row = h->items()[static_cast<std::size_t>(i)];
    if (row.type() != Json::Type::kArray ||
        static_cast<std::int64_t>(row.items().size()) != k) {
      return Status::Internal("fgrd response \"h\" is not square");
    }
    for (std::int64_t j = 0; j < k; ++j) {
      matrix(i, j) = row.items()[static_cast<std::size_t>(j)].number_value();
    }
  }
  return matrix;
}

int RunQueryEstimate(const std::string& dataset, const Flags& flags) {
  auto response =
      QueryServer(flags, BuildQueryRequest("estimate", dataset, flags));
  if (!response.ok()) return Fail(response.status().ToString());
  const Json& json = response.value();
  auto h = MatrixFromResponse(json);
  if (!h.ok()) return Fail(h.status().ToString());

  EstimationResult estimate;
  estimate.h = std::move(h).value();
  estimate.energy = json.GetNumber("energy", 0.0);
  estimate.seconds_summarization = json.GetNumber("seconds_summarization", 0.0);
  estimate.seconds_optimization = json.GetNumber("seconds_optimization", 0.0);
  // The cache provenance goes to stderr so stdout stays diffable against
  // the offline `estimate` report.
  std::fprintf(stderr, "fgrd: summary %s, %s\n",
               json.GetString("summary_source", "?").c_str(),
               json.Find("resident") != nullptr &&
                       json.Find("resident")->bool_value()
                   ? "resident"
                   : "streamed");
  PrintEstimateReport(json.GetInt("n", 0), json.GetInt("m", 0),
                      json.GetInt("labeled", 0), estimate);
  return 0;
}

int RunQueryLabel(const std::string& dataset, const std::string& out_path,
                  const Flags& flags) {
  auto response =
      QueryServer(flags, BuildQueryRequest("label", dataset, flags));
  if (!response.ok()) return Fail(response.status().ToString());
  const Json& json = response.value();
  const Json* labels = json.Find("labels");
  if (labels == nullptr || labels->type() != Json::Type::kArray) {
    return Fail("fgrd response is missing \"labels\"");
  }
  const ClassId num_classes =
      static_cast<ClassId>(json.GetInt("k", 0));
  if (num_classes < 1) return Fail("fgrd response is missing \"k\"");
  std::vector<ClassId> raw;
  raw.reserve(labels->items().size());
  for (const Json& value : labels->items()) {
    // Validate before Labeling::FromVector, whose range FGR_CHECK would
    // abort the client on a garbled or version-skewed response. Labels
    // must be integers — a 1.9 is a corrupt response, not class 1.
    const double entry = value.number_value();
    if (value.type() != Json::Type::kNumber || !(entry >= 0.0) ||
        entry >= static_cast<double>(num_classes) ||
        entry != std::floor(entry)) {
      return Fail("fgrd response contains a label outside [0, " +
                  std::to_string(num_classes) + ")");
    }
    raw.push_back(static_cast<ClassId>(entry));
  }
  const Labeling predicted = Labeling::FromVector(std::move(raw),
                                                  num_classes);
  const Status status = WriteLabels(predicted, out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::fprintf(stderr, "fgrd: summary %s, rho(W) %s\n",
               json.GetString("summary_source", "?").c_str(),
               json.GetString("rho_w_source", "?").c_str());
  std::printf("estimated H, propagated %d LinBP iterations, wrote %lld "
              "labels to %s\n",
              static_cast<int>(json.GetInt("linbp_iterations", 0)),
              static_cast<long long>(predicted.num_nodes()),
              out_path.c_str());
  return 0;
}

int RunQuery(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string op = argv[2];
  if (op == "estimate" && argc >= 4) {
    return RunQueryEstimate(argv[3], Flags(argc, argv, 4));
  }
  if (op == "label" && argc >= 5) {
    return RunQueryLabel(argv[3], argv[4], Flags(argc, argv, 5));
  }
  if (op == "stats" || op == "datasets" || op == "metrics") {
    const Flags flags(argc, argv, 3);
    auto response = QueryServer(
        flags, "{\"v\":" + std::to_string(kServeProtocolVersion) +
                   ",\"op\":\"" + op + "\"}");
    if (!response.ok()) return Fail(response.status().ToString());
    std::printf("%s\n", response.value().Dump().c_str());
    return 0;
  }
  return Usage();
}

// Prints the dispatched kernel backend and which variants this build /
// machine can run — the first line is what CI publishes to the job summary.
int RunKernels() {
  std::fputs(kernels::DescribeKernels().c_str(), stdout);
  return 0;
}

// Prints the per-stage aggregate the tracer collected over the run. Only
// reached when --timings was passed (which records spans in memory even
// without --trace), so default stdout stays byte-stable for CI diffs.
void PrintStageTimings() {
  const std::vector<obs::StageTotal> totals = obs::StageTotals();
  if (totals.empty()) {
    std::printf("\n== stage timings ==\n(no spans recorded)\n");
    return;
  }
  Table table({"stage", "calls", "total_ms"});
  for (const obs::StageTotal& stage : totals) {
    table.NewRow()
        .Add(stage.name)
        .Add(stage.count)
        .Add(static_cast<double>(stage.total_ns) * 1e-6, 3);
  }
  table.Print("stage timings");
}

int RunCommand(int argc, char** argv) {
  const std::string command = argv[1];
  if (command.rfind("--", 0) == 0) {
    // No subcommand: the end-to-end path, e.g. `fgr_cli --dataset Cora`.
    return RunEndToEnd(Flags(argc, argv, 1));
  }
  if (command == "datasets" && argc >= 3) {
    const std::string action = argv[2];
    if (action == "list") return RunDatasetsList();
    if (action == "convert" && argc >= 5) {
      return RunDatasetsConvert(argv[3], argv[4], Flags(argc, argv, 5));
    }
    return Usage();
  }
  if (command == "generate" && argc >= 4) {
    return RunGenerate(argv[2], argv[3], Flags(argc, argv, 4));
  }
  if (command == "estimate" && argc >= 4) {
    return RunEstimate(argv[2], argv[3], Flags(argc, argv, 4));
  }
  if (command == "label" && argc >= 5) {
    return RunLabel(argv[2], argv[3], argv[4], Flags(argc, argv, 5));
  }
  if (command == "query") {
    return RunQuery(argc, argv);
  }
  if (command == "kernels") {
    return RunKernels();
  }
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // Global flags, valid anywhere on the line for every subcommand.
  // --threads pins the kernel thread count (precedence: --threads >
  // FGR_NUM_THREADS > hardware). --trace/--timings turn the tracer on;
  // --timings records in memory only and prints the aggregate at exit.
  bool timings = false;
  obs::InitLogLevelFromEnv();
  obs::InitTracingFromEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const long long threads = std::atoll(argv[i + 1]);
      if (threads < 1) return Fail("--threads must be >= 1");
      SetNumThreads(static_cast<int>(threads));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      obs::EnableTracing(argv[i + 1]);  // flag wins over FGR_TRACE
    } else if (std::strcmp(argv[i], "--timings") == 0) {
      timings = true;
    }
  }
  if (timings && !obs::TracingEnabled()) obs::EnableTracing("");
  const int rc = RunCommand(argc, argv);
  if (timings) PrintStageTimings();
  return rc;
}

}  // namespace
}  // namespace cli
}  // namespace fgr

int main(int argc, char** argv) { return fgr::cli::Main(argc, argv); }
