#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "core/dce.h"
#include "data/prefetching_panel_reader.h"
#include "data/streaming_estimation.h"
#include "matrix/kernels/kernels.h"
#include "matrix/spectral.h"
#include "obs/counters.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "prop/linbp.h"

namespace fgr {
namespace {

using SteadyClock = std::chrono::steady_clock;

// epoll user-data tags for the two non-connection fds. Connection ids
// count up from 1, so these can never collide.
constexpr std::uint64_t kListenTag = ~std::uint64_t{0};
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0} - 1;

constexpr auto kRelaxed = std::memory_order_relaxed;

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::string CanonicalPath(const std::string& path) {
  std::error_code ec;
  std::filesystem::path canonical =
      std::filesystem::weakly_canonical(std::filesystem::path(path), ec);
  return ec ? path : canonical.string();
}

DatasetSummary SummaryFromStatistics(GraphStatistics stats, PathType path_type,
                                     int max_length, std::int64_t num_nodes,
                                     std::int32_t num_classes) {
  DatasetSummary summary;
  summary.path_type = path_type;
  summary.max_length = max_length;
  summary.num_nodes = num_nodes;
  summary.num_classes = num_classes;
  summary.m_raw = std::move(stats.m_raw);
  summary.seconds = stats.seconds;
  return summary;
}

void AppendMatrix(JsonWriter* writer, const DenseMatrix& m) {
  writer->BeginArray();
  for (DenseMatrix::Index i = 0; i < m.rows(); ++i) {
    writer->BeginArray();
    for (DenseMatrix::Index j = 0; j < m.cols(); ++j) {
      writer->Value(m(i, j));
    }
    writer->EndArray();
  }
  writer->EndArray();
}

}  // namespace

// Per-connection state. Exclusively owned and mutated by the event
// thread; workers only ever see the (conn_id, generation) pair.
struct FgrServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::string read_buffer;   // unframed bytes
  std::string write_buffer;  // unsent response bytes
  std::size_t write_offset = 0;
  std::deque<std::string> pending_lines;  // framed, not yet dispatched
  bool in_flight = false;         // one request at a time per connection
  bool want_write = false;        // EPOLLOUT armed
  bool close_after_flush = false;
  bool peer_closed = false;       // read side saw EOF
  bool overflowed = false;        // partial line exceeded the size limit
  // A finished worker item whose generation no longer matches was
  // orphaned by a timeout and gets dropped.
  std::uint64_t request_generation = 0;
  SteadyClock::time_point request_start{};
  // This connection's key in deadlines_: the in-flight request's deadline,
  // else the idle deadline.
  SteadyClock::time_point deadline{};
};

struct FgrServer::EstimateOutcome {
  std::shared_ptr<const MappedFgrBin> mapped;  // null when streamed
  std::string canonical_path;
  // The seed labeling: a borrowed view into the mapping (which `mapped`
  // pins) on the resident path — the warm hot path never copies the
  // n-sized labels — or owned storage on the streamed path.
  Labeling streamed_seeds;
  const Labeling* seeds = nullptr;
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;
  // The identity the summary and ρ(W) are cached under, and — streamed
  // only — the file stamp that hash was taken at.
  std::uint64_t content_hash = 0;
  FileStamp stamp;
  SummarySource source = SummarySource::kComputed;
  EstimationResult estimate;
  // Per-request stage breakdown, echoed as the "stages" object in
  // estimate/label responses.
  double seconds_acquire = 0.0;    // dataset resolve + seed load
  double seconds_summarize = 0.0;  // SummaryCache::GetOrCompute
  double seconds_optimize = 0.0;   // EstimateDceFromStatistics
  double seconds_propagate = 0.0;  // label only: LinBP
  // Label only: the propagated labels, LinBP's iteration count, and the
  // ρ(W) it scaled ε by, with where that ρ came from.
  Labeling predicted;
  int linbp_iterations = 0;
  double rho_w = 0.0;
  SummarySource rho_source = SummarySource::kComputed;
};

FgrServer::FgrServer(ServerOptions options)
    : options_(std::move(options)),
      datasets_(options_.dataset_budget_bytes),
      summaries_(options_.persist_summaries) {}

FgrServer::~FgrServer() { Stop(); }

Result<std::uint64_t> FgrServer::StreamingContentHash(
    const std::string& path, const FileStamp& stamp) {
  {
    std::lock_guard<std::mutex> lock(streamed_hash_mutex_);
    auto found = streamed_hashes_.find(path);
    if (found != streamed_hashes_.end() && found->second.stamp == stamp) {
      return found->second.hash;
    }
  }
  Result<std::uint64_t> hashed = HashFileContents(path);
  if (!hashed.ok()) return hashed.status();
  std::lock_guard<std::mutex> lock(streamed_hash_mutex_);
  // Cheap bound for rotating dataset populations; a dropped entry only
  // costs one re-hash.
  if (streamed_hashes_.size() > 1024) streamed_hashes_.clear();
  streamed_hashes_[path] = {stamp, hashed.value()};
  return hashed.value();
}

Status FgrServer::Preload(const std::string& path) {
  return datasets_.Acquire(path).status();
}

Status FgrServer::RunEstimate(const Request& request,
                              EstimateOutcome* outcome) {
  FGR_TRACE_SPAN("serve/run_estimate");
  Stopwatch stage_timer;
  const std::string& dataset = request.dataset;
  if (!EndsWith(dataset, kFgrBinExtension)) {
    return Status::InvalidArgument(
        dataset + ": fgrd serves .fgrbin caches; convert first: "
        "fgr_cli datasets convert <name|path> <out.fgrbin>");
  }
  const PathType path_type = request.options.path_type;

  SummaryCache::ComputeFn compute;

  // Acquire canonicalizes internally; the resident branch reads the
  // canonical key back from the mapping rather than resolving the path a
  // second time on the warm hot path.
  Result<DatasetCache::Resident> acquired = datasets_.Acquire(dataset);
  if (acquired.ok()) {
    const std::shared_ptr<const MappedFgrBin> mapped = acquired.value().mapped;
    outcome->mapped = mapped;
    outcome->canonical_path = mapped->path();
    outcome->seeds = &mapped->labels();
    outcome->num_nodes = mapped->num_nodes();
    outcome->num_edges = mapped->num_edges();
    outcome->content_hash = acquired.value().content_hash;
    // Resident: the shared ℓ-pass body over the mapped CSR as one panel —
    // what ComputeGraphStatistics runs in-core, so the statistics match
    // the offline CLI bit for bit. The lambda captures only the mapping
    // (which owns the labels); the summarizer copies them once, and only
    // on the cold path that runs it.
    compute = [mapped, path_type](int max_length) -> Result<DatasetSummary> {
      WholeMatrixSource whole(mapped->View());
      Result<GraphStatistics> stats =
          SummarizePanels(whole, mapped->labels(), max_length, path_type,
                          NormalizationVariant::kRowStochastic);
      return SummaryFromStatistics(
          std::move(stats).value(), path_type, max_length,
          mapped->num_nodes(),
          static_cast<std::int32_t>(mapped->labels().num_classes()));
    };
  } else if (acquired.status().code() == StatusCode::kFailedPrecondition) {
    // Too large for residency: estimates stream, and label requests
    // propagate block-row over the same panel stream (HandleEstimate opens
    // a StreamedPanelSource for non-resident outcomes).
    outcome->canonical_path = CanonicalPath(dataset);
    const std::string& path = outcome->canonical_path;
    // The stamp the content hash is valid for; the compute callback
    // re-stats after streaming so a file rewritten mid-pass can never be
    // cached (or persisted) under the old hash.
    Result<FileStamp> stamped = FileStamp::Of(path);
    if (!stamped.ok()) return stamped.status();
    const FileStamp stamp = stamped.value();

    Result<std::uint64_t> hashed = StreamingContentHash(path, stamp);
    if (!hashed.ok()) return hashed.status();
    outcome->content_hash = hashed.value();
    outcome->stamp = stamp;
    Result<Labeling> seeds = ReadFgrBinLabels(path);
    if (!seeds.ok()) return seeds.status();
    outcome->streamed_seeds = std::move(seeds).value();
    outcome->seeds = &outcome->streamed_seeds;
    Result<FgrBinInfo> info = InspectFgrBin(path);
    if (!info.ok()) return info.status();
    outcome->num_nodes = info.value().num_nodes;
    outcome->num_edges = info.value().nnz / 2;
    // The lambda runs synchronously inside GetOrCompute below (outcome
    // outlives it), so it borrows the seeds instead of copying the
    // n-sized labeling — warm hits never pay for a labeling the callback
    // would not even run on.
    const Labeling* streaming_seeds = &outcome->streamed_seeds;
    const std::int64_t budget = options_.streaming_budget_bytes;
    compute = [path, streaming_seeds, path_type, budget,
               stamp](int max_length) -> Result<DatasetSummary> {
      BlockRowReaderOptions reader_options;
      reader_options.memory_budget_bytes = budget;
      Result<GraphStatistics> stats = ComputeGraphStatisticsStreaming(
          path, *streaming_seeds, max_length, path_type,
          NormalizationVariant::kRowStochastic, reader_options);
      if (!stats.ok()) return stats.status();
      // Fail before anything is cached when the bytes changed under the
      // pass: the hash above would no longer describe these statistics.
      Result<FileStamp> after = FileStamp::Of(path);
      if (!after.ok() || after.value() != stamp) {
        return Status::Internal(
            path + ": dataset changed while being summarized; retry");
      }
      return SummaryFromStatistics(
          std::move(stats).value(), path_type, max_length,
          streaming_seeds->num_nodes(),
          static_cast<std::int32_t>(streaming_seeds->num_classes()));
    };
  } else {
    return acquired.status();
  }

  const std::string& path = outcome->canonical_path;
  if (outcome->seeds->NumLabeled() == 0) {
    return Status::FailedPrecondition(
        path + ": cache has no label section to seed from; convert with "
        "--labels <seeds>");
  }
  if (outcome->seeds->num_classes() < 2) {
    return Status::FailedPrecondition(
        path + ": cache labels have fewer than 2 classes");
  }
  outcome->seconds_acquire = stage_timer.Seconds();

  stage_timer.Restart();
  Result<std::shared_ptr<const DatasetSummary>> summary = [&] {
    FGR_TRACE_SPAN("serve/summarize");
    return summaries_.GetOrCompute(path, outcome->content_hash, path_type,
                                   request.options.max_path_length, compute,
                                   &outcome->source);
  }();
  if (!summary.ok()) return summary.status();
  outcome->seconds_summarize = stage_timer.Seconds();
  stage_timer.Restart();

  GraphStatistics stats = StatisticsFromSummary(
      *summary.value(), request.options.max_path_length,
      request.options.variant);
  if (outcome->source == SummarySource::kComputed) {
    // Report the real graph-pass cost on the query that paid it; cache
    // hits report 0, which is the point.
    stats.seconds = summary.value()->seconds;
  }
  {
    FGR_TRACE_SPAN("serve/optimize");
    outcome->estimate = EstimateDceFromStatistics(
        stats, outcome->seeds->num_classes(), request.options);
  }
  outcome->seconds_optimize = stage_timer.Seconds();
  return Status::Ok();
}

Result<std::string> FgrServer::HandleEstimate(const Request& request) {
  EstimateOutcome outcome;
  FGR_RETURN_IF_ERROR(RunEstimate(request, &outcome));
  const bool label = request.op == RequestOp::kLabel;
  if (label) {
    Stopwatch propagate_timer;
    Result<LinBpResult> prop = [&]() -> Result<LinBpResult> {
      FGR_TRACE_SPAN("serve/propagate");
      // Resident: the mapped adjacency as one panel — the body
      // RunLinBp(graph, ...) runs in-core. Non-resident: block-row panels
      // streamed through the prefetcher, with only the n×k belief state
      // resident. Labels match across the two in serial runs.
      std::optional<WholeMatrixSource> whole;
      std::unique_ptr<StreamedPanelSource> streamed;
      PanelSource* source = nullptr;
      if (outcome.mapped != nullptr) {
        source = &whole.emplace(outcome.mapped->View());
      } else {
        BlockRowReaderOptions reader_options;
        reader_options.memory_budget_bytes = options_.streaming_budget_bytes;
        Result<std::unique_ptr<StreamedPanelSource>> opened =
            StreamedPanelSource::Open(outcome.canonical_path, reader_options,
                                      outcome.seeds->num_nodes());
        if (!opened.ok()) return opened.status();
        streamed = std::move(opened).value();
        source = streamed.get();
      }
      // ρ(W) depends on the bytes alone: run its Lanczos passes on the
      // first label of this content only. The value is the one LinBP
      // would compute over this source, so the hint changes no bit.
      Result<double> rho_w = summaries_.GetOrComputeRho(
          outcome.canonical_path, outcome.content_hash,
          [&]() -> Result<double> {
            Result<double> rho = SpectralRadius(*source);
            if (!rho.ok() || outcome.mapped != nullptr) return rho;
            // Streamed: memoize nothing when the bytes changed after the
            // hash was taken — ρ would describe another file.
            Result<FileStamp> after = FileStamp::Of(outcome.canonical_path);
            if (!after.ok() || after.value() != outcome.stamp) {
              return Status::Internal(outcome.canonical_path +
                                      ": dataset changed while computing "
                                      "rho(W); retry");
            }
            return rho;
          },
          &outcome.rho_source);
      if (!rho_w.ok()) return rho_w.status();
      LinBpOptions linbp;
      linbp.rho_w_hint = rho_w.value();
      return RunLinBpOverPanels(*source, *outcome.seeds, outcome.estimate.h,
                                linbp);
    }();
    if (!prop.ok()) return prop.status();
    outcome.seconds_propagate = propagate_timer.Seconds();
    outcome.linbp_iterations = prop.value().iterations_run;
    outcome.rho_w = prop.value().rho_w;
    outcome.predicted =
        LabelsFromBeliefs(prop.value().beliefs, *outcome.seeds);
  }

  // The one writer of estimate and label responses: the shared fields and
  // "stages", then label's propagation fields.
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("v").Value(kServeProtocolVersion);
  writer.Key("ok").Value(true);
  writer.Key("op").Value(label ? "label" : "estimate");
  writer.Key("dataset").Value(request.dataset);
  writer.Key("resident").Value(outcome.mapped != nullptr);
  writer.Key("summary_source").Value(SummarySourceName(outcome.source));
  writer.Key("n").Value(outcome.num_nodes);
  writer.Key("m").Value(outcome.num_edges);
  writer.Key("k").Value(
      static_cast<std::int64_t>(outcome.seeds->num_classes()));
  writer.Key("labeled").Value(outcome.seeds->NumLabeled());
  writer.Key("energy").Value(outcome.estimate.energy);
  writer.Key("restarts_used").Value(outcome.estimate.restarts_used);
  writer.Key("optimizer_iterations")
      .Value(outcome.estimate.optimizer_iterations);
  writer.Key("seconds_summarization")
      .Value(outcome.estimate.seconds_summarization);
  writer.Key("seconds_optimization")
      .Value(outcome.estimate.seconds_optimization);
  // Every member of "stages" is a server-side time that clients sum, so
  // it holds the stage timings and nothing else.
  writer.Key("stages");
  writer.BeginObject();
  writer.Key("acquire_ms").Value(outcome.seconds_acquire * 1e3);
  writer.Key("summarize_ms").Value(outcome.seconds_summarize * 1e3);
  writer.Key("optimize_ms").Value(outcome.seconds_optimize * 1e3);
  if (label) {
    writer.Key("propagate_ms").Value(outcome.seconds_propagate * 1e3);
  }
  writer.EndObject();
  writer.Key("h");
  AppendMatrix(&writer, outcome.estimate.h);
  if (label) {
    writer.Key("linbp_iterations").Value(outcome.linbp_iterations);
    writer.Key("rho_w").Value(outcome.rho_w);
    writer.Key("rho_w_source").Value(SummarySourceName(outcome.rho_source));
    writer.Key("labels");
    writer.BeginArray();
    for (NodeId i = 0; i < outcome.predicted.num_nodes(); ++i) {
      writer.Value(static_cast<std::int64_t>(outcome.predicted.label(i)));
    }
    writer.EndArray();
  }
  writer.EndObject();
  return writer.Take();
}

std::string FgrServer::HandleDatasets() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("v").Value(kServeProtocolVersion);
  writer.Key("ok").Value(true);
  writer.Key("op").Value("datasets");
  writer.Key("resident");
  writer.BeginArray();
  for (const std::string& path : datasets_.ResidentPaths()) {
    writer.Value(path);
  }
  writer.EndArray();
  writer.Key("resident_bytes").Value(datasets_.resident_bytes());
  writer.Key("budget_bytes").Value(datasets_.byte_budget());
  writer.EndObject();
  return writer.Take();
}

std::string FgrServer::MetricsJson(const char* op) const {
  const SummaryCache::Counters summary = summaries_.counters();
  const DatasetCache::Counters data = datasets_.counters();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("v").Value(kServeProtocolVersion);
  writer.Key("ok").Value(true);
  writer.Key("op").Value(op);
  writer.Key("uptime_seconds").Value(uptime_.Seconds());
  writer.Key("connections");
  writer.BeginObject();
  writer.Key("accepted").Value(metrics_.connections_accepted.load(kRelaxed));
  writer.Key("active").Value(metrics_.connections_active.load(kRelaxed));
  writer.Key("evicted_slow")
      .Value(metrics_.connections_evicted_slow.load(kRelaxed));
  writer.Key("closed_idle")
      .Value(metrics_.connections_closed_idle.load(kRelaxed));
  writer.EndObject();
  writer.Key("requests");
  writer.BeginObject();
  writer.Key("total").Value(metrics_.requests_total.load(kRelaxed));
  writer.Key("estimate").Value(metrics_.requests_estimate.load(kRelaxed));
  writer.Key("label").Value(metrics_.requests_label.load(kRelaxed));
  writer.Key("stats").Value(metrics_.requests_stats.load(kRelaxed));
  writer.Key("datasets").Value(metrics_.requests_datasets.load(kRelaxed));
  writer.Key("metrics").Value(metrics_.requests_metrics.load(kRelaxed));
  writer.Key("errors").Value(metrics_.requests_errors.load(kRelaxed));
  writer.Key("shed").Value(metrics_.requests_shed.load(kRelaxed));
  writer.Key("timed_out").Value(metrics_.requests_timed_out.load(kRelaxed));
  writer.EndObject();
  writer.Key("queue");
  writer.BeginObject();
  writer.Key("depth").Value(metrics_.queue_depth.load(kRelaxed));
  writer.Key("high_water").Value(options_.queue_high_water);
  writer.Key("workers").Value(options_.worker_threads);
  writer.EndObject();
  writer.Key("io");
  writer.BeginObject();
  writer.Key("bytes_read").Value(metrics_.bytes_read.load(kRelaxed));
  writer.Key("bytes_written").Value(metrics_.bytes_written.load(kRelaxed));
  writer.EndObject();
  const auto emit_ring = [&writer](const char* key, const LatencyRing& ring) {
    writer.Key(key);
    writer.BeginObject();
    writer.Key("count").Value(static_cast<std::int64_t>(ring.count()));
    writer.Key("p50_ms").Value(ring.QuantileSeconds(0.5) * 1e3);
    writer.Key("p99_ms").Value(ring.QuantileSeconds(0.99) * 1e3);
    writer.EndObject();
  };
  emit_ring("latency", metrics_.latency);
  writer.Key("summary");
  writer.BeginObject();
  writer.Key("memory_hits").Value(summary.memory_hits);
  writer.Key("disk_hits").Value(summary.disk_hits);
  writer.Key("computed").Value(summary.computed);
  writer.Key("invalidations").Value(summary.invalidations);
  writer.Key("rho_memory_hits").Value(summary.rho_memory_hits);
  writer.Key("rho_computed").Value(summary.rho_computed);
  writer.EndObject();
  writer.Key("datasets");
  writer.BeginObject();
  writer.Key("hits").Value(data.hits);
  writer.Key("misses").Value(data.misses);
  writer.Key("evictions").Value(data.evictions);
  writer.Key("stale_reopens").Value(data.stale_reopens);
  writer.Key("resident").Value(datasets_.entries());
  writer.Key("resident_bytes").Value(datasets_.resident_bytes());
  writer.Key("budget_bytes").Value(datasets_.byte_budget());
  writer.EndObject();
  // Per-stage request histograms (queue wait → worker compute → response
  // write) and the pipeline/kernel counters from src/obs.
  writer.Key("stages");
  writer.BeginObject();
  emit_ring("queue_wait", metrics_.stage_queue_wait);
  emit_ring("compute", metrics_.stage_compute);
  emit_ring("write", metrics_.stage_write);
  writer.EndObject();
  writer.Key("pipeline");
  writer.BeginObject();
  for (int c = 0; c < static_cast<int>(obs::PipelineCounter::kCount); ++c) {
    const auto counter = static_cast<obs::PipelineCounter>(c);
    writer.Key(obs::CounterName(counter)).Value(obs::GetCounter(counter));
  }
  const std::int64_t depth_samples =
      obs::GetCounter(obs::PipelineCounter::kPrefetchQueueDepthSamples);
  writer.Key("prefetch_queue_depth_mean")
      .Value(depth_samples > 0
                 ? static_cast<double>(obs::GetCounter(
                       obs::PipelineCounter::kPrefetchQueueDepthSum)) /
                       static_cast<double>(depth_samples)
                 : 0.0);
  writer.EndObject();
  writer.EndObject();
  return writer.Take();
}

std::string FgrServer::HandleRequestLine(const std::string& line) {
  // Request-scoped id, shared with the access-log line below so log
  // entries from a busy daemon can be correlated per request.
  const std::int64_t request_id =
      metrics_.requests_total.fetch_add(1, kRelaxed) + 1;
  const SteadyClock::time_point started = SteadyClock::now();
  const char* op_name = "?";
  std::string dataset;
  Result<std::string> response = [&]() -> Result<std::string> {
    if (static_cast<std::int64_t>(line.size()) > options_.max_request_bytes) {
      return Status::InvalidArgument(
          "request of " + std::to_string(line.size()) + " bytes exceeds the " +
          std::to_string(options_.max_request_bytes) + "-byte limit");
    }
    Result<Request> parsed = ParseRequest(line);
    if (!parsed.ok()) return parsed.status();
    const Request& request = parsed.value();
    dataset = request.dataset;
    switch (request.op) {
      case RequestOp::kEstimate:
        op_name = "estimate";
        metrics_.requests_estimate.fetch_add(1, kRelaxed);
        return HandleEstimate(request);
      case RequestOp::kLabel:
        op_name = "label";
        metrics_.requests_label.fetch_add(1, kRelaxed);
        return HandleEstimate(request);
      case RequestOp::kStats:
        op_name = "stats";
        metrics_.requests_stats.fetch_add(1, kRelaxed);
        return MetricsJson(op_name);
      case RequestOp::kDatasets:
        op_name = "datasets";
        metrics_.requests_datasets.fetch_add(1, kRelaxed);
        return HandleDatasets();
      case RequestOp::kMetrics:
        op_name = "metrics";
        metrics_.requests_metrics.fetch_add(1, kRelaxed);
        return MetricsJson(op_name);
    }
    return Status::Internal("unhandled op");
  }();
  // `ok` is this request's own outcome, never a shared counter's delta.
  const bool ok = response.ok();
  if (!ok) metrics_.requests_errors.fetch_add(1, kRelaxed);
  const double millis =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          SteadyClock::now() - started)
          .count();
  FGR_LOG(kInfo, "serve")
      << "req=" << request_id << " op=" << op_name
      << (dataset.empty() ? std::string()
                          : std::string(" dataset=") + dataset)
      << " ok=" << (ok ? 1 : 0) << " ms=" << millis;
  return ok ? std::move(response).value()
            : ErrorResponseLine(response.status());
}

Status FgrServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  draining_.store(false);
  stopping_.store(false);
  drained_.store(false);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in address;
  std::memset(&address, 0, sizeof(address));
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse host '" + options_.host +
                                   "' (use a dotted IPv4 address)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    const int error = errno;
    ::close(fd);
    return Status::Internal("bind to " + options_.host + ":" +
                            std::to_string(options_.port) + " failed: " +
                            std::strerror(error));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::Internal("listen() failed");
  }
  socklen_t length = sizeof(address);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  port_ = static_cast<int>(ntohs(address.sin_port));
  // Non-blocking so the accept loop can drain the backlog to EAGAIN.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    ::close(fd);
    return Status::Internal("epoll_create1() failed");
  }
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    ::close(epoll_fd);
    ::close(fd);
    return Status::Internal("eventfd() failed");
  }
  // The listen and wake fds are level-triggered (cheap, no starvation
  // subtleties); client sockets are edge-triggered.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(wake_fd);
    ::close(epoll_fd);
    ::close(fd);
    return Status::Internal("epoll_ctl(listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    ::close(wake_fd);
    ::close(epoll_fd);
    ::close(fd);
    return Status::Internal("epoll_ctl(wake) failed");
  }

  listen_fd_ = fd;
  epoll_fd_ = epoll_fd;
  wake_fd_ = wake_fd;

  running_.store(true);
  event_thread_ = std::thread([this] { EventLoop(); });
  const int workers = options_.worker_threads > 0 ? options_.worker_threads
                                                  : 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void FgrServer::Stop() {
  if (!running_.exchange(false)) return;

  // Phase 1 — drain: stop accepting, let queued and in-flight requests
  // finish and their responses flush. The event thread reports completion
  // through drained_.
  draining_.store(true);
  WakeEventThread();
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(options_.drain_timeout_ms);
  while (!drained_.load() && SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 2 — tear down: stop the event thread and workers, then close
  // everything the event thread owned (safe only after the join).
  stopping_.store(true);
  {
    // Empty critical section: a worker that evaluated its wait predicate
    // before stopping_ was set cannot block again until we release the
    // work mutex, so the notify below can never be lost.
    std::lock_guard<std::mutex> lock(work_mutex_);
  }
  work_cv_.notify_all();
  WakeEventThread();
  if (event_thread_.joinable()) event_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  connections_.clear();
  deadlines_.clear();
  metrics_.connections_active.store(0, kRelaxed);
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_queue_.clear();
  }
  metrics_.queue_depth.store(0, kRelaxed);
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    completions_.clear();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  epoll_fd_ = -1;
  wake_fd_ = -1;
  listen_fd_ = -1;
}

void FgrServer::WakeEventThread() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // The eventfd counter saturates rather than blocks on overflow; a
  // failed write means the event thread is already scheduled to wake.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void FgrServer::EventLoop() {
  bool drain_started = false;
  epoll_event events[64];

  while (!stopping_.load(std::memory_order_acquire)) {
    std::int64_t timeout_ms = 100;
    if (!deadlines_.empty()) {
      timeout_ms = std::clamp<std::int64_t>(
          std::chrono::ceil<std::chrono::milliseconds>(
              deadlines_.begin()->first - SteadyClock::now())
              .count(),
          0, timeout_ms);
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64,
                               static_cast<int>(timeout_ms));
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNewConnections();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &count, sizeof(count));
        continue;
      }
      auto found = connections_.find(tag);
      if (found == connections_.end()) continue;  // closed earlier this batch
      Connection* conn = found->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        FlushWrites(conn);
        if (connections_.find(tag) == connections_.end()) continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        HandleReadable(conn);
      }
    }

    ProcessCompletions();
    const SteadyClock::time_point now = SteadyClock::now();
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      Connection* conn = connections_.at(deadlines_.begin()->second).get();
      deadlines_.erase(deadlines_.begin());
      if (conn->in_flight) {
        metrics_.requests_timed_out.fetch_add(1, kRelaxed);
        conn->in_flight = false;
        // Orphan the worker's eventual completion and refuse to serve
        // anything this connection already pipelined — its ordering
        // contract is broken, so it gets the error and the door.
        ++conn->request_generation;
        conn->pending_lines.clear();
        conn->close_after_flush = true;
        QueueResponse(
            conn,
            ServeErrorLine(
                ServeErrorCode::kTimeout,
                "request exceeded the " +
                    std::to_string(options_.request_timeout_ms) +
                    " ms deadline; closing connection"));
        ArmIdleTimer(conn);  // bounds a backlog the client never reads
        FlushWrites(conn);   // may destroy conn
      } else if (!conn->pending_lines.empty() ||
                 conn->write_offset < conn->write_buffer.size()) {
        ArmIdleTimer(conn);  // busy, not idle — re-arm
      } else {
        metrics_.connections_closed_idle.fetch_add(1, kRelaxed);
        CloseConnection(conn);
      }
    }

    if (draining_.load(std::memory_order_acquire)) {
      if (!drain_started) {
        drain_started = true;
        // Stop accepting; queued connections in the backlog are dropped
        // when the listen fd closes.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      }
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(work_mutex_);
        queue_empty = work_queue_.empty();
      }
      bool completions_empty;
      {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        completions_empty = completions_.empty();
      }
      bool settled = queue_empty && completions_empty;
      if (settled) {
        for (const auto& [id, conn] : connections_) {
          if (conn->in_flight ||
              conn->write_offset < conn->write_buffer.size()) {
            settled = false;
            break;
          }
        }
      }
      if (settled) drained_.store(true, std::memory_order_release);
    }
  }
}

void FgrServer::AcceptNewConnections() {
  // Bounded batch per wakeup; the listen fd is level-triggered, so a
  // longer backlog re-fires immediately.
  for (int i = 0; i < 128; ++i) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: backlog drained. Anything else (EMFILE, ENFILE,
      // ECONNABORTED, ENOBUFS...) is transient pressure — return and let
      // the level-triggered listen fd retry on the next loop.
      return;
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    metrics_.connections_accepted.fetch_add(1, kRelaxed);
    metrics_.connections_active.fetch_add(1, kRelaxed);
    Connection* raw = conn.get();
    connections_.emplace(raw->id, std::move(conn));
    ArmIdleTimer(raw);
  }
}

void FgrServer::ArmIdleTimer(Connection* conn) {
  if (conn->in_flight) return;  // the request deadline stands
  // At least 1 ms out, so a re-arm inside the expiry loop is never due.
  const std::int64_t idle_ms =
      std::max<std::int64_t>(options_.idle_timeout_ms, 1);
  SetDeadline(conn, SteadyClock::now() + std::chrono::milliseconds(idle_ms));
}

void FgrServer::SetDeadline(Connection* conn, SteadyClock::time_point when) {
  deadlines_.erase({conn->deadline, conn->id});
  conn->deadline = when;
  deadlines_.emplace(when, conn->id);
}

bool FgrServer::UpdateEpoll(Connection* conn, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = conn->id;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0;
}

void FgrServer::HandleReadable(Connection* conn) {
  char chunk[16384];
  while (true) {
    const ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      conn->read_buffer.append(chunk, static_cast<std::size_t>(got));
      metrics_.bytes_read.fetch_add(got, kRelaxed);
      continue;  // edge-triggered: drain until EAGAIN
    }
    if (got == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }

  // Frame complete lines into the pending queue.
  std::size_t start = 0;
  std::size_t newline;
  bool activity = false;
  while ((newline = conn->read_buffer.find('\n', start)) !=
         std::string::npos) {
    std::string line = conn->read_buffer.substr(start, newline - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    start = newline + 1;
    conn->pending_lines.push_back(std::move(line));
    activity = true;
  }
  if (start > 0) conn->read_buffer.erase(0, start);

  // A partial line beyond the limit can never become a valid request;
  // answer once and drop the connection instead of buffering forever.
  if (!conn->overflowed &&
      static_cast<std::int64_t>(conn->read_buffer.size()) >
          options_.max_request_bytes) {
    conn->overflowed = true;
    metrics_.requests_total.fetch_add(1, kRelaxed);
    metrics_.requests_errors.fetch_add(1, kRelaxed);
    conn->read_buffer.clear();
    conn->pending_lines.clear();
    conn->close_after_flush = true;
    QueueResponse(conn,
                  ServeErrorLine(ServeErrorCode::kBadRequest,
                                 "request exceeds the " +
                                     std::to_string(
                                         options_.max_request_bytes) +
                                     "-byte limit"));
    FlushWrites(conn);
    return;
  }

  if (activity) ArmIdleTimer(conn);
  DispatchPending(conn);
  FlushWrites(conn);  // may destroy conn
}

void FgrServer::DispatchPending(Connection* conn) {
  while (!conn->in_flight && !conn->pending_lines.empty() &&
         !conn->close_after_flush) {
    std::string line = std::move(conn->pending_lines.front());
    conn->pending_lines.pop_front();
    if (draining_.load(std::memory_order_acquire)) {
      metrics_.requests_shed.fetch_add(1, kRelaxed);
      QueueResponse(conn,
                    ServeErrorLine(ServeErrorCode::kOverloaded,
                                   "server is draining for shutdown"));
      continue;
    }
    // Admission control: responses stay in order because a shed is
    // answered synchronously, in the same position the real response
    // would have taken.
    if (metrics_.queue_depth.load(kRelaxed) >=
        static_cast<std::int64_t>(options_.queue_high_water)) {
      metrics_.requests_shed.fetch_add(1, kRelaxed);
      QueueResponse(
          conn,
          ServeErrorLine(ServeErrorCode::kOverloaded,
                         "server overloaded: worker queue is at its "
                         "high-water mark (" +
                             std::to_string(options_.queue_high_water) +
                             "); retry later"));
      continue;
    }
    conn->in_flight = true;
    ++conn->request_generation;
    conn->request_start = SteadyClock::now();
    SetDeadline(conn, conn->request_start + std::chrono::milliseconds(
                                                options_.request_timeout_ms));
    metrics_.queue_depth.fetch_add(1, kRelaxed);
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      work_queue_.push_back({conn->id, conn->request_generation,
                             std::move(line), conn->request_start});
    }
    work_cv_.notify_one();
  }
}

void FgrServer::QueueResponse(Connection* conn,
                              const std::string& response) {
  conn->write_buffer += response;
  conn->write_buffer.push_back('\n');
}

void FgrServer::FlushWrites(Connection* conn) {
  // Compact a well-advanced buffer before growing it further.
  if (conn->write_offset > 65536) {
    conn->write_buffer.erase(0, conn->write_offset);
    conn->write_offset = 0;
  }
  while (conn->write_offset < conn->write_buffer.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->write_buffer.data() + conn->write_offset,
               conn->write_buffer.size() - conn->write_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_offset += static_cast<std::size_t>(n);
      metrics_.bytes_written.fetch_add(n, kRelaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(conn);
    return;
  }
  if (conn->write_offset >= conn->write_buffer.size()) {
    conn->write_buffer.clear();
    conn->write_offset = 0;
    if (conn->want_write) {
      conn->want_write = false;
      UpdateEpoll(conn, false);
    }
    if (conn->close_after_flush ||
        (conn->peer_closed && !conn->in_flight &&
         conn->pending_lines.empty())) {
      CloseConnection(conn);
    }
    return;
  }
  // Unsent backlog remains: evict a client that cannot keep up, else arm
  // EPOLLOUT and let the event loop resume the flush when writable.
  if (static_cast<std::int64_t>(conn->write_buffer.size() -
                                conn->write_offset) >
      options_.max_write_buffer_bytes) {
    metrics_.connections_evicted_slow.fetch_add(1, kRelaxed);
    CloseConnection(conn);
    return;
  }
  if (!conn->want_write) {
    conn->want_write = true;
    UpdateEpoll(conn, true);
  }
}

void FgrServer::CloseConnection(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  metrics_.connections_active.fetch_sub(1, kRelaxed);
  deadlines_.erase({conn->deadline, conn->id});
  connections_.erase(conn->id);  // destroys *conn
}

void FgrServer::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    auto found = connections_.find(done.conn_id);
    if (found == connections_.end()) continue;  // connection died waiting
    Connection* conn = found->second.get();
    if (!conn->in_flight || conn->request_generation != done.generation) {
      continue;  // timed out: the error response already went out
    }
    conn->in_flight = false;
    metrics_.latency.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - conn->request_start)
            .count());
    const SteadyClock::time_point write_start = SteadyClock::now();
    QueueResponse(conn, done.response);
    ArmIdleTimer(conn);
    DispatchPending(conn);
    FlushWrites(conn);  // may destroy conn
    metrics_.stage_write.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - write_start)
            .count());
  }
}

void FgrServer::WorkerLoop() {
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [this] {
        return stopping_.load() || !work_queue_.empty();
      });
      if (work_queue_.empty()) return;  // stopping
      item = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    metrics_.queue_depth.fetch_sub(1, kRelaxed);
    const SteadyClock::time_point picked_up = SteadyClock::now();
    metrics_.stage_queue_wait.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            picked_up - item.enqueued)
            .count());
    Completion done;
    done.conn_id = item.conn_id;
    done.generation = item.generation;
    done.response = HandleRequestLine(item.line);
    metrics_.stage_compute.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - picked_up)
            .count());
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      completions_.push_back(std::move(done));
    }
    WakeEventThread();
  }
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) pieces.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return pieces;
}

Status RunDaemon(const ServerOptions& options,
                 const std::vector<std::string>& preload,
                 bool dump_metrics_on_exit) {
  // Block the shutdown signals before any thread spawns so every thread
  // inherits the mask and sigwait below is the one consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises to
  // the largest block ever freed (a label's n×k belief buffers), after
  // which such blocks come from per-thread arenas and stay resident
  // between requests, so the daemon's footprint tracks which worker
  // served what rather than what it holds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

  FgrServer server(options);
  FGR_RETURN_IF_ERROR(server.Start());
  for (const std::string& path : preload) {
    Status status = server.Preload(path);
    if (!status.ok()) {
      server.Stop();
      return Status(status.code(),
                    "preload of " + path + " failed: " + status.message());
    }
  }
  std::printf(
      "fgrd: serving on %s:%d (workers=%d, budget=%lld MB, preloaded=%zu)\n",
      server.host().c_str(), server.port(), options.worker_threads,
      static_cast<long long>(options.dataset_budget_bytes >> 20),
      preload.size());
  std::printf("fgrd: kernel backend: %s\n",
              kernels::IsaName(kernels::ActiveIsa()));
  std::fflush(stdout);  // scripts scrape the port from this line

  int received = 0;
  sigwait(&signals, &received);
  std::printf("fgrd: received %s, shutting down\n",
              received == SIGINT ? "SIGINT" : "SIGTERM");
  std::fflush(stdout);
  server.Stop();  // graceful drain, bounded by drain_timeout_ms
  if (dump_metrics_on_exit) {
    std::printf("fgrd: metrics %s\n", server.MetricsJson().c_str());
    std::fflush(stdout);
  }
  return Status::Ok();
}

}  // namespace fgr
