// fgrd: the fgr estimation-serving daemon.
//
//   fgrd [--port N] [--host A.B.C.D] [--workers W] [--threads T]
//        [--budget MB] [--streaming-budget MB] [--preload a.fgrbin,b.fgrbin]
//        [--no-summaries] [--request-timeout-ms N] [--idle-timeout-ms N]
//        [--max-write-buffer MB] [--queue-high-water N]
//        [--drain-timeout-ms N] [--dump-metrics-on-exit]
//        [--trace out.json] [--log-level debug|info|warn|error]
//
// Serves estimate / label / stats / datasets / metrics requests over a
// line-delimited JSON TCP protocol with one wire shape, v2 (see
// src/serve/protocol.h); `stats` answers with the metrics document. Datasets are
// .fgrbin caches referenced by path in each request; hot ones stay
// mmap-resident under --budget, and per-dataset summarization statistics
// persist as .fgrsum sidecars so a repeated estimate query skips the graph
// pass entirely. One epoll event thread owns every socket; --workers sizes
// the compute pool behind it.
//
//   --port 0 picks an ephemeral port; the bound port is printed on the
//     "fgrd: serving on host:port" line (flushed, scrapeable).
//   --threads pins the compute-kernel thread count (fgr::SetNumThreads).
//     Precedence: --threads > FGR_NUM_THREADS > hardware concurrency.
//   --workers sizes the request worker pool (concurrent requests).
//   --preload maps the listed caches before accepting traffic.
//   --no-summaries disables writing .fgrsum sidecars (summaries are then
//     cached in memory only).
//   --request-timeout-ms / --idle-timeout-ms bound a request's service
//     time and a connection's idle lifetime.
//   --max-write-buffer caps a connection's unsent response backlog before
//     it is evicted as a slow client.
//   --queue-high-water is the admission-control threshold: queued
//     requests beyond it are shed with an `overloaded` error.
//   --drain-timeout-ms bounds the graceful drain on SIGTERM.
//   --dump-metrics-on-exit prints the metrics JSON (with stage
//     histograms and pipeline counters) after shutdown.
//   --trace writes a chrome-trace JSON of every span recorded over the
//     daemon's lifetime (same as FGR_TRACE=<path>; the flag wins).
//   --log-level sets the structured-log threshold (FGR_LOG_LEVEL also
//     works; the flag wins). The daemon defaults to info, which emits
//     one access-log line per request.
//
// Query it with `fgr_cli query` or any line-JSON client ("v" may be
// omitted; any value but 2 is a bad_request):
//   printf '{"v":2,"op":"estimate","dataset":"g.fgrbin"}\n' | nc host 7411

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fgr/fgr.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: fgrd [--port N] [--host A.B.C.D] [--workers W] [--threads T]\n"
      "            [--budget MB] [--streaming-budget MB]\n"
      "            [--preload a.fgrbin,b.fgrbin] [--no-summaries]\n"
      "            [--request-timeout-ms N] [--idle-timeout-ms N]\n"
      "            [--max-write-buffer MB] [--queue-high-water N]\n"
      "            [--drain-timeout-ms N] [--dump-metrics-on-exit]\n"
      "            [--trace out.json] [--log-level debug|info|warn|error]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fgr::ServerOptions options;
  std::vector<std::string> preload;
  long long threads = 0;
  bool dump_metrics = false;
  std::string trace_path;
  std::string log_level;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      options.port = std::atoi(argv[++i]);
    } else if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--workers" && has_value) {
      options.worker_threads = std::atoi(argv[++i]);
    } else if (arg == "--threads" && has_value) {
      threads = std::atoll(argv[++i]);
    } else if (arg == "--budget" && has_value) {
      options.dataset_budget_bytes = std::atoll(argv[++i]) << 20;
    } else if (arg == "--streaming-budget" && has_value) {
      options.streaming_budget_bytes = std::atoll(argv[++i]) << 20;
    } else if (arg == "--preload" && has_value) {
      preload = fgr::SplitCommaList(argv[++i]);
    } else if (arg == "--no-summaries") {
      options.persist_summaries = false;
    } else if (arg == "--request-timeout-ms" && has_value) {
      options.request_timeout_ms = std::atoll(argv[++i]);
    } else if (arg == "--idle-timeout-ms" && has_value) {
      options.idle_timeout_ms = std::atoll(argv[++i]);
    } else if (arg == "--max-write-buffer" && has_value) {
      options.max_write_buffer_bytes = std::atoll(argv[++i]) << 20;
    } else if (arg == "--queue-high-water" && has_value) {
      options.queue_high_water = std::atoi(argv[++i]);
    } else if (arg == "--drain-timeout-ms" && has_value) {
      options.drain_timeout_ms = std::atoll(argv[++i]);
    } else if (arg == "--dump-metrics-on-exit") {
      dump_metrics = true;
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--log-level" && has_value) {
      log_level = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.port < 0 || options.port > 65535 ||
      options.worker_threads < 1 || options.dataset_budget_bytes < 0 ||
      options.streaming_budget_bytes < 1 || threads < 0 ||
      options.request_timeout_ms < 1 || options.idle_timeout_ms < 1 ||
      options.max_write_buffer_bytes < 1 || options.queue_high_water < 1 ||
      options.drain_timeout_ms < 0) {
    return Usage();
  }
  // --threads wins over FGR_NUM_THREADS, which wins over the hardware
  // count (see util/parallel.h).
  if (threads > 0) fgr::SetNumThreads(static_cast<int>(threads));

  // Observability: env first, then flags override. The daemon's default
  // log threshold is info so each request leaves one access-log line.
  fgr::obs::InitLogLevelFromEnv(fgr::obs::LogLevel::kInfo);
  if (!log_level.empty()) {
    fgr::obs::LogLevel parsed = fgr::obs::LogLevel::kInfo;
    if (!fgr::obs::ParseLogLevel(log_level, &parsed)) return Usage();
    fgr::obs::SetLogLevel(parsed);
  }
  fgr::obs::InitTracingFromEnv();
  if (!trace_path.empty()) fgr::obs::EnableTracing(trace_path);

  const fgr::Status status = fgr::RunDaemon(options, preload, dump_metrics);
  if (!status.ok()) {
    std::fprintf(stderr, "fgrd: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
