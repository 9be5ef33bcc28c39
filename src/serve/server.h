// fgrd: the long-lived estimation-serving daemon.
//
// FgrServer answers line-delimited JSON requests (serve/protocol.h) over a
// TCP listen socket. One event thread owns every socket through an
// edge-triggered epoll loop: it accepts, reads, frames lines out of
// per-connection buffers, dispatches complete requests to a fixed worker
// pool through a bounded queue, and writes responses back coalesced.
// Workers never touch sockets; the event thread never computes. Request
// lifecycle for estimate/label:
//
//   resolve .fgrbin path
//     → DatasetCache::Acquire        (mmap residency, LRU byte budget;
//                                     over-budget files fall to streaming)
//     → SummaryCache::GetOrCompute   (M(ℓ) statistics keyed on the file's
//                                     content hash; memory → .fgrsum
//                                     sidecar → SummarizePanels over the
//                                     mapped view, or over a streamed
//                                     panel source for non-resident
//                                     datasets)
//     → EstimateDceFromStatistics    (k-scale restarts, graph-free)
//     → [label only] SummaryCache::GetOrComputeRho (ρ(W) memoized on the
//                                     same content hash; its Lanczos passes
//                                     run on the first label only)
//     → [label only] RunLinBpOverPanels with that ρ as its hint, over the
//       mapped view, or, for non-resident datasets, over a prefetched
//       StreamedPanelSource that re-reads the file block-row by block-row
//       on every pass
//     → [label only] LabelsFromBeliefs.
//
// Robustness: each connection holds one deadline in an ordered set — its
// in-flight request's deadline, else its idle deadline — so the loop's
// bookkeeping grows with connections, not traffic; a connection whose
// write buffer outgrows its cap is evicted as a slow client; once the
// worker queue passes its high-water mark new requests are shed with a
// structured `overloaded` error; Stop() drains queued and in-flight work
// (bounded by drain_timeout_ms) before closing.
// Every outcome lands in one atomic ServerMetrics struct, served by the
// `metrics` verb and by `stats`, its alias.
//
// Seeds are the dataset's own label section: summaries are then a pure
// function of (file bytes, path type, ℓ), which is what makes them
// cacheable. Results match the offline CLI bit for bit in serial runs
// because every stage above is the same code path fgr_cli estimate/label
// executes over the same panels.
//
// HandleRequestLine is the transport-free core — tests and benches call it
// directly; the event loop is a framing-and-scheduling shell around it.

#ifndef FGR_SERVE_SERVER_H_
#define FGR_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/dataset_cache.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/summary_cache.h"
#include "util/stopwatch.h"

namespace fgr {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 7411;  // 0: pick an ephemeral port (read it back via port())
  int worker_threads = 4;
  // Byte budget for mmap'd dataset residency (DatasetCache). Datasets
  // larger than this are never mapped; estimate and label both fall back
  // to the block-row streaming pipeline under streaming_budget_bytes.
  std::int64_t dataset_budget_bytes = std::int64_t{1} << 30;
  // Panel budget handed to BlockRowReader for non-resident datasets.
  std::int64_t streaming_budget_bytes = std::int64_t{64} << 20;
  // A request line longer than this is answered with an error and the
  // connection is closed (malformed or hostile client).
  std::int64_t max_request_bytes = std::int64_t{1} << 20;
  // Persist freshly computed summaries as .fgrsum sidecars.
  bool persist_summaries = true;

  // --- event-loop robustness knobs ---
  // A dispatched request that has not completed within this deadline is
  // answered with a `timeout` error and its connection is closed (the
  // worker's eventual result is discarded).
  std::int64_t request_timeout_ms = 30000;
  // A connection with no traffic and no request in flight for this long
  // is closed.
  std::int64_t idle_timeout_ms = 300000;
  // A connection whose unsent response backlog exceeds this cap is
  // evicted as a slow client.
  std::int64_t max_write_buffer_bytes = std::int64_t{8} << 20;
  // Admission control: once this many requests sit in the worker queue,
  // new arrivals are shed with an `overloaded` error.
  int queue_high_water = 256;
  // Stop() waits this long for queued + in-flight requests to finish and
  // flush before force-closing what remains.
  std::int64_t drain_timeout_ms = 5000;
  // When > 0, shrink SO_SNDBUF on accepted sockets to this many bytes.
  // Production leaves it 0 (kernel default); tests use it to exercise the
  // write-buffer cap without fighting megabytes of kernel buffering.
  int send_buffer_bytes = 0;
};

class FgrServer {
 public:
  explicit FgrServer(ServerOptions options);
  ~FgrServer();

  FgrServer(const FgrServer&) = delete;
  FgrServer& operator=(const FgrServer&) = delete;

  // Binds, listens, and spawns the event + worker threads.
  Status Start();

  // Graceful drain: stops accepting, lets queued and in-flight requests
  // finish and flush (bounded by drain_timeout_ms), then closes
  // everything and joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }

  // The bound port (resolves option port 0 to the ephemeral choice).
  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  // Maps a dataset into residency ahead of traffic. Summaries stay cold
  // (they load from .fgrsum or compute on first use).
  Status Preload(const std::string& path);

  // Parses and dispatches one request line, returning one response line
  // (no trailing newline). Never throws; all failures become error
  // responses. Safe to call concurrently. Per-verb metrics counters and
  // the error counter are bumped here, so transport-free callers count
  // too.
  std::string HandleRequestLine(const std::string& line);

  // The metrics document `stats` and `metrics` both answer with, `op`
  // echoing the verb, without bumping any counter — also used by
  // --dump-metrics-on-exit.
  std::string MetricsJson(const char* op = "metrics") const;

  const DatasetCache& datasets() const { return datasets_; }
  const SummaryCache& summaries() const { return summaries_; }
  const ServerMetrics& metrics() const { return metrics_; }

 private:
  struct EstimateOutcome;

  // Per-connection state, owned exclusively by the event thread.
  struct Connection;

  // One framed request line travelling to the worker pool and back. The
  // generation ties the eventual completion to the dispatch that created
  // it: a timed-out or closed connection bumps its generation, turning
  // the worker's late result into a discard instead of a misdelivery.
  struct WorkItem {
    std::uint64_t conn_id = 0;
    std::uint64_t generation = 0;
    std::string line;
    // When the event thread enqueued the item; the worker that picks it
    // up records now-enqueued into metrics_.stage_queue_wait.
    std::chrono::steady_clock::time_point enqueued{};
  };
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t generation = 0;
    std::string response;
  };

  // Content hash of a non-resident (streamed) dataset whose file carries
  // `stamp`, memoized on the stamp so repeat queries skip the full-file
  // re-read — the streamed analogue of the dataset cache's staleness check.
  Result<std::uint64_t> StreamingContentHash(const std::string& path,
                                             const FileStamp& stamp);

  Status RunEstimate(const Request& request,
                     EstimateOutcome* outcome);
  // Serves estimate, and label (the estimate plus propagation).
  Result<std::string> HandleEstimate(const Request& request);
  std::string HandleDatasets() const;

  // Event-loop internals (event thread only unless noted).
  void EventLoop();
  void WorkerLoop();
  void AcceptNewConnections();
  void HandleReadable(Connection* conn);
  void DispatchPending(Connection* conn);
  void FlushWrites(Connection* conn);  // may destroy *conn
  void QueueResponse(Connection* conn, const std::string& response);
  void CloseConnection(Connection* conn);
  void ProcessCompletions();
  // Sets the idle deadline, unless a request is in flight.
  void ArmIdleTimer(Connection* conn);
  // Replaces the connection's one entry in deadlines_.
  void SetDeadline(Connection* conn,
                   std::chrono::steady_clock::time_point when);
  bool UpdateEpoll(Connection* conn, bool want_write);
  void WakeEventThread();

  ServerOptions options_;
  DatasetCache datasets_;
  SummaryCache summaries_;

  struct StreamedHash {
    FileStamp stamp;
    std::uint64_t hash = 0;
  };
  std::mutex streamed_hash_mutex_;
  std::map<std::string, StreamedHash> streamed_hashes_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};  // finish work, accept nothing new
  std::atomic<bool> stopping_{false};  // tear down now
  std::atomic<bool> drained_{false};   // event thread: nothing left to do
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers and Stop() kick the event thread
  int port_ = 0;
  std::thread event_thread_;
  std::vector<std::thread> workers_;

  // Event-thread-only connection table; epoll events carry the id, not
  // the pointer, so a stale event after a close resolves to "not found"
  // instead of a dangling dereference.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  // One (deadline, connection id) entry per open connection, earliest
  // first: epoll_wait sleeps until the front one is due.
  std::set<std::pair<std::chrono::steady_clock::time_point, std::uint64_t>>
      deadlines_;

  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_queue_;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;

  Stopwatch uptime_;
  ServerMetrics metrics_;
};

// "a.fgrbin,b.fgrbin" → {"a.fgrbin", "b.fgrbin"} (empty pieces dropped) —
// fgrd's --preload flag syntax.
std::vector<std::string> SplitCommaList(const std::string& list);

// Runs a server until SIGINT/SIGTERM: blocks the signals, pins glibc's
// mmap threshold (so freed n×k buffers return to the OS), starts the
// server, preloads `preload` datasets (fatal when one fails), prints
// "fgrd: serving on <host>:<port> ..." on stdout (flushed, so scripts
// can scrape an ephemeral port), waits for a signal, drains, stops. When
// `dump_metrics_on_exit` is set, prints the metrics JSON on its own line
// after shutdown. The whole of the fgrd binary past flag parsing.
Status RunDaemon(const ServerOptions& options,
                 const std::vector<std::string>& preload,
                 bool dump_metrics_on_exit);

}  // namespace fgr

#endif  // FGR_SERVE_SERVER_H_
