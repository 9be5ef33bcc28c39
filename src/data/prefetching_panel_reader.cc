#include "data/prefetching_panel_reader.h"

#include <chrono>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"

namespace fgr {
namespace {

// Nanoseconds spent in `fn` — the prefetch counters want wall time for
// blocking queue ops and pread/decode, not CPU time.
template <typename Fn>
std::int64_t TimedNs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

PrefetchingPanelReader::PrefetchingPanelReader(BlockRowReader reader,
                                              int depth)
    : reader_(std::move(reader)),
      filled_(static_cast<std::size_t>(depth)),
      free_(static_cast<std::size_t>(depth) + 1),
      pool_size_(static_cast<std::size_t>(depth) + 1) {
  // depth + 1 slots: `depth` may sit filled while the consumer holds none —
  // the extra slot keeps the producer from stalling on the first recycle.
  for (std::size_t i = 0; i < pool_size_; ++i) {
    free_.Push(Slot{});
  }
  StartProducer();
}

PrefetchingPanelReader::~PrefetchingPanelReader() { StopProducer(); }

void PrefetchingPanelReader::ProducerLoop() {
  // Producer side of the overlap ledger: time blocked on the recycle
  // queue (consumer-bound) vs time spent reading and decoding
  // (I/O-bound). The consumer's mirror-image stall lands in NextPanel.
  for (;;) {
    Slot slot;
    bool popped = false;
    obs::AddCounter(obs::PipelineCounter::kPrefetchProducerStallNs,
                    TimedNs([&] { popped = free_.Pop(&slot); }));
    if (!popped) return;
    if (reader_.Done()) {
      free_.Push(std::move(slot));  // hand the unused buffer back
      return;
    }
    {
      FGR_TRACE_SPAN("prefetch/producer_read");
      obs::AddCounter(obs::PipelineCounter::kPrefetchProducerReadNs,
                      TimedNs([&] {
                        slot.status = reader_.NextPanel(&slot.panel);
                      }));
    }
    obs::AddCounter(obs::PipelineCounter::kPrefetchPanels, 1);
    const bool error = !slot.status.ok();
    if (!filled_.Push(std::move(slot))) return;  // consumer shut us down
    if (error) return;  // the pass is poisoned; the error slot says why
  }
}

void PrefetchingPanelReader::StartProducer() {
  producer_ = std::thread([this] { ProducerLoop(); });
}

void PrefetchingPanelReader::StopProducer() {
  filled_.Close();
  free_.Close();
  if (producer_.joinable()) producer_.join();
  // Recycle any panels still in flight so the next pass reuses their
  // buffers instead of allocating fresh ones.
  Slot slot;
  std::vector<Slot> drained;
  while (filled_.TryPop(&slot)) drained.push_back(std::move(slot));
  while (free_.TryPop(&slot)) drained.push_back(std::move(slot));
  filled_.Reopen();
  free_.Reopen();
  // A producer caught between its free-list Pop and a failed filled Push
  // drops its slot on shutdown; top the pool back up so later passes
  // never starve. Normal pass boundaries keep every buffer.
  while (drained.size() < pool_size_) drained.emplace_back();
  for (Slot& s : drained) {
    s.status = Status::Ok();
    free_.Push(std::move(s));
  }
}

Status PrefetchingPanelReader::NextPanel(CsrPanel* panel) {
  if (failed_) {
    return Status::FailedPrecondition(
        "PrefetchingPanelReader: pass already failed; Rewind to retry");
  }
  // Depth sampled before the pop: how many panels sat ready — the direct
  // measure of how far ahead the producer runs.
  obs::AddCounter(obs::PipelineCounter::kPrefetchQueueDepthSum,
                  static_cast<std::int64_t>(filled_.size()));
  obs::AddCounter(obs::PipelineCounter::kPrefetchQueueDepthSamples, 1);
  Slot slot;
  bool popped = false;
  {
    FGR_TRACE_SPAN("prefetch/consumer_wait");
    obs::AddCounter(obs::PipelineCounter::kPrefetchConsumerStallNs,
                    TimedNs([&] { popped = filled_.Pop(&slot); }));
  }
  if (!popped) {
    // The producer exited without filling the expected panel count and
    // without an in-band error — only possible through StopProducer.
    return Status::Internal(
        "PrefetchingPanelReader: producer stopped mid-pass");
  }
  if (!slot.status.ok()) {
    failed_ = true;
    Status status = std::move(slot.status);
    slot.status = Status::Ok();
    free_.Push(std::move(slot));
    return status;
  }
  // Hand the prefetched buffers to the caller and recycle the caller's
  // previous ones; per-pass allocation stays O(1).
  std::swap(*panel, slot.panel);
  ++consumed_;
  free_.Push(std::move(slot));
  return Status::Ok();
}

Status PrefetchingPanelReader::Rewind() {
  StopProducer();
  consumed_ = 0;
  failed_ = false;
  Status rewound = reader_.Rewind();
  if (!rewound.ok()) return rewound;
  StartProducer();
  return Status::Ok();
}

Result<std::unique_ptr<StreamedPanelSource>> StreamedPanelSource::Open(
    const std::string& path, const BlockRowReaderOptions& options,
    std::int64_t seed_nodes) {
  Result<BlockRowReader> opened = BlockRowReader::Open(path, options);
  if (!opened.ok()) return opened.status();
  if (opened.value().num_nodes() != seed_nodes) {
    return Status::InvalidArgument(
        path + ": cache has " + std::to_string(opened.value().num_nodes()) +
        " nodes but the seed labeling has " + std::to_string(seed_nodes));
  }
  return std::make_unique<StreamedPanelSource>(std::move(opened).value());
}

Status StreamedPanelSource::ForEachPanel(const PanelFn& fn) {
  FGR_RETURN_IF_ERROR(reader_.Rewind());
  while (!reader_.Done()) {
    FGR_RETURN_IF_ERROR(reader_.NextPanel(&panel_));
    fn(panel_.View(reader_.num_nodes()));
  }
  return Status::Ok();
}

}  // namespace fgr
