// Asynchronous panel prefetcher: hides .fgrbin panel I/O behind compute.
//
// PrefetchingPanelReader wraps an opened BlockRowReader with a producer
// thread that reads panels ahead of the consumer through a bounded
// RingQueue. Panel buffers are recycled through a second free-list queue,
// so a full pass still allocates O(1) times (the pipeline owns
// depth + 1 CsrPanel slots total, regardless of panel count).
//
// Error propagation is in-band: when the producer hits a corrupt block it
// ships the failing Status through the same queue slot the panel would
// have used, so the consumer observes the identical panel-boundary error,
// at the identical point in the stream, as the synchronous reader.
//
// Rewind() implements the per-ℓ pass restart: it closes the queues, joins
// the producer, drains any in-flight panels back to the free list, rewinds
// the underlying reader, reopens the queues, and starts a fresh producer.
//
// StreamedPanelSource wraps one as the streamed PanelSource: every pass
// rewinds it and hands its panels to the consumer in file order.

#ifndef FGR_DATA_PREFETCHING_PANEL_READER_H_
#define FGR_DATA_PREFETCHING_PANEL_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/block_row_reader.h"
#include "matrix/panel_source.h"
#include "util/ring_queue.h"
#include "util/status.h"

namespace fgr {

class PrefetchingPanelReader {
 public:
  // Takes ownership of an already-opened reader. `depth` is the number of
  // panels the producer may run ahead of the consumer; 2 double-buffers.
  explicit PrefetchingPanelReader(BlockRowReader reader, int depth = 2);
  ~PrefetchingPanelReader();

  PrefetchingPanelReader(const PrefetchingPanelReader&) = delete;
  PrefetchingPanelReader& operator=(const PrefetchingPanelReader&) = delete;

  const FgrBinInfo& info() const { return reader_.info(); }
  std::int64_t num_nodes() const { return reader_.num_nodes(); }
  std::int64_t nnz() const { return reader_.nnz(); }
  std::int64_t num_panels() const { return reader_.num_panels(); }

  // True once every panel of the pass has been handed out — or an error
  // was returned, which poisons the remainder of the pass.
  bool Done() const { return failed_ || consumed_ >= num_panels(); }

  // Swaps the next prefetched panel into `*panel` (recycling the caller's
  // previous buffers into the free list) or returns the producer's error.
  Status NextPanel(CsrPanel* panel);

  // Stops the producer, rewinds the underlying reader, and restarts the
  // producer for the next pass.
  Status Rewind();

 private:
  // One pipeline slot: a recyclable panel buffer plus the in-band status
  // channel. A slot with !status.ok() carries no panel.
  struct Slot {
    CsrPanel panel;
    Status status = Status::Ok();
  };

  void StartProducer();
  void StopProducer();  // close, join, drain filled slots back to free_
  void ProducerLoop();

  BlockRowReader reader_;
  RingQueue<Slot> filled_;
  RingQueue<Slot> free_;
  std::size_t pool_size_;  // total slots in circulation (depth + 1)
  std::thread producer_;
  std::int64_t consumed_ = 0;
  bool failed_ = false;
};

// The streamed PanelSource over a .fgrbin cache. Streamed routes always
// prefetch; BlockRowReader stays the producer's reader.
class StreamedPanelSource final : public PanelSource {
 public:
  // Opens the cache at `path` for a seed labeling over `seed_nodes` nodes;
  // InvalidArgument when the cache's node count differs.
  static Result<std::unique_ptr<StreamedPanelSource>> Open(
      const std::string& path, const BlockRowReaderOptions& options,
      std::int64_t seed_nodes);

  explicit StreamedPanelSource(BlockRowReader reader)
      : reader_(std::move(reader)) {}

  std::int64_t num_nodes() const override { return reader_.num_nodes(); }

  // Fails with the reader's panel-boundary error — truncation, a block
  // changed since Open — at the panel where it occurs.
  Status ForEachPanel(const PanelFn& fn) override;

 private:
  PrefetchingPanelReader reader_;
  CsrPanel panel_;  // persists across passes so buffers recycle
};

}  // namespace fgr

#endif  // FGR_DATA_PREFETCHING_PANEL_READER_H_
