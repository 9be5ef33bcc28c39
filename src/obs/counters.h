// Global pipeline counters: always-on relaxed atomics quantifying the
// out-of-core prefetch overlap and kernel dispatch mix.
//
// Unlike trace spans these are never gated — a relaxed fetch_add per
// panel or per kernel call is noise — so the serve metrics-v2 surface and
// `fgr_cli --timings` can report them even when tracing is off. The
// prefetch trio is the PR 9 question made measurable:
//
//   producer_read_ns    time the producer spent in pread/decode
//   producer_stall_ns   producer blocked on a full recycle queue
//                       (consumer is the bottleneck — overlap is working)
//   consumer_stall_ns   consumer blocked on an empty filled queue
//                       (I/O is the bottleneck — overlap is NOT hiding it)
//
// Queue depth is sampled at each consumer pop (sum + samples → mean).

#ifndef FGR_OBS_COUNTERS_H_
#define FGR_OBS_COUNTERS_H_

#include <cstdint>

namespace fgr {
namespace obs {

enum class PipelineCounter : int {
  kPrefetchProducerReadNs = 0,
  kPrefetchProducerStallNs,
  kPrefetchConsumerStallNs,
  kPrefetchPanels,
  kPrefetchQueueDepthSum,
  kPrefetchQueueDepthSamples,
  kKernelSpmmCalls,
  kKernelSpmvCalls,
  kKernelRowSumsCalls,
  kCount  // sentinel
};

// Adds `delta` to the named counter (relaxed).
void AddCounter(PipelineCounter counter, std::int64_t delta);

// Current value (relaxed).
std::int64_t GetCounter(PipelineCounter counter);

// Stable snake_case name used in metrics JSON and trace export.
const char* CounterName(PipelineCounter counter);

// Zeroes every counter (test isolation).
void ResetCounters();

}  // namespace obs
}  // namespace fgr

#endif  // FGR_OBS_COUNTERS_H_
