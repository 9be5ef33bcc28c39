#include "obs/counters.h"

#include <atomic>

namespace fgr {
namespace obs {

namespace {

constexpr int kNumCounters = static_cast<int>(PipelineCounter::kCount);

std::atomic<std::int64_t> g_counters[kNumCounters];

constexpr const char* kNames[kNumCounters] = {
    "prefetch_producer_read_ns",
    "prefetch_producer_stall_ns",
    "prefetch_consumer_stall_ns",
    "prefetch_panels",
    "prefetch_queue_depth_sum",
    "prefetch_queue_depth_samples",
    "kernel_spmm_calls",
    "kernel_spmv_calls",
    "kernel_row_sums_calls",
};

}  // namespace

void AddCounter(PipelineCounter counter, std::int64_t delta) {
  g_counters[static_cast<int>(counter)].fetch_add(delta,
                                                  std::memory_order_relaxed);
}

std::int64_t GetCounter(PipelineCounter counter) {
  return g_counters[static_cast<int>(counter)].load(
      std::memory_order_relaxed);
}

const char* CounterName(PipelineCounter counter) {
  return kNames[static_cast<int>(counter)];
}

void ResetCounters() {
  for (auto& counter : g_counters) {
    counter.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace fgr
