// SampleRing: last-N samples with lock-free multi-writer record and
// snapshot quantiles — the generalization of the serve layer's
// LatencyRing into a reusable per-stage histogram primitive.
//
// Multi-writer contract: Record is safe from any number of threads
// concurrently. The cursor is claimed with fetch_add, so each writer
// lands in its own slot; a torn read (reader observing a slot mid-
// overwrite) can at worst surface a stale-but-valid sample, never a torn
// value, because each slot is a single atomic int64. A writer claims its
// slot before it stores the sample, so until the ring first fills a
// reader can meet a claimed slot still holding the unpublished sentinel;
// quantiles skip those slots rather than count them. The ring
// deliberately keeps recent history rather than a full-run sketch: the
// tail of *current* traffic is what gates and dashboards care about.
//
// Quantiles use the nearest-rank definition rank = ⌈q·n⌉ (1-based). The
// seed's floor(q·n) under-indexed small rings — p99 of 10 samples picked
// index 9·0.99→8 (the 9th of 10) instead of the 10th — which the
// obs_histogram_test pins against.

#ifndef FGR_OBS_HISTOGRAM_H_
#define FGR_OBS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fgr {
namespace obs {

template <std::size_t N>
class SampleRing {
 public:
  static constexpr std::size_t kSize = N;

  SampleRing() {
    for (auto& slot : samples_) {
      slot.store(kUnpublished, std::memory_order_relaxed);
    }
  }

  // Thread-safe: any number of concurrent writers (see header comment).
  void Record(std::int64_t nanos) {
    const std::uint64_t slot =
        cursor_.fetch_add(1, std::memory_order_relaxed);
    samples_[slot % kSize].store(nanos, std::memory_order_relaxed);
  }

  // Total samples ever recorded (not capped at kSize).
  std::uint64_t count() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  // Nearest-rank quantile in seconds over the ring's published contents.
  // Returns 0 when no sample has been published.
  double QuantileSeconds(double q) const {
    const std::uint64_t recorded = count();
    const std::size_t slots =
        static_cast<std::size_t>(std::min<std::uint64_t>(recorded, kSize));
    std::vector<std::int64_t> snapshot;
    snapshot.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      const std::int64_t sample =
          samples_[i].load(std::memory_order_relaxed);
      if (sample != kUnpublished) snapshot.push_back(sample);
    }
    const std::size_t n = snapshot.size();
    if (n == 0) return 0.0;
    // Nearest rank: the ⌈q·n⌉-th smallest (1-based), clamped to [1, n].
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank > 0) --rank;  // 0-based index
    if (rank >= n) rank = n - 1;
    std::nth_element(snapshot.begin(), snapshot.begin() + rank,
                     snapshot.end());
    return static_cast<double>(snapshot[rank]) * 1e-9;
  }

 private:
  // Marks a slot no writer has stored to yet (samples are durations).
  static constexpr std::int64_t kUnpublished = -1;

  std::array<std::atomic<std::int64_t>, kSize> samples_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace obs
}  // namespace fgr

#endif  // FGR_OBS_HISTOGRAM_H_
