#include "obs/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

namespace fgr {
namespace obs {
namespace {

TEST(SampleRingTest, EmptyRingReportsZero) {
  SampleRing<16> ring;
  EXPECT_EQ(ring.count(), 0u);
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.99), 0.0);
}

TEST(SampleRingTest, SingleSampleIsEveryQuantile) {
  SampleRing<16> ring;
  ring.Record(1'000'000'000);  // 1 s
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(ring.QuantileSeconds(q), 1.0) << q;
  }
}

// The seed's floor(q*n) bug: with 10 samples, p99 picked the 9th-smallest
// instead of the 10th. Nearest rank ceil(0.99*10) = 10 -> the maximum.
TEST(SampleRingTest, NearestRankPicksTheMaxForHighQuantiles) {
  SampleRing<64> ring;
  for (int i = 1; i <= 10; ++i) ring.Record(i * 1'000'000'000LL);
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.99), 10.0);
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(1.0), 10.0);
  // ceil(0.5 * 10) = 5 -> the 5th smallest.
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.5), 5.0);
  // ceil(0.91 * 10) = 10: nearest rank rounds up, not down.
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.91), 10.0);
}

TEST(SampleRingTest, FewerSamplesThanCapacityUsesOnlyRecorded) {
  SampleRing<4096> ring;
  ring.Record(3'000'000'000LL);
  ring.Record(1'000'000'000LL);
  ring.Record(2'000'000'000LL);
  EXPECT_EQ(ring.count(), 3u);
  // ceil(0.5 * 3) = 2 -> the 2nd smallest of {1,2,3} s.
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.5), 2.0);
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.99), 3.0);
}

TEST(SampleRingTest, WrappedRingKeepsTheLastWindow) {
  SampleRing<8> ring;
  // 24 samples through an 8-slot ring: slots hold the last 8, 17..24 s.
  for (int i = 1; i <= 24; ++i) ring.Record(i * 1'000'000'000LL);
  EXPECT_EQ(ring.count(), 24u);
  const double p0 = ring.QuantileSeconds(0.0);
  EXPECT_GE(p0, 17.0);
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(1.0), 24.0);
  // ceil(0.5 * 8) = 4 -> 4th smallest of {17..24} = 20.
  EXPECT_DOUBLE_EQ(ring.QuantileSeconds(0.5), 20.0);
}

// Multi-writer contract: concurrent Records from many threads never tear
// a sample — every value read back is one some thread actually wrote —
// and the cursor counts every record exactly once.
TEST(SampleRingTest, ConcurrentWritersLandIntactSamples) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  SampleRing<1024> ring;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      // Distinct per-thread magnitudes so a torn value (mixed bytes of
      // two writes) would fall outside the valid set.
      const std::int64_t base = (t + 1) * 1'000'000'000LL;
      for (int i = 0; i < kPerThread; ++i) ring.Record(base);
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(ring.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (double q : {0.01, 0.5, 0.99}) {
    const double seconds = ring.QuantileSeconds(q);
    const auto whole = static_cast<std::int64_t>(seconds + 0.5);
    EXPECT_NEAR(seconds, static_cast<double>(whole), 1e-9) << q;
    EXPECT_GE(whole, 1) << q;
    EXPECT_LE(whole, kThreads) << q;
  }
}

// Publish race: Record claims its slot before it stores the sample, so
// until the ring first fills a concurrent reader can find a claimed slot
// that holds no sample yet. Writers record one positive constant, so no
// quantile a reader sees may fall below it. Each writer has at most one
// claimed-but-unpublished slot, so once more slots than writers are
// claimed some sample is published and 0 ("no sample") is a wrong answer.
// Many short rounds on fresh rings keep readers inside the filling window,
// where the race lives.
TEST(SampleRingTest, ReadersNeverCountUnpublishedSlots) {
  constexpr std::size_t kSlots = 4096;
  constexpr std::int64_t kSample = 1000;
  constexpr int kRounds = 200;
  constexpr int kWriters = 4;
  double lowest = 1.0;
  for (int round = 0; round < kRounds; ++round) {
    auto ring = std::make_unique<SampleRing<kSlots>>();
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&ring] {
        while (ring->count() < kSlots) ring->Record(kSample);
      });
    }
    while (ring->count() < kSlots) {
      if (ring->count() > static_cast<std::uint64_t>(kWriters)) {
        lowest = std::min(lowest, ring->QuantileSeconds(0.0));
      }
    }
    for (std::thread& writer : writers) writer.join();
  }
  EXPECT_GE(lowest, static_cast<double>(kSample) * 1e-9);
}

}  // namespace
}  // namespace obs
}  // namespace fgr
