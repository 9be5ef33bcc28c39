// Unit tests for the ParallelFor backend (src/util/parallel.h): thread-count
// resolution, range coverage, shard partitioning, exception propagation,
// and the fork-join pool behind them (nesting, concurrent callers, the
// bound on live threads).

#include "util/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/shuffle.h"

#include "gtest/gtest.h"

namespace fgr {
namespace {

// Restores automatic thread resolution when a test exits.
class ThreadGuard {
 public:
  ~ThreadGuard() { SetNumThreads(0); }
};

TEST(ParallelConfigTest, SetNumThreadsOverridesResolution) {
  ThreadGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
}

TEST(ParallelConfigTest, EnvVariableOverridesDefault) {
  ThreadGuard guard;
  SetNumThreads(0);
  ASSERT_EQ(setenv("FGR_NUM_THREADS", "2", /*overwrite=*/1), 0);
  EXPECT_EQ(NumThreads(), 2);
  // An explicit SetNumThreads wins over the environment.
  SetNumThreads(5);
  EXPECT_EQ(NumThreads(), 5);
  ASSERT_EQ(unsetenv("FGR_NUM_THREADS"), 0);
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadGuard guard;
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 5, [&](std::int64_t) { ++calls; });
  ParallelFor(7, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, RangeSmallerThanThreadCount) {
  ThreadGuard guard;
  SetNumThreads(8);
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(
      0, 3, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; },
      /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EveryIndexVisitedExactlyOnce) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr std::int64_t kBegin = 13;
  constexpr std::int64_t kEnd = 7013;
  std::vector<std::atomic<int>> hits(kEnd - kBegin);
  ParallelFor(
      kBegin, kEnd,
      [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i - kBegin)]; },
      /*grain=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, PropagatesExceptionsFromWorkers) {
  ThreadGuard guard;
  SetNumThreads(4);
  const auto throwing_body = [](std::int64_t i) {
    if (i == 537) throw std::runtime_error("worker failure");
  };
  EXPECT_THROW(ParallelFor(0, 1000, throwing_body, /*grain=*/1),
               std::runtime_error);
  // The serial path (1 thread) must propagate identically.
  SetNumThreads(1);
  EXPECT_THROW(ParallelFor(0, 1000, throwing_body, /*grain=*/1),
               std::runtime_error);
}

TEST(ParallelForTest, GrainCapsWorkerFanOut) {
  // A range smaller than one grain must resolve to a single worker.
  EXPECT_EQ(internal::ResolveWorkers(100, 512), 1);
  EXPECT_GE(internal::ResolveWorkers(100, 1), 1);
}

TEST(ParallelForShardsTest, ShardsCoverRangeExactlyOnceInOrder) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr std::int64_t kBegin = 3;
  constexpr std::int64_t kEnd = 103;
  for (int shards : {1, 2, 3, 7}) {
    std::vector<std::atomic<int>> hits(kEnd - kBegin);
    std::atomic<int> shard_calls{0};
    ParallelForShards(kBegin, kEnd, shards,
                      [&](std::int64_t lo, std::int64_t hi, int shard) {
                        EXPECT_GE(shard, 0);
                        EXPECT_LT(shard, shards);
                        EXPECT_LT(lo, hi);
                        ++shard_calls;
                        for (std::int64_t i = lo; i < hi; ++i) {
                          ++hits[static_cast<std::size_t>(i - kBegin)];
                        }
                      });
    EXPECT_EQ(shard_calls.load(), shards);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForShardsTest, MoreShardsThanItemsStillCoversRange) {
  ThreadGuard guard;
  SetNumThreads(8);
  std::vector<std::atomic<int>> hits(4);
  ParallelForShards(0, 4, 16, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForShardsTest, PropagatesExceptions) {
  ThreadGuard guard;
  SetNumThreads(4);
  EXPECT_THROW(ParallelForShards(0, 100, 4,
                                 [&](std::int64_t, std::int64_t, int shard) {
                                   if (shard == 2) {
                                     throw std::runtime_error("shard failure");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ParallelForShardsTest, NumShardsMatchesThreadSetting) {
  ThreadGuard guard;
  SetNumThreads(4);
  EXPECT_EQ(NumShards(1 << 20), 4);
  EXPECT_EQ(NumShards(0), 1);  // degenerate range still yields one shard
}

// CPUs this process may run on, counted as the pool counts them.
int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

// The process's live thread count ("Threads:" in /proc/self/status).
int LiveThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// Spins until `flag` is set or 10 s pass; true when it was set.
bool AwaitFlag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return flag.load();
}

// A sharded floating-point sum: its bits depend on the shard boundaries,
// so it changes if a concurrent call ever shifts them.
double ShardedSum(const std::vector<double>& values) {
  const auto n = static_cast<std::int64_t>(values.size());
  const int shards = NumShards(n, /*grain=*/64);
  std::vector<double> partial(static_cast<std::size_t>(shards), 0.0);
  ParallelForShards(0, n, shards, [&](std::int64_t lo, std::int64_t hi, int s) {
    double sum = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) {
      sum += values[static_cast<std::size_t>(i)];
    }
    partial[static_cast<std::size_t>(s)] = sum;
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

TEST(ThreadPoolTest, ParallelForNestedInAShardFinishesAndCoversItsRange) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 5000;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelForShards(0, kOuter, 4, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t outer = lo; outer < hi; ++outer) {
      ParallelFor(
          0, kInner,
          [&](std::int64_t i) {
            ++hits[static_cast<std::size_t>(outer * kInner + i)];
          },
          /*grain=*/1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersGetTheirSoloResultsBitForBit) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr int kCallers = 4;
  std::vector<std::vector<double>> inputs(kCallers);
  std::vector<double> solo(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < 40000; ++i) {
      inputs[c].push_back((i % 3 == 0 ? -1.0 : 1.0) / (1.0 + i + 7.0 * c));
    }
    solo[c] = ShardedSum(inputs[c]);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 50; ++rep) {
        if (ShardedSum(inputs[c]) != solo[c]) ++mismatches;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPoolTest, WorkerExceptionIsRethrownAndThePoolServesTheNextCall) {
  if (AffinityCpus() < 2) GTEST_SKIP() << "one CPU: the pool never starts";
  ThreadGuard guard;
  SetNumThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  // The caller's shards wait until a worker has run one, so a worker
  // shard is certain to run (and, the first time, to throw).
  std::atomic<bool> worker_ran{false};
  EXPECT_THROW(ParallelForShards(0, 16, 16,
                                 [&](std::int64_t, std::int64_t, int) {
                                   if (std::this_thread::get_id() != caller) {
                                     worker_ran = true;
                                     throw std::runtime_error("worker shard");
                                   }
                                   AwaitFlag(worker_ran);
                                 }),
               std::runtime_error);
  EXPECT_TRUE(worker_ran.load());

  std::atomic<bool> worker_ran_again{false};
  std::vector<std::atomic<int>> hits(1000);
  ParallelForShards(0, 1000, 16, [&](std::int64_t lo, std::int64_t hi, int) {
    if (std::this_thread::get_id() != caller) {
      worker_ran_again = true;
    } else {
      AwaitFlag(worker_ran_again);
    }
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_TRUE(worker_ran_again.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SixtyFourThreadsStartAtMostOneWorkerPerExtraCpu) {
  ThreadGuard guard;
  // A sanitizer runtime starts a helper thread of its own on the first
  // thread creation; let that happen before the baseline is read.
  std::thread([] {}).join();
  const int before = LiveThreads();
  ASSERT_GT(before, 0);
  SetNumThreads(64);
  constexpr std::int64_t kSize = 1 << 16;
  ASSERT_EQ(NumShards(kSize, /*grain=*/1), 64);
  std::vector<std::atomic<int>> hits(kSize);
  ParallelForShards(0, kSize, NumShards(kSize, /*grain=*/1),
                    [&](std::int64_t lo, std::int64_t hi, int) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        ++hits[static_cast<std::size_t>(i)];
                      }
                    });
  ParallelFor(
      0, kSize, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; },
      /*grain=*/1);
  EXPECT_LE(LiveThreads() - before, AffinityCpus() - 1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ShardByWeightTest, BalancesUniformWeights) {
  std::vector<std::int64_t> prefix(101);
  for (int i = 0; i <= 100; ++i) prefix[static_cast<std::size_t>(i)] = i * 3;
  const auto boundaries = ShardByWeight(prefix, 4);
  ASSERT_EQ(boundaries.size(), 5u);
  EXPECT_EQ(boundaries.front(), 0);
  EXPECT_EQ(boundaries.back(), 100);
  for (std::size_t s = 0; s + 1 < boundaries.size(); ++s) {
    EXPECT_LT(boundaries[s], boundaries[s + 1]);
    const std::int64_t weight =
        prefix[static_cast<std::size_t>(boundaries[s + 1])] -
        prefix[static_cast<std::size_t>(boundaries[s])];
    EXPECT_NEAR(static_cast<double>(weight), 75.0, 3.0);
  }
}

TEST(ShardByWeightTest, HubRowDoesNotStarveTheRest) {
  // Row 0 carries 10k of the ~10.1k total weight; the hub must be split off
  // into its own shard so the remaining rows do not ride (and wait) on it.
  std::vector<std::int64_t> prefix = {0, 10000};
  for (int i = 0; i < 100; ++i) prefix.push_back(prefix.back() + 1);
  const auto boundaries = ShardByWeight(prefix, 4);
  EXPECT_EQ(boundaries.front(), 0);
  EXPECT_EQ(boundaries.back(), 101);
  // The hub row is its own first shard.
  ASSERT_GE(boundaries.size(), 3u);
  EXPECT_EQ(boundaries[1], 1);
}

TEST(ShardByWeightTest, DegenerateInputs) {
  EXPECT_EQ(ShardByWeight({0}, 4), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(ShardByWeight({0, 0, 0}, 4),
            (std::vector<std::int64_t>{0, 2}));  // all-empty rows: one shard
  EXPECT_EQ(ShardByWeight({0, 5}, 8), (std::vector<std::int64_t>{0, 1}));
}

TEST(ShardByWeightTest, RunsEveryRowExactlyOnceThroughParallelForShards) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::vector<std::int64_t> prefix(501, 0);
  for (int i = 0; i < 500; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + (i % 7 == 0 ? 50 : 1);
  }
  std::vector<std::atomic<int>> hits(500);
  ParallelForShards(ShardByWeight(prefix, NumShards(500, /*grain=*/1)),
                    [&](std::int64_t lo, std::int64_t hi, int /*shard*/) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        ++hits[static_cast<std::size_t>(i)];
                      }
                    });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShufflePermutationTest, IsAPermutation) {
  const auto perm = ShufflePermutation(1000, 42);
  std::vector<bool> seen(1000, false);
  for (std::int64_t index : perm) {
    ASSERT_GE(index, 0);
    ASSERT_LT(index, 1000);
    EXPECT_FALSE(seen[static_cast<std::size_t>(index)]);
    seen[static_cast<std::size_t>(index)] = true;
  }
}

TEST(ShufflePermutationTest, ThreadCountInvariant) {
  ThreadGuard guard;
  SetNumThreads(1);
  const auto serial = ShufflePermutation(20000, 7);
  for (int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    EXPECT_EQ(ShufflePermutation(20000, 7), serial) << threads << " threads";
  }
}

TEST(ShufflePermutationTest, SeedChangesTheOrder) {
  EXPECT_NE(ShufflePermutation(1000, 1), ShufflePermutation(1000, 2));
}

TEST(ShufflePermutationTest, ActuallyShuffles) {
  // A fixed point at every position would mean no shuffle at all; with
  // n = 1000 the expected number of fixed points is 1.
  const auto perm = ShufflePermutation(1000, 3);
  std::int64_t fixed_points = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    fixed_points += perm[static_cast<std::size_t>(i)] == i;
  }
  EXPECT_LT(fixed_points, 20);
}

TEST(DeterministicShuffleTest, PreservesMultiset) {
  std::vector<int> values = {5, 5, 5, 1, 2, 3, 3, 9};
  std::vector<int> shuffled = values;
  DeterministicShuffle(shuffled, 11);
  std::vector<int> sorted_original = values;
  std::vector<int> sorted_shuffled = shuffled;
  std::sort(sorted_original.begin(), sorted_original.end());
  std::sort(sorted_shuffled.begin(), sorted_shuffled.end());
  EXPECT_EQ(sorted_original, sorted_shuffled);
}

}  // namespace
}  // namespace fgr
