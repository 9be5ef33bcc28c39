#include "util/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "util/env.h"

namespace fgr {
namespace {

using internal::ShardCallback;

// 0 = automatic (FGR_NUM_THREADS env var, else the CPU count).
std::atomic<int> g_configured_threads{0};

// Generous upper bound on the thread setting, so a typo'd env value cannot
// size per-shard accumulators absurdly. Live threads are bounded by the CPU
// count regardless.
constexpr int kMaxThreads = 1024;

// CPUs this process may run on: its affinity mask, as taskset and cpuset
// cgroups narrow it (the count libgomp's omp_get_num_procs reports).
int AffinityCpuCount() {
  static const int count = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }();
  return count;
}

// How a waiting thread waits: it polls with a pause for about 50 us
// (kPausePolls), then keeps polling but yields its CPU every
// kPollsPerYield polls until kYieldFor has passed, then parks on a futex.
// Kernels issue regions back to back (an SpMM, its row epilogue, a
// residual reduction; a warm DCE estimate issues one ~1 ms region per
// call), and a polling worker picks up the next region on a core that is
// still awake, without a wake-up syscall, while the yields hand the core
// to any other runnable thread. On a 4-core VM, parking after 50 us made
// warm estimates ~30% slower than libgomp, whose workers spin ~3 ms;
// spinning 3 ms without yielding made four concurrent 4-thread holdout
// runs take 35 s instead of 0.5 s, as the spinners held the cores that the
// threads they waited on needed; yielding on every poll instead of every
// 64th cost warm estimates ~6%. An idle pool parks and costs no CPU.
constexpr int kPausePolls = 2048;
constexpr int kPollsPerYield = 64;
constexpr std::chrono::milliseconds kYieldFor{3};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Blocks while `value` holds `old` and returns the new value.
std::uint32_t WaitWhileEquals(const std::atomic<std::uint32_t>& value,
                              std::uint32_t old) {
  const auto start = std::chrono::steady_clock::now();
  for (int polls = 1;; ++polls) {
    const std::uint32_t current = value.load(std::memory_order_acquire);
    if (current != old) return current;
    if (polls < kPausePolls || polls % kPollsPerYield != 0) {
      CpuRelax();
    } else if (std::chrono::steady_clock::now() - start < kYieldFor) {
      std::this_thread::yield();
    } else {
      value.wait(old, std::memory_order_acquire);
    }
  }
}

// True on pool workers, and on a thread while it runs a region through the
// pool: a region reached from either runs inline, so regions never nest.
thread_local bool t_in_region = false;

// The fork-join pool. One thread at a time holds it for a region; the
// holder publishes the region, wakes the workers it wants through their
// own slots, runs its share of the shards alongside them, and waits for
// them to finish. Shards are dealt round-robin over the participants —
// the holder is participant 0, worker w is participant w + 1 — so a
// kernel that runs every iteration over the same rows finds its shard's
// data in the same core's cache each time.
class Pool {
 public:
  explicit Pool(int max_workers)
      : max_workers_(max_workers),
        slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(max_workers))) {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Claims the pool for one region; false while another thread holds it.
  bool TryAcquire() { return !held_.exchange(true, std::memory_order_acquire); }
  void Release() { held_.store(false, std::memory_order_release); }

  // Runs body over `shards` shards on the holder and up to `helpers`
  // workers; returns the first exception a shard threw.
  std::exception_ptr Run(int shards, int helpers, const ShardCallback& body) {
    helpers = StartWorkers(helpers);
    body_ = &body;
    shards_ = shards;
    participants_ = helpers + 1;
    active_.store(static_cast<std::uint32_t>(helpers),
                  std::memory_order_relaxed);
    ++region_;
    for (int w = 0; w < helpers; ++w) {
      // Sequentially consistent, like the decrement in WorkerLoop: notify
      // skips the wake-up when it reads no parked waiter, and that read
      // must not be ordered before the store a waiter compares against.
      Slot& slot = slots_[static_cast<std::size_t>(w)];
      slot.region.store(region_);
      slot.region.notify_one();
    }
    RunShardsOf(0);
    for (std::uint32_t left = active_.load(std::memory_order_acquire);
         left != 0;) {
      left = WaitWhileEquals(active_, left);
    }
    const std::lock_guard<std::mutex> lock(error_mutex_);
    return std::exchange(error_, nullptr);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> region{0};  // the holder bumps it to wake
    std::thread thread;
  };

  // Grows the pool to `wanted` workers (capped at max_workers_) and returns
  // how many are running. Called by the holder only.
  int StartWorkers(int wanted) {
    wanted = std::min(wanted, max_workers_);
    while (started_ < wanted) {
      Slot& slot = slots_[static_cast<std::size_t>(started_)];
      try {
        slot.thread = std::thread(
            [this, &slot, participant = started_ + 1] {
              WorkerLoop(slot, participant);
            });
      } catch (const std::system_error&) {
        // Out of threads: run with the workers started so far from now on.
        max_workers_ = started_;
        break;
      }
      ++started_;
    }
    return std::min(wanted, started_);
  }

  void WorkerLoop(Slot& slot, int participant) {
    t_in_region = true;
    std::uint32_t seen = 0;
    for (;;) {
      seen = WaitWhileEquals(slot.region, seen);
      RunShardsOf(participant);
      if (active_.fetch_sub(1) == 1) {
        active_.notify_one();
      }
    }
  }

  void RunShardsOf(int participant) noexcept {
    for (int s = participant; s < shards_; s += participants_) {
      try {
        (*body_)(s);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  std::atomic<bool> held_{false};
  // Holder-only state.
  int max_workers_;
  int started_ = 0;
  std::uint32_t region_ = 0;
  // The current region: written by the holder before the stores that wake
  // the workers, and not rewritten until they all report done.
  const ShardCallback* body_ = nullptr;
  int shards_ = 0;
  int participants_ = 1;
  alignas(64) std::atomic<std::uint32_t> active_{0};  // workers still running
  std::mutex error_mutex_;
  std::exception_ptr error_;  // guarded by error_mutex_
  // Last: the workers' threads use every member above.
  std::unique_ptr<Slot[]> slots_;
};

// Started on the first region that wants a second participant, and never
// destroyed: another thread may still run a region while static
// destructors run at exit, and parked workers hold nothing the OS does not
// reclaim.
Pool& ThePool() {
  static Pool* const pool = new Pool(AffinityCpuCount() - 1);
  return *pool;
}

}  // namespace

void SetNumThreads(int threads) {
  FGR_CHECK_GE(threads, 0);
  g_configured_threads.store(std::min(threads, kMaxThreads),
                             std::memory_order_relaxed);
}

int NumThreads() {
  const int configured = g_configured_threads.load(std::memory_order_relaxed);
  if (configured > 0) return configured;
  const std::int64_t env = EnvInt64("FGR_NUM_THREADS", 0);
  if (env > 0) {
    return static_cast<int>(std::min<std::int64_t>(env, kMaxThreads));
  }
  return AffinityCpuCount();
}

std::vector<std::int64_t> ShardByWeight(const std::vector<std::int64_t>& prefix,
                                        int shards) {
  FGR_CHECK_GE(prefix.size(), 1u);
  return ShardByWeight(prefix.data(),
                       static_cast<std::int64_t>(prefix.size()) - 1, shards);
}

std::vector<std::int64_t> ShardByWeight(const std::int64_t* prefix,
                                        std::int64_t rows, int shards) {
  FGR_CHECK_GE(shards, 1);
  FGR_CHECK_GE(rows, 0);
  std::vector<std::int64_t> boundaries;
  boundaries.push_back(0);
  if (rows <= 0) return boundaries;
  const std::int64_t base = prefix[0];
  const std::int64_t total = prefix[rows] - base;
  for (int s = 1; s < shards; ++s) {
    // First row whose cumulative weight reaches the s-th equal-weight
    // target; empty shards collapse (duplicate boundaries are skipped).
    const std::int64_t target =
        base + total / shards * s + total % shards * s / shards;
    const auto it = std::lower_bound(prefix, prefix + rows + 1, target);
    const std::int64_t row = std::min<std::int64_t>(rows, it - prefix);
    if (row > boundaries.back()) boundaries.push_back(row);
  }
  if (boundaries.back() < rows) boundaries.push_back(rows);
  return boundaries;
}

namespace internal {

int ResolveWorkers(std::int64_t iterations, std::int64_t grain) {
  if (iterations <= 0) return 1;
  if (grain < 1) grain = 1;
  const std::int64_t grain_cap = (iterations + grain - 1) / grain;
  return static_cast<int>(std::min<std::int64_t>(
      NumThreads(), std::max<std::int64_t>(1, grain_cap)));
}

void RunShards(int shards, ShardCallback body) {
  const int participants =
      shards > 1 ? std::min({shards, NumThreads(), AffinityCpuCount()}) : 1;
  if (participants > 1 && !t_in_region) {
    Pool& pool = ThePool();
    if (pool.TryAcquire()) {
      t_in_region = true;
      const std::exception_ptr error = pool.Run(shards, participants - 1, body);
      t_in_region = false;
      pool.Release();
      if (error) std::rethrow_exception(error);
      return;
    }
  }
  for (int s = 0; s < shards; ++s) body(s);
}

}  // namespace internal
}  // namespace fgr
