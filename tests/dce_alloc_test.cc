// Allocation contract of the DCE optimizer loop: once a
// DceObjective::Workspace and the gradient vector exist, evaluations
// allocate nothing, and an L-BFGS run allocates only when it starts — its
// allocation count does not grow with the number of iterations. Also the
// contract the kernels' arena scratch relies on: once the thread pool is
// running, dispatching a parallel region allocates nothing.
//
// The global operator new is replaced by a counting one, so this suite is
// its own binary. Under sanitizers (which interpose the allocator) it
// skips.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/compatibility.h"
#include "core/dce.h"
#include "opt/lbfgs.h"
#include "util/parallel.h"
#include "util/random.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FGR_ALLOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FGR_ALLOC_TEST_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return CountedAlloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fgr {
namespace {

std::int64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Noisy statistics (not the powers of any H), so the energy has a
// non-zero minimum and L-BFGS needs many iterations to reach it.
DceObjective NoisyObjective(std::int64_t k, int lmax) {
  Rng rng(23);
  std::vector<DenseMatrix> p_hat;
  for (int l = 1; l <= lmax; ++l) {
    DenseMatrix z(k, k);
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < k; ++j) z(i, j) = rng.Uniform(0.0, 1.0);
    }
    p_hat.push_back(z);
  }
  return DceObjective::WithGeometricWeights(std::move(p_hat), 10.0);
}

class DceAllocTest : public testing::Test {
 protected:
  void SetUp() override {
#ifdef FGR_ALLOC_TEST_SANITIZED
    GTEST_SKIP() << "sanitizers interpose the allocator";
#endif
  }
};

TEST_F(DceAllocTest, SteadyStateEvaluationsAllocateNothing) {
  const std::int64_t k = 5;
  const DceObjective objective = NoisyObjective(k, 5);
  Rng rng(5);
  std::vector<std::vector<double>> points(8);
  for (std::vector<double>& point : points) {
    point.resize(static_cast<std::size_t>(NumFreeParameters(k)));
    for (double& v : point) v = 0.2 + rng.Uniform(-0.05, 0.05);
  }
  DceObjective::Workspace workspace(objective);
  std::vector<double> gradient;
  objective.Evaluate(points[0], &workspace, &gradient);  // sizes `gradient`

  const std::int64_t before = Allocations();
  double sink = 0.0;
  for (int round = 0; round < 10; ++round) {
    for (const std::vector<double>& point : points) {
      // The L-BFGS pattern (Value, then Gradient at the same point), and a
      // Gradient with no Value before it.
      sink += objective.Evaluate(point, &workspace, nullptr);
      sink += objective.Evaluate(point, &workspace, &gradient);
      sink += objective.Evaluate(points[0], &workspace, &gradient);
    }
  }
  const std::int64_t during = Allocations() - before;
  EXPECT_EQ(during, 0);
  EXPECT_GT(sink, 0.0);
}

TEST_F(DceAllocTest, LbfgsAllocationsDoNotGrowWithIterations) {
  const std::int64_t k = 5;
  const DceObjective objective = NoisyObjective(k, 5);
  const std::vector<double> start(
      static_cast<std::size_t>(NumFreeParameters(k)), 0.2);
  DceObjective::Workspace workspace(objective);
  const DceWorkspaceObjective bound(objective, &workspace);

  const auto run = [&](int max_iterations, OptimizeResult* result) {
    LbfgsOptions options;
    options.max_iterations = max_iterations;
    const std::int64_t before = Allocations();
    *result = MinimizeLbfgs(bound, start, options);
    return Allocations() - before;
  };
  OptimizeResult short_run;
  OptimizeResult long_run;
  const std::int64_t short_allocations = run(5, &short_run);
  const std::int64_t long_allocations = run(50, &long_run);
  ASSERT_EQ(short_run.iterations, 5);
  ASSERT_GT(long_run.iterations, 10) << "the long run must iterate further";
  EXPECT_EQ(long_allocations, short_allocations);
}

TEST_F(DceAllocTest, WarmPoolDispatchAllocatesNothing) {
  SetNumThreads(4);
  const std::vector<double> values(1 << 16, 1.0);
  std::vector<double> partial(4, 0.0);
  const auto sharded_sum = [&] {
    ParallelForShards(0, static_cast<std::int64_t>(values.size()), 4,
                      [&](std::int64_t lo, std::int64_t hi, int s) {
                        double sum = 0.0;
                        for (std::int64_t i = lo; i < hi; ++i) {
                          sum += values[static_cast<std::size_t>(i)];
                        }
                        partial[static_cast<std::size_t>(s)] = sum;
                      });
  };
  sharded_sum();  // warm-up: starts the pool's workers

  const std::int64_t before = Allocations();
  for (int call = 0; call < 100; ++call) sharded_sum();
  const std::int64_t during = Allocations() - before;
  SetNumThreads(0);
  EXPECT_EQ(during, 0);
  EXPECT_EQ(partial[0] + partial[1] + partial[2] + partial[3],
            static_cast<double>(values.size()));
}

}  // namespace
}  // namespace fgr
