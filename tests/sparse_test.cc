#include "matrix/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "matrix/dense.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fgr {
namespace {

SparseMatrix MakeExample() {
  // [ 0 2 0 ]
  // [ 2 0 1 ]
  // [ 0 1 0 ]
  return SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {1, 0, 2.0}, {1, 2, 1.0}, {2, 1, 1.0}});
}

TEST(SparseMatrixTest, FromTripletsSortsAndStores) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{1, 2, 5.0}, {0, 1, 3.0}, {1, 0, 4.0}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.At(0, 1), 3.0);
  EXPECT_EQ(m.At(1, 0), 4.0);
  EXPECT_EQ(m.At(1, 2), 5.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
}

TEST(SparseMatrixTest, DuplicateTripletsAreSummed) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      1, 2, {{0, 1, 1.5}, {0, 1, 2.5}, {0, 0, 1.0}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_EQ(m.At(0, 1), 4.0);
  EXPECT_EQ(m.At(0, 0), 1.0);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m = SparseMatrix::FromTriplets(0, 0, {});
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_EQ(m.rows(), 0);
}

TEST(SparseMatrixTest, MultiplyDenseMatchesToDense) {
  SparseMatrix m = MakeExample();
  DenseMatrix x = DenseMatrix::FromRows({{1, 0}, {0, 1}, {2, 2}});
  DenseMatrix expected = m.ToDense().Multiply(x);
  EXPECT_TRUE(AllClose(m.Multiply(x), expected, 1e-12));
}

TEST(SparseMatrixTest, MultiplyReusesOutputBuffer) {
  SparseMatrix m = MakeExample();
  DenseMatrix x = DenseMatrix::FromRows({{1, 0}, {0, 1}, {2, 2}});
  DenseMatrix out(3, 2);
  out.Fill(99.0);  // stale contents must be cleared
  m.Multiply(x, &out);
  EXPECT_TRUE(AllClose(out, m.ToDense().Multiply(x), 1e-12));
}

TEST(SparseMatrixTest, MultiplyVector) {
  SparseMatrix m = MakeExample();
  std::vector<double> y;
  m.MultiplyVector({1.0, 2.0, 3.0}, &y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(SparseMatrixTest, RowSumsAndDiagonal) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 3.0}});
  const auto sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 3.0);
}

TEST(SparseMatrixTest, DiagonalFactoryAndIdentity) {
  SparseMatrix d = SparseMatrix::Diagonal({1.0, 2.0, 3.0});
  EXPECT_EQ(d.nnz(), 3);
  EXPECT_EQ(d.At(1, 1), 2.0);
  EXPECT_EQ(d.At(0, 1), 0.0);
  SparseMatrix id = SparseMatrix::Identity(2);
  EXPECT_EQ(id.At(0, 0), 1.0);
  EXPECT_EQ(id.At(1, 1), 1.0);
}

TEST(SparseMatrixTest, IsSymmetric) {
  EXPECT_TRUE(MakeExample().IsSymmetric());
  SparseMatrix asym =
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 1.0}});
  EXPECT_FALSE(asym.IsSymmetric());
  SparseMatrix value_asym = SparseMatrix::FromTriplets(
      2, 2, {{0, 1, 1.0}, {1, 0, 2.0}});
  EXPECT_FALSE(value_asym.IsSymmetric());
}

// The definition IsSymmetric's linear merge must reproduce, by one
// binary-search lookup per stored entry: every (i, j, v) has
// At(j, i) == v, an absent entry reading 0.0.
bool ReferenceIsSymmetric(const SparseMatrix& m) {
  if (m.rows() != m.cols()) return false;
  for (SparseMatrix::Index i = 0; i < m.rows(); ++i) {
    for (auto p = m.row_ptr()[static_cast<std::size_t>(i)];
         p < m.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      const auto j = m.col_idx()[static_cast<std::size_t>(p)];
      if (m.At(j, i) != m.values()[static_cast<std::size_t>(p)]) return false;
    }
  }
  return true;
}

// Symmetric triplets in mirror pairs (entries 2e and 2e + 1 are (u, v) and
// (v, u)): Pareto-tailed degrees plus one hub row in the middle, so the
// nnz-balanced shards split both the hub's mirrors and its own entries.
// No pair repeats, so FromTriplets sums nothing.
struct PairedTriplets {
  std::vector<Triplet> triplets;
  std::set<std::pair<std::int64_t, std::int64_t>> pairs;
  std::int64_t hub = 0;
};

PairedTriplets PowerLawSymmetric(std::int64_t n, Rng& rng) {
  PairedTriplets out;
  out.hub = n / 2;
  const auto add = [&](std::int64_t u, std::int64_t v, double w) {
    if (u == v || !out.pairs.insert(std::minmax(u, v)).second) return;
    out.triplets.push_back({u, v, w});
    out.triplets.push_back({v, u, w});
  };
  for (std::int64_t u = 0; u < n; ++u) {
    const double tail = 2.0 / std::sqrt(1.0 - rng.Uniform());
    const auto degree = std::min<std::int64_t>(
        n / 8, static_cast<std::int64_t>(tail));
    for (std::int64_t d = 0; d < degree; ++d) {
      const double weight = 0.5 * static_cast<double>(1 + rng.UniformInt(4));
      add(u, rng.UniformInt(n), weight);
    }
  }
  for (std::int64_t v = 0; v < n; v += 3) add(out.hub, v, 1.0);
  return out;
}

// A pair (u, v), u != v, that the matrix does not store in either order.
std::pair<std::int64_t, std::int64_t> AbsentPair(const PairedTriplets& base,
                                                 std::int64_t n, Rng& rng) {
  while (true) {
    const std::int64_t u = rng.UniformInt(n);
    const std::int64_t v = rng.UniformInt(n);
    if (u != v && base.pairs.count(std::minmax(u, v)) == 0) return {u, v};
  }
}

TEST(SparseMatrixTest, LinearSymmetryMatchesReferenceUnderMutations) {
  struct ThreadGuard {
    ~ThreadGuard() { SetNumThreads(0); }
  } guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::int64_t kN = 3000;  // > 4 shards of the default grain
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      const PairedTriplets base = PowerLawSymmetric(kN, rng);
      const std::size_t pairs = base.triplets.size() / 2;
      // Mirror pair e: a random pair, or one of the hub's.
      const auto pick = [&](bool hub) {
        while (true) {
          const std::size_t e =
              static_cast<std::size_t>(rng.UniformInt(
                  static_cast<std::int64_t>(pairs)));
          if (!hub || base.triplets[2 * e].row == base.hub) return e;
        }
      };
      struct Case {
        const char* name;
        std::vector<Triplet> triplets;
        bool symmetric;
      };
      std::vector<Case> cases;
      cases.push_back({"pristine", base.triplets, true});
      for (const bool hub : {false, true}) {
        {
          Case c{"dropped mirror", base.triplets, false};
          c.triplets.erase(c.triplets.begin() +
                           static_cast<std::ptrdiff_t>(2 * pick(hub) + 1));
          cases.push_back(std::move(c));
        }
        {
          Case c{"changed mirrored value", base.triplets, false};
          c.triplets[2 * pick(hub) + 1].value += 0.25;
          cases.push_back(std::move(c));
        }
        {
          Case c{"NaN off the diagonal", base.triplets, false};
          const std::size_t e = pick(hub);
          c.triplets[2 * e].value = nan;
          c.triplets[2 * e + 1].value = nan;
          cases.push_back(std::move(c));
        }
        {
          Case c{"mirrored zero and negative zero", base.triplets, true};
          const std::size_t e = pick(hub);
          c.triplets[2 * e].value = 0.0;
          c.triplets[2 * e + 1].value = -0.0;
          cases.push_back(std::move(c));
        }
      }
      {
        // Both triangles: (u, v) and then (v, u) alone.
        const auto [u, v] = AbsentPair(base, kN, rng);
        for (const auto& [r, c] : {std::pair{u, v}, std::pair{v, u}}) {
          Case zero{"unmirrored explicit 0.0", base.triplets, true};
          zero.triplets.push_back({r, c, 0.0});
          cases.push_back(std::move(zero));
          Case one{"unmirrored nonzero", base.triplets, false};
          one.triplets.push_back({r, c, 1.0});
          cases.push_back(std::move(one));
        }
      }
      for (const std::int64_t d : {std::int64_t{0}, base.hub, kN - 1}) {
        Case diagonal{"diagonal entry", base.triplets, true};
        diagonal.triplets.push_back({d, d, 2.5});
        cases.push_back(std::move(diagonal));
        Case diagonal_nan{"NaN on the diagonal", base.triplets, false};
        diagonal_nan.triplets.push_back({d, d, nan});
        cases.push_back(std::move(diagonal_nan));
      }
      for (Case& c : cases) {
        SCOPED_TRACE(testing::Message() << c.name << ", seed " << seed
                                        << ", threads " << threads);
        const SparseMatrix m =
            SparseMatrix::FromTriplets(kN, kN, std::move(c.triplets));
        ASSERT_EQ(ReferenceIsSymmetric(m), c.symmetric);
        EXPECT_EQ(m.IsSymmetric(), c.symmetric);
      }
    }
  }
}

TEST(SparseMatrixTest, LinearSymmetryOnTinyAndNonSquareMatrices) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(SparseMatrix().IsSymmetric());
  EXPECT_TRUE(SparseMatrix::FromTriplets(0, 0, {}).IsSymmetric());
  EXPECT_TRUE(SparseMatrix::FromTriplets(1, 1, {}).IsSymmetric());
  for (const double d : {3.0, 0.0, -0.0, nan}) {
    const SparseMatrix m = SparseMatrix::FromTriplets(1, 1, {{0, 0, d}});
    EXPECT_EQ(m.IsSymmetric(), ReferenceIsSymmetric(m)) << d;
  }
  EXPECT_FALSE(SparseMatrix::FromTriplets(2, 3, {}).IsSymmetric());
}

TEST(SparseMatrixTest, CheckSymmetryReportsTheDiagonal) {
  const auto diagonal_of = [](double d) {
    return SparseMatrix::FromTriplets(
               3, 3, {{0, 2, 1.0}, {1, 1, d}, {2, 0, 1.0}})
        .View()
        .CheckSymmetry();
  };
  EXPECT_TRUE(diagonal_of(0.0).symmetric);
  EXPECT_TRUE(diagonal_of(0.0).zero_diagonal);
  EXPECT_TRUE(diagonal_of(2.5).symmetric);
  EXPECT_FALSE(diagonal_of(2.5).zero_diagonal);
  EXPECT_TRUE(MakeExample().View().CheckSymmetry().zero_diagonal);
}

TEST(SparseMatrixTest, CheckSymmetryReadsNullValuesAsUnitWeights) {
  // The pattern of MakeExample() without its values: unit weights are
  // symmetric wherever the structure is.
  const SparseMatrix m = MakeExample();
  const CsrPanelView unit(0, 3, 3, m.row_ptr().data(), m.col_idx().data(),
                          nullptr);
  EXPECT_TRUE(unit.CheckSymmetry().symmetric);
  const SparseMatrix asym =
      SparseMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}});
  const CsrPanelView unit_asym(0, 3, 3, asym.row_ptr().data(),
                               asym.col_idx().data(), nullptr);
  EXPECT_FALSE(unit_asym.CheckSymmetry().symmetric);
  const SparseMatrix loop =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 7.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  const CsrPanelView unit_loop(0, 2, 2, loop.row_ptr().data(),
                               loop.col_idx().data(), nullptr);
  EXPECT_TRUE(unit_loop.CheckSymmetry().symmetric);
  EXPECT_FALSE(unit_loop.CheckSymmetry().zero_diagonal);
}

TEST(SparseMatrixTest, Scale) {
  SparseMatrix m = MakeExample();
  m.Scale(0.5);
  EXPECT_EQ(m.At(0, 1), 1.0);
}

TEST(SpGemmTest, MatchesDenseProduct) {
  Rng rng(11);
  // Random sparse matrices, checked against the dense reference.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Triplet> ta;
    std::vector<Triplet> tb;
    for (int e = 0; e < 25; ++e) {
      ta.push_back({rng.UniformInt(6), rng.UniformInt(5), rng.Uniform(-2, 2)});
      tb.push_back({rng.UniformInt(5), rng.UniformInt(7), rng.Uniform(-2, 2)});
    }
    SparseMatrix a = SparseMatrix::FromTriplets(6, 5, ta);
    SparseMatrix b = SparseMatrix::FromTriplets(5, 7, tb);
    DenseMatrix expected = a.ToDense().Multiply(b.ToDense());
    EXPECT_TRUE(AllClose(SpGemm(a, b).ToDense(), expected, 1e-10));
  }
}

TEST(SpAddTest, MatchesDenseSum) {
  SparseMatrix a = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {1, 1, 2.0}});
  SparseMatrix b = SparseMatrix::FromTriplets(2, 2, {{0, 0, 3.0}, {0, 1, 4.0}});
  DenseMatrix sum = SpAdd(a, b, -2.0).ToDense();
  EXPECT_DOUBLE_EQ(sum(0, 0), 1.0 - 6.0);
  EXPECT_DOUBLE_EQ(sum(0, 1), -8.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 2.0);
}

TEST(SparseMatrixDeathTest, OutOfRangeTripletChecks) {
  EXPECT_DEATH(SparseMatrix::FromTriplets(1, 1, {{0, 5, 1.0}}), "col");
  EXPECT_DEATH(SparseMatrix::FromTriplets(1, 1, {{5, 0, 1.0}}), "row");
}

TEST(SparseMatrixDeathTest, MultiplyShapeChecks) {
  SparseMatrix m = MakeExample();
  DenseMatrix wrong(2, 2);
  EXPECT_DEATH(m.Multiply(wrong), "shape mismatch");
}

TEST(SparseMatrixDeathTest, MultiplyRejectsAliasedOutput) {
  SparseMatrix m = MakeExample();
  DenseMatrix x(m.cols(), 2);
  EXPECT_DEATH(m.Multiply(x, &x), "alias");
}

TEST(SparseMatrixDeathTest, MultiplyVectorShapeChecks) {
  SparseMatrix m = MakeExample();
  std::vector<double> wrong(static_cast<std::size_t>(m.cols()) + 1, 1.0);
  std::vector<double> y;
  EXPECT_DEATH(m.MultiplyVector(wrong, &y), "shape mismatch");
}

}  // namespace
}  // namespace fgr
