// Fuzz / edge-shape equivalence tests for the kernel backend
// (src/matrix/kernels/): every compiled-and-supported ISA variant must
// agree with the scalar reference on randomized CSR panels covering ragged
// shapes, k below/at/above the vector width, empty rows, a single hub row,
// sliced row_ptr bases, and unit-weight (values == nullptr) panels.
//
// Contract being enforced (kernels.h):
//   * scalar == independent reference transcription, bit for bit;
//   * SIMD variants == scalar within kKernelVariantTolerance (relative);
//   * unit-weight panel == all-ones-weighted panel, bit for bit, per ISA;
//   * padded operand stride == dense stride, bit for bit, per ISA.
//
// This suite also runs under ASan+UBSan in CI, where the masked tail
// loads/stores prove they never touch memory past column k.

#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "matrix/kernels/kernels.h"
#include "util/random.h"

namespace fgr {
namespace kernels {
namespace {

struct OwnedCsr {
  std::vector<Index> row_ptr;
  std::vector<Index> col_idx;
  std::vector<double> values;

  Index rows() const {
    return static_cast<Index>(row_ptr.size()) - 1;
  }
  Csr View(bool unit_weights = false) const {
    return {row_ptr.data(), col_idx.data(),
            unit_weights ? nullptr : values.data()};
  }
};

struct ShapeOptions {
  double empty_row_fraction = 0.0;
  bool hub_row = false;       // one row touching every column
  Index row_ptr_base = 0;     // simulate a panel sliced from a larger matrix
};

// Random CSR panel with strictly ascending columns per row (the CsrPanelView
// invariant).
OwnedCsr RandomCsr(Index rows, Index cols, Index avg_row_nnz,
                   std::uint64_t seed, const ShapeOptions& options = {}) {
  Rng rng(seed);
  OwnedCsr csr;
  csr.row_ptr.reserve(static_cast<std::size_t>(rows) + 1);
  csr.row_ptr.push_back(options.row_ptr_base);
  for (Index i = 0; i < rows; ++i) {
    Index nnz = 0;
    if (options.hub_row && i == rows / 2) {
      nnz = cols;
    } else if (rng.Uniform(0.0, 1.0) >= options.empty_row_fraction) {
      nnz = rng.UniformInt(2 * avg_row_nnz + 1);
    }
    // Ascending unique columns: sample a sorted subset via one left-to-right
    // reservoir-free pass (keep each column with probability nnz/cols-ish).
    Index taken = 0;
    for (Index c = 0; c < cols && taken < nnz; ++c) {
      const Index remaining_cols = cols - c;
      const Index remaining_nnz = nnz - taken;
      if (rng.UniformInt(remaining_cols) < remaining_nnz) {
        csr.col_idx.push_back(c);
        csr.values.push_back(rng.Uniform(-2.0, 2.0));
        ++taken;
      }
    }
    csr.row_ptr.push_back(options.row_ptr_base +
                          static_cast<Index>(csr.col_idx.size()));
  }
  return csr;
}

std::vector<double> RandomVector(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(size);
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (IsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

void ExpectClose(const std::vector<double>& reference,
                 const std::vector<double>& got, const char* what, Isa isa) {
  ASSERT_EQ(reference.size(), got.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(reference[i], got[i],
                kKernelVariantTolerance * (1.0 + std::fabs(reference[i])))
        << what << " [" << i << "] via " << IsaName(isa);
  }
}

// Independent transcriptions of the historical sparse.cc loops — the bar
// the scalar kernel table must clear bit for bit.
std::vector<double> ReferenceSpmm(const OwnedCsr& csr, Index cols, Index k,
                                  const std::vector<double>& x) {
  const Index rows = csr.rows();
  const Index base = csr.row_ptr[0];
  std::vector<double> out(static_cast<std::size_t>(rows * k), 0.0);
  for (Index i = 0; i < rows; ++i) {
    for (Index p = csr.row_ptr[i] - base; p < csr.row_ptr[i + 1] - base; ++p) {
      const double v = csr.values[static_cast<std::size_t>(p)];
      for (Index j = 0; j < k; ++j) {
        out[static_cast<std::size_t>(i * k + j)] +=
            v * x[static_cast<std::size_t>(csr.col_idx[static_cast<std::size_t>(
                                               p)] * k + j)];
      }
    }
  }
  (void)cols;
  return out;
}

std::vector<double> ReferenceSpmv(const OwnedCsr& csr,
                                  const std::vector<double>& x) {
  const Index rows = csr.rows();
  const Index base = csr.row_ptr[0];
  std::vector<double> y(static_cast<std::size_t>(rows), 0.0);
  for (Index i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (Index p = csr.row_ptr[i] - base; p < csr.row_ptr[i + 1] - base; ++p) {
      sum += csr.values[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(csr.col_idx[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
  return y;
}

std::vector<double> RunSpmm(const KernelTable& kt, const Csr& csr, Index rows,
                            Index k, const std::vector<double>& x,
                            Index x_stride) {
  std::vector<double> out(static_cast<std::size_t>(rows * k), -7.25);
  kt.spmm(csr, 0, rows, x.data(), x_stride, out.data(), k, k);
  return out;
}

struct Shape {
  Index rows, cols, avg_row_nnz;
  ShapeOptions options;
};

std::vector<Shape> FuzzShapes() {
  return {
      {97, 61, 6, {}},                         // ragged, rectangular
      {64, 64, 4, {0.5, false, 0}},            // half the rows empty
      {40, 256, 3, {0.2, true, 0}},            // one hub row spanning cols
      {1, 17, 9, {}},                          // single row
      {33, 29, 5, {0.0, false, 1000}},         // sliced row_ptr base
      {12, 1, 1, {}},                          // single column
      {50, 80, 0, {1.0, false, 0}},            // fully empty matrix
  };
}

std::vector<Index> FuzzKs() { return {1, 2, 3, 4, 5, 7, 8, 10, 12, 13, 21}; }

TEST(KernelEquivalenceTest, ScalarSpmmMatchesReferenceExactly) {
  for (const Shape& shape : FuzzShapes()) {
    const OwnedCsr csr =
        RandomCsr(shape.rows, shape.cols, shape.avg_row_nnz, 11, shape.options);
    for (Index k : FuzzKs()) {
      const std::vector<double> x =
          RandomVector(static_cast<std::size_t>(shape.cols * k), 13 + k);
      const std::vector<double> reference =
          ReferenceSpmm(csr, shape.cols, k, x);
      EXPECT_EQ(RunSpmm(KernelsFor(Isa::kScalar), csr.View(), shape.rows, k, x,
                        k),
                reference)
          << "rows=" << shape.rows << " k=" << k;
    }
  }
}

TEST(KernelEquivalenceTest, SimdSpmmMatchesScalarWithinTolerance) {
  for (const Shape& shape : FuzzShapes()) {
    const OwnedCsr csr =
        RandomCsr(shape.rows, shape.cols, shape.avg_row_nnz, 17, shape.options);
    for (Index k : FuzzKs()) {
      const std::vector<double> x =
          RandomVector(static_cast<std::size_t>(shape.cols * k), 19 + k);
      const std::vector<double> reference =
          RunSpmm(KernelsFor(Isa::kScalar), csr.View(), shape.rows, k, x, k);
      for (Isa isa : AvailableIsas()) {
        ExpectClose(reference,
                    RunSpmm(KernelsFor(isa), csr.View(), shape.rows, k, x, k),
                    "spmm", isa);
      }
    }
  }
}

TEST(KernelEquivalenceTest, SpmvMatchesReferenceAcrossVariants) {
  for (const Shape& shape : FuzzShapes()) {
    const OwnedCsr csr =
        RandomCsr(shape.rows, shape.cols, shape.avg_row_nnz, 41, shape.options);
    const std::vector<double> x =
        RandomVector(static_cast<std::size_t>(shape.cols), 43);
    const std::vector<double> reference = ReferenceSpmv(csr, x);
    std::vector<double> y(static_cast<std::size_t>(shape.rows), -3.5);
    KernelsFor(Isa::kScalar)
        .spmv(csr.View(), 0, shape.rows, x.data(), y.data());
    EXPECT_EQ(y, reference);
    for (Isa isa : AvailableIsas()) {
      std::vector<double> simd(static_cast<std::size_t>(shape.rows), -3.5);
      KernelsFor(isa).spmv(csr.View(), 0, shape.rows, x.data(), simd.data());
      ExpectClose(reference, simd, "spmv", isa);
    }
  }
}

TEST(KernelEquivalenceTest, RowSumsMatchReferenceAcrossVariants) {
  for (const Shape& shape : FuzzShapes()) {
    const OwnedCsr csr =
        RandomCsr(shape.rows, shape.cols, shape.avg_row_nnz, 47, shape.options);
    const Index base = csr.row_ptr[0];
    std::vector<double> reference(static_cast<std::size_t>(shape.rows), 0.0);
    for (Index i = 0; i < shape.rows; ++i) {
      for (Index p = csr.row_ptr[i] - base; p < csr.row_ptr[i + 1] - base;
           ++p) {
        reference[static_cast<std::size_t>(i)] +=
            csr.values[static_cast<std::size_t>(p)];
      }
    }
    for (Isa isa : AvailableIsas()) {
      std::vector<double> sums(static_cast<std::size_t>(shape.rows), -1.0);
      KernelsFor(isa).row_sums(csr.View(), 0, shape.rows, sums.data());
      ExpectClose(reference, sums, "row_sums", isa);
    }
  }
}

TEST(KernelEquivalenceTest, UnitWeightsMatchAllOnesBitForBitPerVariant) {
  // fma(1.0, x, acc) == add(x, acc) in every rounding mode, so the
  // values==nullptr fast path must agree with an explicit all-ones panel
  // bit for bit — per variant, not just within tolerance.
  for (const Shape& shape : FuzzShapes()) {
    OwnedCsr csr =
        RandomCsr(shape.rows, shape.cols, shape.avg_row_nnz, 53, shape.options);
    for (double& v : csr.values) v = 1.0;
    for (Index k : {Index{2}, Index{5}, Index{10}, Index{13}}) {
      const std::vector<double> x =
          RandomVector(static_cast<std::size_t>(shape.cols * k), 59 + k);
      for (Isa isa : AvailableIsas()) {
        const KernelTable& kt = KernelsFor(isa);
        EXPECT_EQ(RunSpmm(kt, csr.View(/*unit_weights=*/true), shape.rows, k,
                          x, k),
                  RunSpmm(kt, csr.View(), shape.rows, k, x, k))
            << "spmm k=" << k << " via " << IsaName(isa);
      }
    }
    const std::vector<double> xv =
        RandomVector(static_cast<std::size_t>(shape.cols), 67);
    for (Isa isa : AvailableIsas()) {
      std::vector<double> unit(static_cast<std::size_t>(shape.rows), 0.0);
      std::vector<double> ones(static_cast<std::size_t>(shape.rows), 0.0);
      KernelsFor(isa).spmv(csr.View(/*unit_weights=*/true), 0, shape.rows,
                           xv.data(), unit.data());
      KernelsFor(isa).spmv(csr.View(), 0, shape.rows, xv.data(), ones.data());
      EXPECT_EQ(unit, ones) << "spmv via " << IsaName(isa);
    }
  }
}

TEST(KernelEquivalenceTest, PaddedOperandStrideIsBitIdenticalPerVariant) {
  // The same dense operand laid out with a padded row stride (pad bytes
  // poisoned) must give bit-identical results: kernels may only read the
  // first k entries of each row.
  const Index rows = 73, cols = 57;
  const OwnedCsr csr = RandomCsr(rows, cols, 5, 71);
  for (Index k : FuzzKs()) {
    const Index padded = (k + 7) / 8 * 8;
    const std::vector<double> x =
        RandomVector(static_cast<std::size_t>(cols * k), 73 + k);
    std::vector<double> x_padded(static_cast<std::size_t>(cols * padded),
                                 std::nan(""));
    for (Index c = 0; c < cols; ++c) {
      for (Index j = 0; j < k; ++j) {
        x_padded[static_cast<std::size_t>(c * padded + j)] =
            x[static_cast<std::size_t>(c * k + j)];
      }
    }
    for (Isa isa : AvailableIsas()) {
      const KernelTable& kt = KernelsFor(isa);
      const std::vector<double> dense = RunSpmm(kt, csr.View(), rows, k, x, k);
      // Padded output stride too: rows written at `padded`, pad untouched.
      std::vector<double> out(static_cast<std::size_t>(rows * padded), -2.0);
      kt.spmm(csr.View(), 0, rows, x_padded.data(), padded, out.data(),
              padded, k);
      for (Index i = 0; i < rows; ++i) {
        for (Index j = 0; j < k; ++j) {
          EXPECT_EQ(out[static_cast<std::size_t>(i * padded + j)],
                    dense[static_cast<std::size_t>(i * k + j)])
              << "row " << i << " col " << j << " k=" << k << " via "
              << IsaName(isa);
        }
        for (Index j = k; j < padded; ++j) {
          EXPECT_EQ(out[static_cast<std::size_t>(i * padded + j)], -2.0)
              << "pad clobbered at row " << i << " k=" << k << " via "
              << IsaName(isa);
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, DescribeKernelsNamesEveryVariant) {
  const std::string description = DescribeKernels();
  EXPECT_NE(description.find("dispatched: "), std::string::npos);
  EXPECT_NE(description.find("scalar"), std::string::npos);
  EXPECT_NE(description.find("avx2"), std::string::npos);
  EXPECT_NE(description.find("avx512"), std::string::npos);
}

}  // namespace
}  // namespace kernels
}  // namespace fgr
