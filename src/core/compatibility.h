// Compatibility-matrix utilities: the free-parameter encoding of symmetric
// doubly-stochastic matrices (Eq. 6 in the paper), the gradient projection of
// Prop. 4.7, the parameterized "skew" matrix family used by the synthetic
// experiments, and centering helpers.
//
// A k×k symmetric doubly-stochastic matrix H has k* = k(k-1)/2 degrees of
// freedom. Following the paper we take the free parameters to be the entries
// H[i][j] with i ≤ j and j ≤ k-2 (0-based), stored row-wise over the lower
// triangle: h = [H00, H10, H11, H20, H21, H22, ...]. The last row and column
// follow from symmetry and the unit row/column sums.

#ifndef FGR_CORE_COMPATIBILITY_H_
#define FGR_CORE_COMPATIBILITY_H_

#include <cstdint>
#include <vector>

#include "matrix/dense.h"

namespace fgr {

// k(k-1)/2 for k ≥ 1.
std::int64_t NumFreeParameters(std::int64_t k);

// Reconstructs the full k×k matrix from the k* free parameters (Eq. 6).
// The result is always symmetric with unit row/column sums; entries are NOT
// clamped to [0, 1] (optimizers may pass through infeasible iterates).
DenseMatrix CompatibilityFromParameters(const std::vector<double>& params,
                                        std::int64_t k);
// The same reconstruction written into *h, allocation-free when *h is
// already k×k (every entry is overwritten).
void CompatibilityFromParameters(const std::vector<double>& params,
                                 std::int64_t k, DenseMatrix* h);

// Extracts the free parameters from a symmetric matrix (inverse of the
// reconstruction for feasible H).
std::vector<double> ParametersFromCompatibility(const DenseMatrix& h);

// Projects an entrywise gradient G = ∂E/∂H onto the free parameters using
// the structure matrices S of Prop. 4.7:
//   ∂E/∂h_{(i,j)} = ΣS_{ij}∘G. Returns a vector of length k*.
std::vector<double> ProjectGradientToParameters(const DenseMatrix& entry_gradient);
// The same projection written into *projected (resized to k*), so a caller
// that reuses the vector allocates nothing.
void ProjectGradientToParameters(const DenseMatrix& entry_gradient,
                                 std::vector<double>* projected);

// True when H is symmetric within `tol`.
bool IsSymmetric(const DenseMatrix& h, double tol = 1e-9);

// True when all row and column sums are within `tol` of 1.
bool IsDoublyStochastic(const DenseMatrix& h, double tol = 1e-9);

// The paper's parameterized test matrix: h is the max/min-entry ratio.
// Generalizes the k=3 form H = [1 h 1; h 1 1; 1 1 h]/(2+h) to any k via a
// pairing permutation P (classes 2t and 2t+1 attract; a leftover odd class
// is homophilous): H = (J - P + h·P)/(k - 1 + h). Symmetric and doubly
// stochastic for any h > 0; h = 1 is the uninformative uniform matrix.
DenseMatrix MakeSkewCompatibility(std::int64_t k, double skew);

// H̃ = H - 1/k (the residual/centered form used by LinBP's convergence
// analysis).
DenseMatrix CenterCompatibility(const DenseMatrix& h);

// The uninformative matrix with every entry 1/k.
DenseMatrix UniformCompatibility(std::int64_t k);

}  // namespace fgr

#endif  // FGR_CORE_COMPATIBILITY_H_
