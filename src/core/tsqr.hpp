// Tall-Skinny QR (Section 5 / Appendix C) — the [BDG+15] variant with
// Householder reconstruction.
//
// Input: each rank owns m_p >= n rows of the m x n matrix A (m/n >= P);
// rank 0 (the root) owns A's leading n rows as its first n local rows.
// Output: the Householder representation (V, T) with V distributed like A,
// plus the R-factor; T and R live on the root only.
//
// Structure (communication pattern = binomial-tree reduce then broadcast,
// with local QR / Q-application instead of elementwise arithmetic), one
// detail:: phase each:
//   1. leaf      — local QR of A_local (tsqr_leaf);
//   2. upsweep   — a binomial reduction (tsqr_upsweep) whose every node
//                  QRs the 2n x n stack of two packed n x n R-factors
//                  (tsqr_combine);
//   3. finish    — (tsqr_finish) the downsweep applies the stored tree
//                  Q-factors to identity columns, recovering W = explicit
//                  leading n columns of the tree Q; the root takes the
//                  sign-shifted LU X + S = L U of W's top block and
//                  broadcasts U right after it, so every rank's V solve
//                  W U^{-1} runs while the root finishes the rest of the
//                  reconstruction: V = [L; W_2 U^{-1}], T = U S^H L^{-H},
//                  R := -S^H R ([BDG+15] Lemma 6.2).
//
// The U broadcast uses the binomial tree, as the paper does.  The upsweep
// and downsweep trees are inherently binomial because their block contents
// change at every node, so TSQR pays a log P bandwidth factor whichever
// tree broadcasts U; removing that factor is what 1D-CAQR-EG is for.
//
// fault::coded_tsqr reuses tsqr_leaf, tsqr_combine and tsqr_finish around
// its own checksum-carrying upsweep, so its zero-fault result equals
// tsqr's by construction.
#pragma once

#include <vector>

#include "core/qr_result.hpp"
#include "la/matrix.hpp"
#include "backend/comm.hpp"

namespace qr3d::core {

/// Collective over `comm`; see file comment for the data-distribution
/// contract.  Root is rank 0.
DistributedQr tsqr(backend::Comm& comm, la::ConstMatrixView A_local);

namespace detail {

/// One stored internal node of this rank's path through the reduction tree.
struct TsqrNode {
  int partner;     ///< rank whose R-factor was stacked below ours
  la::Matrix V;    ///< 2n x n basis of the combining QR
  la::Matrix T;    ///< n x n kernel
};

/// What one rank carries from the leaf through the upsweep to the finish.
struct TsqrState {
  la::Matrix V0, T0;             ///< local QR of A_local: m_p x n basis, n x n kernel
  la::Matrix R;                  ///< the n x n R-factor aggregated so far
  std::vector<TsqrNode> nodes;   ///< combines at this rank, in upsweep order
  int parent = -1;               ///< rank this one sent its R to (-1 on the root)
};

/// Local QR of this rank's m_p x n block (m_p >= n).
TsqrState tsqr_leaf(backend::Comm& comm, la::ConstMatrixView A_local);

/// Replace s.R by the R-factor of [s.R; R_child] and record the node for
/// the downsweep (`child` is the rank that sent R_child).
void tsqr_combine(backend::Comm& comm, TsqrState& s, int child, la::ConstMatrixView R_child);

/// The binomial reduction of R-factors to rank 0: each rank combines its
/// children's packed R in mask order, then sends its own R to its parent.
void tsqr_upsweep(backend::Comm& comm, TsqrState& s);

/// Downsweep, Householder reconstruction and U broadcast, after an upsweep
/// that left the full R on the root and set every non-root's parent.
/// Consumes `s` (the root's R moves into the result).
DistributedQr tsqr_finish(backend::Comm& comm, TsqrState&& s);

}  // namespace detail

}  // namespace qr3d::core
