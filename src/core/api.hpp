// Low-level driver entry points over raw local blocks.
//
// These are the procedural primitives underneath the public facade
// (qr3d.hpp's DistMatrix / Solver / Factorization); prefer the facade in new
// code.  They remain for internal callers and as the single implementation
// point the object layer delegates to:
//
//   * qr()               — factor a row-cyclic matrix with the Section 1
//                          aspect-ratio dispatch (resolve_algorithm) and
//                          optional machine tuning.
//   * apply_q_cyclic     — apply Q or Q^H to a row-cyclic block of vectors
//                          with Lemma 3's 1D products: local gemms plus two
//                          n x k all-reduces, so the m x n basis never moves.
//   * gather_to_root     — thin wrapper over DistMatrix::gather.
//   * rebuild_kernel_cyclic — the Section 2.3 "T need not be stored" rebuild.
#pragma once

#include "core/caqr_eg_3d.hpp"
#include "la/blas.hpp"
#include "backend/comm.hpp"

namespace qr3d::core {

enum class Algorithm {
  Auto,      ///< aspect-ratio dispatch per Section 1
  CaqrEg3d,  ///< force the full recursion
  BaseCase,  ///< force the tall-skinny path (b = n)
};

/// The per-job accuracy/speed contract (docs/TUNING.md "Accuracy/speed
/// contract").  It steers the serving layer's algorithm dispatch for
/// tall-skinny least-squares jobs:
///
///   * Fast     — CholeskyQR2 with a float first pass (double refinement),
///                guarded at core::kFastMaxCondition;
///   * Balanced — CholeskyQR2 in double, guarded at
///                core::kBalancedMaxCondition;
///   * Accurate — always the Householder path (TSQR / 3D-CAQR-EG),
///                unconditionally backward stable.
///
/// Fast and Balanced are contracts about the *attempt*, not the result: a
/// guard trip or non-SPD Gram falls back to the Householder path in-session
/// (serve::JobStats::cholesky_fallbacks), so every mode returns a correct
/// factorization — the modes trade how much conditioning headroom is
/// required before the gemm-dominant fast path is tried.
enum class Accuracy {
  Fast,      ///< CholeskyQR2, float first pass; tightest condition guard
  Balanced,  ///< CholeskyQR2 in double with the standard guard (default)
  Accurate,  ///< Householder only: no conditioning assumptions
};

struct QrOptions {
  Algorithm algorithm = Algorithm::Auto;
  /// Tune (delta, epsilon) for the machine's cost parameters instead of the
  /// Theorem 1 defaults.
  bool tune_for_machine = false;
  CaqrEg3dOptions params;
};

/// Resolve the Section 1 dispatch into concrete recursion parameters:
/// BaseCase (and Auto with m/n >= P) pins b = n so the conversion + 1D base
/// case runs immediately.  Shared by core::qr and qr3d::Solver.
CaqrEg3dOptions resolve_algorithm(la::index_t m, la::index_t n, int P, Algorithm alg,
                                  CaqrEg3dOptions params);

/// Factor a row-cyclic m x n matrix (row i on rank i mod P).  Collective.
CyclicQr qr(backend::Comm& comm, la::ConstMatrixView A_local, la::index_t m, la::index_t n,
            QrOptions opts = {});

/// X := Q * X (op = NoTrans) or Q^H * X (op = ConjTrans), where Q is given by
/// the row-cyclic Householder factors (V_local, T_local) of an m x n matrix
/// and X is a row-cyclic m x k block.  Collective; returns this rank's rows
/// of the result.
///
/// Runs 1D-CAQR-EG's update (Section 6.2, lines 6-8) with Lemma 3's 1D
/// products, T kept row-cyclic instead of on a root: M1 = V^H X is a local
/// gemm plus an n x k all-reduce, M2 = op(T) M1 a gemm over this rank's rows
/// of T plus a second n x k all-reduce, and X - V M2 a local gemm.  The words
/// moved do not grow with m, and V never moves.  Lemma 4's 3D product would
/// move fewer words only once k nears n at large P; a least-squares solve of
/// one right-hand side has k = 1.
la::Matrix apply_q_cyclic(backend::Comm& comm, const la::Matrix& V_local, const la::Matrix& T_local,
                          la::index_t m, la::index_t n, const la::Matrix& X_local, la::index_t k,
                          la::Op op);

/// Convenience overload taking the factorization bundle.
la::Matrix apply_q_cyclic(backend::Comm& comm, const CyclicQr& f, la::index_t m, la::index_t n,
                          const la::Matrix& X_local, la::index_t k, la::Op op);

/// Gather a row-cyclic (rows x cols) matrix onto rank 0 (empty elsewhere).
/// Thin wrapper over qr3d::DistMatrix::gather — kept for internal callers.
la::Matrix gather_to_root(backend::Comm& comm, const la::Matrix& local, la::index_t rows,
                          la::index_t cols);

/// Section 2.3: in Householder representation "T need not be stored, since
/// T = (triu(V^H V) + diag(V^H V)/2)^{-1}".  Rebuild the kernel from a
/// row-cyclic basis: the Gram matrix comes from a 3D multiplication, the
/// small triangular inversion runs on rank 0, and the result is scattered
/// back row-cyclically.  Enables the Section 8.4 variant that never stores T.
la::Matrix rebuild_kernel_cyclic(backend::Comm& comm, const la::Matrix& V_local, la::index_t m,
                                 la::index_t n);

}  // namespace qr3d::core
