// 3D-CAQR-EG (Section 7): the paper's headline algorithm.
//
// Input: A (m x n, m >= n) distributed row-cyclically — global row i lives on
// rank i mod P, rows sorted ascending in each local block.  Output (Section
// 7's spec): Householder representation (V, T) and R-factor with V
// distributed like A and T, R distributed like A's top n rows (row-cyclic).
//
// Inductive case (Section 7.2): the six matrix multiplications of qr-eg
// (Algorithm 2) run as 3D multiplications (Lemma 4) with two-phase
// all-to-all redistributions before and after each — this is where the
// n^2/(nP/m)^delta bandwidth of Theorem 1 comes from.  The right recursion
// operates on rows n1..m of a row-cyclic matrix, which is again row-cyclic
// with the shift advanced by n1; tracking that shift makes every assembly
// step (Lines 10, 13, 14) communication-free, exactly as the paper claims.
//
// Base case (Section 7.1): convert row-cyclic to a block-ish layout over
// P* = min(P, floor(m/n)) representative ranks via grouped gathers, move the
// top n rows to representative 0 (gather + load-rebalancing scatter), run
// 1D-CAQR-EG with threshold b*, then reverse the conversion.  The conversion
// is a pure row permutation (BaseConversionPlan fixes it), computed from
// dense position vectors and copied column by column.  When P* = P (every
// tall served shape: m/n >= P) each group is one rank, nothing is gathered,
// and the conversion is a swap of the top n rows: representative g > 0
// trades its rows below n for as many of representative 0's rows.
#pragma once

#include "coll/coll.hpp"
#include "core/qr_result.hpp"
#include "backend/comm.hpp"

namespace qr3d::core {

struct CaqrEg3dOptions {
  /// Recursion threshold; 0 derives b from delta via Eq. (12).
  la::index_t b = 0;
  /// Base-case threshold for the inner 1D-CAQR-EG; 0 derives b* from
  /// epsilon via Eq. (12).
  la::index_t b_star = 0;
  /// Theorem 1's bandwidth/latency tradeoff parameter (delta in [1/2, 2/3]).
  double delta = 2.0 / 3.0;
  /// Theorem 2's tradeoff parameter for the base case (epsilon in [0, 1]).
  double epsilon = 1.0;
  /// all-to-all variant for the dmm-layout redistributions (the paper uses
  /// the two-phase algorithm; Index is the E8 ablation).
  coll::Alg alltoall_alg = coll::Alg::Auto;
};

/// Collective over `comm`.  A_local holds this rank's rows (ascending global
/// index) of the m x n matrix.
CyclicQr caqr_eg_3d(backend::Comm& comm, la::ConstMatrixView A_local, la::index_t m, la::index_t n,
                    CaqrEg3dOptions opts = {});

namespace detail {

/// Deterministic description of the Section 7.1 layout conversion, computed
/// identically by every rank.  Rows are global indices of the current
/// (sub)matrix; ranks are *relative* (shift-normalized) ranks, so the row->
/// owner map is simply r mod P.
struct BaseConversionPlan {
  int P = 1;        // communicator size
  int Pprime = 1;   // min(P, m): ranks that own rows
  int Pstar = 1;    // min(P, floor(m/n)): representative count
  int Pdd = 1;      // min(Pstar, n): reps initially holding top-n rows
  /// Rows held by each representative after the grouped gathers (phase 1).
  std::vector<std::vector<la::index_t>> group_rows;
  /// Rows held after the top-row exchange (phase 2) — the layout
  /// 1D-CAQR-EG runs on.  Rep 0's list starts with rows 0..n-1.
  std::vector<std::vector<la::index_t>> final_rows;
  /// Per rep g: its phase-1 rows below n that move to rep 0 (empty for g=0).
  std::vector<std::vector<la::index_t>> top_rows;
  /// Per rep g: the rows rep 0 hands over in exchange (same cardinality).
  std::vector<std::vector<la::index_t>> given_rows;

  static BaseConversionPlan make(la::index_t m, la::index_t n, int P);
};

}  // namespace detail

}  // namespace qr3d::core
