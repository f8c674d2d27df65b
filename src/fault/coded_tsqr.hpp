// Checksum-protected TSQR: the [BDG+15] reduction tree of core/tsqr.hpp
// armored with a linear erasure code over the per-rank R-blocks, so the
// factorization completes even when up to f ranks die mid-reduction (see
// fault/plan.hpp for how deaths are injected and detected).
//
// The code exploits the Gram identity R^T R = A^T A = sum_p R_p^T R_p: the
// true R is the R-factor of the stacked per-rank R_p blocks, so protecting
// the n x n R_p blocks protects the whole factorization.  Before the
// reduction tree runs, every rank contributes f weighted copies of its
// packed R_p to a checksum reduce rooted at the *keeper* (rank P-1, chosen
// off the tree root so the checksum never travels with the data it
// protects):
//
//   C_j = sum_p w_jp R_p,   w_jp = x_p^j,   j = 0..f-1,
//
// with x_p = cos(pi (2p+1) / 2P) the p-th Chebyshev point on [-1, 1].
//
// The factorization runs three of core::tsqr's four phases (core/tsqr.hpp):
// tsqr_leaf, tsqr_combine at every tree node, and tsqr_finish.  In place of
// the fourth, tsqr_upsweep, it runs its own binomial loop: each message
// carries one extra completeness word, and a rank whose child died
// (fault::RankDeath on the upsweep recv) continues with its partial
// aggregate and clears the flag.  After the upsweep the root direct-sends a
// one-word status to every rank:
//
//   * clean    — tsqr_finish runs the downsweep, the Householder
//                reconstruction and the U broadcast, so the result is
//                bitwise identical to core::tsqr (V, T, R) by construction;
//   * recovery — every surviving rank re-sends its original packed R_p to
//                the root (the keeper appends the checksums); ranks whose
//                blocks never arrive (<= f of them, or the run is
//                unrecoverable) are reconstructed by solving the e x e
//                Vandermonde system the weights define; the root QRs the
//                stacked alive + recovered blocks and direct-sends the true
//                R to every survivor.  The recovered result is R-only.
//
// Deaths at timings the code cannot cover (during the encode reduce, after
// a clean status was issued, or the keeper/root themselves) surface as
// fault::RankDeath from run() — a *session* failure the serving layer heals
// by requeueing (see docs/SERVING.md), not a hang.
#pragma once

#include <vector>

#include "backend/comm.hpp"
#include "core/qr_result.hpp"
#include "la/matrix.hpp"

namespace qr3d::fault {

struct CodedTsqrOptions {
  /// Number of redundant checksum blocks == maximum dead ranks the
  /// factorization survives.  Must be in [1, P].
  ///
  /// Accuracy caveat: reconstructing e dead blocks solves an e x e
  /// Vandermonde system whose conditioning grows roughly like 2^e even on
  /// the Chebyshev-spaced encoding nodes used here (integer nodes would be
  /// far worse, ~P^e).  The recovered R loses about e bits of the ~52-bit
  /// double mantissa, so f up to ~20 simultaneous deaths stays well within
  /// working precision; far beyond that, recovery still completes but the
  /// reconstructed blocks degrade gracefully rather than staying at
  /// round-off.  Typical deployments encode the small f they expect to
  /// survive (1-4), where the solve is accurate to machine precision.
  int f = 1;
};

struct CodedTsqrResult {
  /// Zero-fault: the full factorization, bitwise identical to core::tsqr.
  /// After recovery: R only (root's R replicated to every survivor); V and T
  /// are empty — the tree Q died with the dead ranks.
  core::DistributedQr qr;
  /// True when the recovery path ran (the result is R-only).
  bool recovered = false;
  /// Ranks whose R-blocks were reconstructed from checksums (ascending).
  std::vector<int> lost;
};

/// Collective over `comm`; same data-distribution contract as core::tsqr
/// (each rank owns m_p >= n rows, root is rank 0).  Throws fault::RankDeath
/// when more than `f` blocks are missing or a structurally required rank
/// (root, checksum keeper) died.
CodedTsqrResult coded_tsqr(backend::Comm& comm, la::ConstMatrixView A_local,
                           CodedTsqrOptions opts = {});

}  // namespace qr3d::fault
