#include "fault/coded_tsqr.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "core/tsqr.hpp"
#include "fault/plan.hpp"
#include "la/error.hpp"
#include "la/flops.hpp"
#include "la/householder.hpp"
#include "la/packing.hpp"

namespace qr3d::fault {

namespace {

constexpr int kTagUpsweep = 8111;
constexpr int kTagStatus = 8113;
constexpr int kTagRecover = 8114;
constexpr int kTagFinal = 8115;

/// Checksum weight of rank p in checksum j: x_p^j with x_p the p-th
/// Chebyshev point of the P-point grid on [-1, 1].  Distinct nodes make
/// every square recovery subsystem a nonsingular Vandermonde system, and
/// Chebyshev spacing keeps its conditioning growing like ~2^e with the
/// number of dead ranks e, instead of the ~P^e of naive integer nodes
/// (p+1)^j — see the practical bound on f in coded_tsqr.hpp.
double weight(int p, int j, int P) {
  constexpr double kPi = 3.14159265358979323846;
  const double node = std::cos(kPi * (2.0 * static_cast<double>(p) + 1.0) /
                               (2.0 * static_cast<double>(P)));
  return std::pow(node, static_cast<double>(j));
}

/// Solve the e x e system M x = rhs[k] for every k (Gaussian elimination
/// with partial pivoting, factored once).  M is row-major, overwritten; each
/// rhs column is overwritten with its solution.
void solve_inplace(int e, std::vector<double>& M, std::vector<std::vector<double>>& rhs) {
  std::vector<int> perm(static_cast<std::size_t>(e));
  for (int i = 0; i < e; ++i) perm[static_cast<std::size_t>(i)] = i;
  auto at = [&](int r, int c) -> double& {
    return M[static_cast<std::size_t>(perm[static_cast<std::size_t>(r)] * e + c)];
  };
  for (int k = 0; k < e; ++k) {
    int piv = k;
    for (int r = k + 1; r < e; ++r)
      if (std::abs(at(r, k)) > std::abs(at(piv, k))) piv = r;
    std::swap(perm[static_cast<std::size_t>(k)], perm[static_cast<std::size_t>(piv)]);
    // rhs stays in VIRTUAL row order throughout (col[r] pairs with at(r, .)),
    // so exchanging virtual rows k and piv of the matrix exchanges rhs rows
    // k and piv — not the physical rows perm maps them to.
    for (auto& col : rhs)
      std::swap(col[static_cast<std::size_t>(k)], col[static_cast<std::size_t>(piv)]);
    QR3D_ASSERT(at(k, k) != 0.0, "coded_tsqr: singular recovery system");
    for (int r = k + 1; r < e; ++r) {
      const double l = at(r, k) / at(k, k);
      at(r, k) = 0.0;
      for (int c = k + 1; c < e; ++c) at(r, c) -= l * at(k, c);
      for (auto& col : rhs)
        col[static_cast<std::size_t>(r)] -= l * col[static_cast<std::size_t>(k)];
    }
  }
  for (auto& col : rhs) {
    for (int r = e - 1; r >= 0; --r) {
      double s = col[static_cast<std::size_t>(r)];
      for (int c = r + 1; c < e; ++c) s -= at(r, c) * col[static_cast<std::size_t>(c)];
      col[static_cast<std::size_t>(r)] = s / at(r, r);
    }
  }
}

}  // namespace

CodedTsqrResult coded_tsqr(backend::Comm& comm, la::ConstMatrixView A_local,
                           CodedTsqrOptions opts) {
  const int P = comm.size();
  const int me = comm.rank();
  const la::index_t n = A_local.cols();
  QR3D_CHECK(opts.f >= 1 && opts.f <= P, "coded_tsqr: f must be in [1, P]");
  const int keeper = P - 1;  // checksum home, off the tree root
  const std::size_t L = static_cast<std::size_t>(la::packed_upper_size(n));
  const int f = opts.f;

  core::detail::TsqrState s = core::detail::tsqr_leaf(comm, A_local);

  // The original local block, kept verbatim for the recovery round.
  const std::vector<double> packed0 = la::pack_upper(s.R.view());

  // --- Encode: f weighted checksums reduced to the keeper, one message. ----
  std::vector<double> checksums(static_cast<std::size_t>(f) * L);
  for (int j = 0; j < f; ++j) {
    const double w = weight(me, j, P);
    for (std::size_t i = 0; i < L; ++i) checksums[static_cast<std::size_t>(j) * L + i] = w * packed0[i];
  }
  comm.charge_flops(static_cast<double>(f) * static_cast<double>(L));
  coll::reduce(comm, keeper, checksums, coll::Alg::Binomial);

  // --- Upsweep: plain TSQR combines + one completeness word per message. ---
  bool complete = true;
  for (int mask = 1; mask < P; mask <<= 1) {
    if ((me & mask) != 0) {
      s.parent = me - mask;
      std::vector<double> payload;
      payload.reserve(1 + L);
      payload.push_back(complete ? 1.0 : 0.0);
      const std::vector<double> pr = la::pack_upper(s.R.view());
      payload.insert(payload.end(), pr.begin(), pr.end());
      comm.send(s.parent, std::move(payload), kTagUpsweep);
      break;
    }
    if (me + mask < P) {
      std::vector<double> payload;
      try {
        payload = comm.recv(me + mask, kTagUpsweep);
      } catch (const RankDeath&) {
        // Child's subtree is gone; continue with the partial aggregate and
        // let the status phase route everyone into recovery.
        complete = false;
        continue;
      }
      if (payload.front() != 1.0) complete = false;
      const la::Matrix Rq =
          la::unpack_upper(n, std::vector<double>(payload.begin() + 1, payload.end()));
      core::detail::tsqr_combine(comm, s, me + mask, Rq.view());
    }
  }

  // --- Status: root direct-sends the mode to every rank.  Direct (not via
  // the tree) so no survivor's status depends on an intermediate rank that
  // may have died after forwarding its aggregate. ---------------------------
  bool recovery;
  if (me == 0) {
    recovery = !complete;
    for (int p = 1; p < P; ++p) comm.send(p, {recovery ? 1.0 : 0.0}, kTagStatus);
  } else {
    // Root dead => RankDeath propagates: unrecoverable session failure.
    recovery = comm.recv(0, kTagStatus).front() == 1.0;
  }

  if (!recovery) {
    // Clean: core::tsqr's own finish, hence the bitwise zero-fault identity.
    CodedTsqrResult out;
    out.qr = core::detail::tsqr_finish(comm, std::move(s));
    return out;
  }

  // --- Recovery: rebuild R from the surviving blocks + checksums. ----------
  if (me != 0) {
    std::vector<double> payload = packed0;
    if (me == keeper) payload.insert(payload.end(), checksums.begin(), checksums.end());
    comm.send(0, std::move(payload), kTagRecover);

    const std::vector<double> fin = comm.recv(0, kTagFinal);
    const int e = static_cast<int>(fin.front());
    CodedTsqrResult out;
    out.recovered = true;
    for (int i = 0; i < e; ++i) out.lost.push_back(static_cast<int>(fin[1 + static_cast<std::size_t>(i)]));
    out.qr.R = la::unpack_upper(
        n, std::vector<double>(fin.begin() + 1 + e, fin.end()));
    return out;
  }

  // Root: collect every rank's original block; deaths surface per-recv.
  std::vector<std::vector<double>> blocks(static_cast<std::size_t>(P));
  blocks[0] = packed0;
  std::vector<double> C;
  std::vector<int> dead;
  for (int p = 1; p < P; ++p) {
    try {
      std::vector<double> payload = comm.recv(p, kTagRecover);
      blocks[static_cast<std::size_t>(p)].assign(payload.begin(),
                                                 payload.begin() + static_cast<std::ptrdiff_t>(L));
      if (p == keeper)
        C.assign(payload.begin() + static_cast<std::ptrdiff_t>(L), payload.end());
    } catch (const RankDeath&) {
      if (p == keeper)
        throw RankDeath(p, "coded_tsqr: checksum keeper (rank " + std::to_string(p) +
                               ") died; the run is unrecoverable");
      dead.push_back(p);
    }
  }
  const int e = static_cast<int>(dead.size());
  if (e > f)
    throw RankDeath(dead.front(), "coded_tsqr: " + std::to_string(e) + " ranks died but only " +
                                      std::to_string(f) + " checksums were encoded");

  if (e > 0) {
    // Subtract the surviving weighted blocks from the first e checksums; the
    // remainder is the e x e Vandermonde image of the dead blocks.
    std::vector<std::vector<double>> rhs(L, std::vector<double>(static_cast<std::size_t>(e)));
    for (int j = 0; j < e; ++j) {
      for (std::size_t i = 0; i < L; ++i) {
        double s = C[static_cast<std::size_t>(j) * L + i];
        for (int p = 0; p < P; ++p) {
          const auto& b = blocks[static_cast<std::size_t>(p)];
          if (!b.empty()) s -= weight(p, j, P) * b[i];
        }
        rhs[i][static_cast<std::size_t>(j)] = s;
      }
    }
    std::vector<double> M(static_cast<std::size_t>(e) * static_cast<std::size_t>(e));
    for (int j = 0; j < e; ++j)
      for (int i = 0; i < e; ++i)
        M[static_cast<std::size_t>(j * e + i)] = weight(dead[static_cast<std::size_t>(i)], j, P);
    solve_inplace(e, M, rhs);
    comm.charge_flops(2.0 * static_cast<double>(e) * static_cast<double>(P) * static_cast<double>(L) +
                      2.0 * static_cast<double>(e) * static_cast<double>(e) * static_cast<double>(L));
    for (int i = 0; i < e; ++i) {
      auto& b = blocks[static_cast<std::size_t>(dead[static_cast<std::size_t>(i)])];
      b.resize(L);
      for (std::size_t k = 0; k < L; ++k) b[k] = rhs[k][static_cast<std::size_t>(i)];
    }
  }

  la::Matrix stacked(static_cast<la::index_t>(P) * n, n);
  for (int p = 0; p < P; ++p) {
    la::Matrix Rp = la::unpack_upper(n, blocks[static_cast<std::size_t>(p)]);
    la::assign<double>(stacked.block(static_cast<la::index_t>(p) * n, 0, n, n), Rp.view());
  }
  la::Matrix Tl(n, n);
  la::geqrt(stacked.view(), Tl.view());
  comm.charge_flops(la::flops::geqrt(static_cast<la::index_t>(P) * n, n));
  la::Matrix Rtrue = la::extract_r<double>(stacked.view());

  std::vector<double> fin;
  fin.reserve(1 + static_cast<std::size_t>(e) + L);
  fin.push_back(static_cast<double>(e));
  for (int d : dead) fin.push_back(static_cast<double>(d));
  const std::vector<double> pt = la::pack_upper(Rtrue.view());
  fin.insert(fin.end(), pt.begin(), pt.end());
  for (int p = 1; p < P; ++p) {
    if (std::find(dead.begin(), dead.end(), p) != dead.end()) continue;
    comm.send(p, std::vector<double>(fin), kTagFinal);
  }

  CodedTsqrResult out;
  out.recovered = true;
  out.lost = std::move(dead);
  out.qr.R = std::move(Rtrue);
  return out;
}

}  // namespace qr3d::fault
