#include "core/tsqr.hpp"

#include <utility>
#include <vector>

#include "coll/coll.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/householder.hpp"
#include "la/lu.hpp"
#include "la/packing.hpp"
#include "la/triangular.hpp"

namespace qr3d::core {

namespace {

constexpr int kTagUpsweep = 8101;
constexpr int kTagDownsweep = 8102;

}  // namespace

DistributedQr tsqr(backend::Comm& comm, la::ConstMatrixView A_local) {
  detail::TsqrState s = detail::tsqr_leaf(comm, A_local);
  detail::tsqr_upsweep(comm, s);
  return detail::tsqr_finish(comm, std::move(s));
}

namespace detail {

TsqrState tsqr_leaf(backend::Comm& comm, la::ConstMatrixView A_local) {
  const la::index_t mp = A_local.rows();
  const la::index_t n = A_local.cols();
  QR3D_CHECK(mp >= n, "tsqr: every rank needs at least n rows (m/n >= P)");

  TsqrState s;
  la::Matrix F = la::copy<double>(A_local);
  s.T0 = la::Matrix(n, n);
  la::geqrt(F.view(), s.T0.view());
  s.V0 = la::extract_v<double>(F.view());
  s.R = la::extract_r<double>(F.view());
  comm.charge_flops(la::flops::geqrt(mp, n));
  return s;
}

void tsqr_combine(backend::Comm& comm, TsqrState& s, int child, la::ConstMatrixView R_child) {
  const la::index_t n = s.R.rows();
  la::Matrix stacked(2 * n, n);
  la::assign<double>(stacked.block(0, 0, n, n), s.R.view());
  la::assign<double>(stacked.block(n, 0, n, n), R_child);
  la::Matrix Tl(n, n);
  la::geqrt(stacked.view(), Tl.view());
  comm.charge_flops(la::flops::geqrt(2 * n, n));
  s.R = la::extract_r<double>(stacked.view());
  s.nodes.push_back(TsqrNode{child, la::extract_v<double>(stacked.view()), std::move(Tl)});
}

void tsqr_upsweep(backend::Comm& comm, TsqrState& s) {
  const int P = comm.size();
  const int me = comm.rank();
  for (int mask = 1; mask < P; mask <<= 1) {
    if ((me & mask) != 0) {
      s.parent = me - mask;
      comm.send(s.parent, la::pack_upper(s.R.view()), kTagUpsweep);
      return;
    }
    if (me + mask < P) {
      const la::Matrix Rq = la::unpack_upper(s.R.rows(), comm.recv(me + mask, kTagUpsweep));
      tsqr_combine(comm, s, me + mask, Rq.view());
    }
  }
}

DistributedQr tsqr_finish(backend::Comm& comm, TsqrState&& s) {
  const int me = comm.rank();
  const la::index_t mp = s.V0.rows();
  const la::index_t n = s.V0.cols();

  // --- Downsweep: push identity columns back down the tree. ----------------
  la::Matrix B;
  if (me == 0) {
    B = la::Matrix::identity(n);
  } else {
    B = la::from_vector(n, n, comm.recv(s.parent, kTagDownsweep));
  }
  for (auto it = s.nodes.rbegin(); it != s.nodes.rend(); ++it) {
    la::Matrix C(2 * n, n);
    la::assign<double>(C.block(0, 0, n, n), B.view());
    la::apply_q<double>(it->V.view(), it->T.view(), la::Op::NoTrans, C.view());
    comm.charge_flops(la::flops::larfb(2 * n, n, n));
    B = la::copy<double>(C.block(0, 0, n, n));
    comm.send(it->partner, la::to_vector(C.block(n, 0, n, n)), kTagDownsweep);
  }

  // W_p = local Q applied to [B_p; 0]: this rank's rows of the tree Q-factor's
  // leading n columns.
  la::Matrix W(mp, n);
  la::assign<double>(W.block(0, 0, n, n), B.view());
  la::apply_q<double>(s.V0.view(), s.T0.view(), la::Op::NoTrans, W.view());
  comm.charge_flops(la::flops::larfb(mp, n, n));

  // --- Householder reconstruction ([BDG+15]). ------------------------------
  // The root broadcasts U as soon as the LU is done; its own T solve, sign
  // flip and V solve then overlap every other rank's V solve.
  std::vector<double> u_flat(static_cast<std::size_t>(n * n));
  la::LuSignShift lu;
  if (me == 0) {
    lu = la::lu_sign_shift<double>(la::ConstMatrixView(W.block(0, 0, n, n)));
    comm.charge_flops(la::flops::lu(n));
    u_flat = la::to_vector(lu.U.view());
  }
  coll::broadcast(comm, 0, u_flat, coll::Alg::Binomial);

  DistributedQr out;
  if (me == 0) {
    // T = U S^H L^{-H}: scale U's columns by conj(S), then solve X L^H = US^H.
    la::Matrix Tk = la::copy<double>(lu.U.view());
    for (la::index_t j = 0; j < n; ++j)
      for (la::index_t i = 0; i <= j; ++i) Tk(i, j) *= lu.S[static_cast<std::size_t>(j)];
    la::trsm(la::Side::Right, la::Uplo::Lower, la::Op::ConjTrans, la::Diag::Unit, 1.0,
             lu.L.view(), Tk.view());
    comm.charge_flops(la::flops::trsm(n, n));
    la::make_triangular(la::Uplo::Upper, Tk.view());

    // R := -S^H R (flip row signs).
    for (la::index_t i = 0; i < n; ++i)
      for (la::index_t j = i; j < n; ++j) s.R(i, j) *= -lu.S[static_cast<std::size_t>(i)];

    // V's top block is L; the rest is W_2 U^{-1}.
    out.V = la::Matrix(mp, n);
    la::assign<double>(out.V.block(0, 0, n, n), lu.L.view());
    if (mp > n) {
      la::MatrixView lower = out.V.block(n, 0, mp - n, n);
      la::assign<double>(lower, W.block(n, 0, mp - n, n));
      la::trsm(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
               lu.U.view(), lower);
      comm.charge_flops(la::flops::trsm(n, mp - n));
    }
    out.T = std::move(Tk);
    out.R = std::move(s.R);
  } else {
    la::Matrix U = la::from_vector(n, n, u_flat);
    out.V = std::move(W);
    la::trsm(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0, U.view(),
             out.V.view());
    comm.charge_flops(la::flops::trsm(n, mp));
  }
  return out;
}

}  // namespace detail

}  // namespace qr3d::core
