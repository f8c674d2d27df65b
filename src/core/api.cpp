#include "core/api.hpp"

#include "coll/coll.hpp"
#include "core/dist_matrix.hpp"
#include "cost/tuner.hpp"
#include "la/flops.hpp"
#include "la/packing.hpp"
#include "la/triangular.hpp"
#include "mm/mm_3d.hpp"
#include "mm/redistribute.hpp"

namespace qr3d::core {

CaqrEg3dOptions resolve_algorithm(la::index_t m, la::index_t n, int P, Algorithm alg,
                                  CaqrEg3dOptions params) {
  switch (alg) {
    case Algorithm::BaseCase:
      params.b = n;  // immediate base case: conversion + 1D-CAQR-EG
      break;
    case Algorithm::Auto:
      if (m / std::max<la::index_t>(1, n) >= P) {
        // Section 1: aspect ratio at least P — go straight to the base case.
        params.b = n;
      }
      break;
    case Algorithm::CaqrEg3d:
      break;
  }
  return params;
}

CyclicQr qr(backend::Comm& comm, la::ConstMatrixView A_local, la::index_t m, la::index_t n,
            QrOptions opts) {
  const int P = comm.size();
  CaqrEg3dOptions params = resolve_algorithm(m, n, P, opts.algorithm, opts.params);

  if (opts.tune_for_machine && params.b == 0) {
    const cost::Tuned3d t = cost::tune_3d(static_cast<double>(m), static_cast<double>(n), P,
                                          comm.params());
    params.delta = t.delta;
    params.epsilon = t.epsilon;
  }
  return caqr_eg_3d(comm, A_local, m, n, params);
}

la::Matrix apply_q_cyclic(backend::Comm& comm, const la::Matrix& V_local, const la::Matrix& T_local,
                          la::index_t m, la::index_t n, const la::Matrix& X_local, la::index_t k,
                          la::Op op) {
  const int me = comm.rank();
  const la::index_t mp = mm::CyclicRows(m, k, comm.size(), 0).local_rows(me);
  const mm::CyclicRows lay_t(n, n, comm.size(), 0);
  const la::index_t tp = lay_t.local_rows(me);
  QR3D_CHECK(X_local.rows() == mp && X_local.cols() == k, "apply_q_cyclic: X layout mismatch");
  QR3D_CHECK(V_local.rows() == mp && V_local.cols() == n, "apply_q_cyclic: V layout mismatch");
  QR3D_CHECK(T_local.rows() == tp && T_local.cols() == n, "apply_q_cyclic: T layout mismatch");

  // M1 = V^H X: a local gemm over my rows, then one n x k all-reduce.
  la::Matrix M1 =
      la::multiply<double>(la::Op::ConjTrans, V_local.view(), la::Op::NoTrans, X_local.view());
  comm.charge_flops(la::flops::gemm(n, k, mp));
  std::vector<double> flat = la::to_vector(M1.view());
  coll::all_reduce(comm, flat);
  M1 = la::from_vector(n, k, flat);

  // M2 = op(T) M1 from my rows of T (global rows me, me + P, ...).  NoTrans
  // yields those rows of M2; ConjTrans yields the sum over those rows of
  // T(i, :)^H M1(i, :).  Either way my share sits in a zero n x k buffer and
  // a second all-reduce completes M2 everywhere.
  la::Matrix M2(n, k);
  if (op == la::Op::NoTrans) {
    la::Matrix mine =
        la::multiply<double>(la::Op::NoTrans, T_local.view(), la::Op::NoTrans, M1.view());
    for (la::index_t j = 0; j < k; ++j)
      for (la::index_t li = 0; li < tp; ++li) M2(lay_t.global_row(me, li), j) = mine(li, j);
  } else {
    la::Matrix mine(tp, k);
    for (la::index_t j = 0; j < k; ++j)
      for (la::index_t li = 0; li < tp; ++li) mine(li, j) = M1(lay_t.global_row(me, li), j);
    la::gemm(1.0, la::Op::ConjTrans, T_local.view(), la::Op::NoTrans, mine.view(), 0.0,
             M2.view());
  }
  comm.charge_flops(la::flops::gemm(tp, k, n));
  flat = la::to_vector(M2.view());
  coll::all_reduce(comm, flat);
  M2 = la::from_vector(n, k, flat);

  // Y = X - V M2, local.
  la::Matrix Y = la::copy<double>(X_local.view());
  la::gemm(-1.0, la::Op::NoTrans, V_local.view(), la::Op::NoTrans, M2.view(), 1.0, Y.view());
  comm.charge_flops(la::flops::gemm(mp, k, n));
  return Y;
}

la::Matrix apply_q_cyclic(backend::Comm& comm, const CyclicQr& f, la::index_t m, la::index_t n,
                          const la::Matrix& X_local, la::index_t k, la::Op op) {
  return apply_q_cyclic(comm, f.V, f.T, m, n, X_local, k, op);
}

la::Matrix gather_to_root(backend::Comm& comm, const la::Matrix& local, la::index_t rows,
                          la::index_t cols) {
  return DistMatrix::gather_local(comm, local.view(), rows, cols, Dist::CyclicRows, 0);
}

la::Matrix rebuild_kernel_cyclic(backend::Comm& comm, const la::Matrix& V_local, la::index_t m,
                                 la::index_t n) {
  const int P = comm.size();
  const mm::CyclicRows lay_v(m, n, P, 0);
  const mm::CyclicCols lay_vh(n, m, P, 0);
  const mm::CyclicRows lay_g(n, n, P, 0);
  QR3D_CHECK(V_local.rows() == lay_v.local_rows(comm.rank()) && V_local.cols() == n,
             "rebuild_kernel_cyclic: V layout mismatch");

  // G = V^H V (3D multiplication), gathered to rank 0.
  auto g_buf = mm::mm_3d(comm, n, n, m, lay_vh, la::to_vector_rowmajor(V_local.view()), lay_v,
                         la::to_vector(V_local.view()), lay_g);
  la::Matrix G = gather_to_root(comm, mm::unpack_rows(lay_g, comm.rank(), g_buf), n, n);

  // T = (strict_upper(G) + diag(G)/2)^{-1} on the root, then scatter.
  la::Matrix T_full(n, n);
  if (comm.rank() == 0) {
    la::Matrix Tinv(n, n);
    for (la::index_t j = 0; j < n; ++j) {
      Tinv(j, j) = G(j, j) / 2.0;
      for (la::index_t i = 0; i < j; ++i) Tinv(i, j) = G(i, j);
    }
    T_full = la::invert_triangular<double>(la::Uplo::Upper, la::Diag::NonUnit,
                                           la::ConstMatrixView(Tinv.view()));
    comm.charge_flops(la::flops::trtri(n));
  }
  std::vector<double> flat = la::to_vector(T_full.view());
  coll::broadcast(comm, 0, flat);
  T_full = la::from_vector(n, n, flat);

  // Keep my row-cyclic slice.
  la::Matrix T_local(lay_g.local_rows(comm.rank()), n);
  for (la::index_t li = 0; li < T_local.rows(); ++li)
    for (la::index_t j = 0; j < n; ++j)
      T_local(li, j) = T_full(lay_g.global_row(comm.rank(), li), j);
  return T_local;
}

}  // namespace qr3d::core
