// Cache-blocked local kernels: packed tiled gemm with a register-tiled
// micro-kernel, and blocked trmm/trsm that turn the off-diagonal work into
// gemm calls.
//
// The right-side trsm X*op(T) = B — TSQR's V = W U^{-1} and CholeskyQR2's
// Q = A R^{-1}, where T is narrow (n <= 128 on the served shapes) — halves
// the triangle recursively down to leaves of at most 8 columns, sends every
// coupling block to gemm and solves each leaf with column axpys.  At
// 2048 x 64 it runs about 3x the reference nest (7 vs 2.2 GFLOP/s on a
// 4-vCPU Xeon VM); the left side keeps TB-block rows.
//
// Structure follows the classic Goto/BLIS decomposition: loop n in NC
// panels, k in KC depths, m in MC blocks; pack alpha*op(B) into NR-column
// strips and op(A) into MR-row strips (zero-padded, conjugation resolved at
// pack time so the micro-kernel is always a plain NoTrans product); the
// micro-kernel keeps an MR x NR accumulator tile in registers across the
// whole KC depth.  Per C element the depth index still increases
// monotonically across KC chunks, so the summation order matches the
// reference nest up to FMA contraction — tests/test_la.cpp pins the blocked
// kernels to the reference within a documented tolerance.
//
// CMake compiles this one translation unit with the host's native ISA when
// available (QR3D_KERNEL_NATIVE); the reference nests keep the portable
// flags so the oracle never changes underneath the comparison.
#include <algorithm>
#include <complex>
#include <vector>

#include "la/blas.hpp"

namespace qr3d::la::detail {

namespace {

// Blocking parameters, in scalars.  MR x NR is sized so the accumulator tile
// fits the vector register file for double: 8x8 keeps eight 8-wide (AVX-512)
// or sixteen 4-wide (AVX2) accumulator vectors live, measured fastest on
// both ISAs at -O2 (notably, -O3 pessimizes this kernel on GCC 12 — see
// QR3D_KERNEL_NATIVE in CMakeLists.txt).  MC x KC keeps the packed A block
// in L2.
constexpr index_t MR = 8;
constexpr index_t NR = 8;
constexpr index_t MC = 128;
constexpr index_t KC = 256;
constexpr index_t NC = 768;

/// Pack op(A)'s logical block rows [i0, i0+mc) x depth [p0, p0+kc) into
/// MR-row strips (strip-major, depth inner), zero-padding the last strip.
template <class T>
void pack_a(ConstMatrixViewT<T> A, Op opa, index_t i0, index_t mc, index_t p0, index_t kc,
            std::vector<T>& buf) {
  const index_t strips = (mc + MR - 1) / MR;
  buf.resize(static_cast<std::size_t>(strips * MR * kc));
  T* dst = buf.data();
  for (index_t s = 0; s < strips; ++s) {
    const index_t ib = i0 + s * MR;
    const index_t mr = std::min(MR, i0 + mc - ib);
    for (index_t l = 0; l < kc; ++l) {
      if (opa == Op::NoTrans) {
        for (index_t i = 0; i < mr; ++i) dst[l * MR + i] = A(ib + i, p0 + l);
      } else {
        for (index_t i = 0; i < mr; ++i) dst[l * MR + i] = conj_if(A(p0 + l, ib + i));
      }
      for (index_t i = mr; i < MR; ++i) dst[l * MR + i] = T{};
    }
    dst += MR * kc;
  }
}

/// Pack alpha*op(B)'s depth [p0, p0+kc) x logical cols [j0, j0+nc) into
/// NR-column strips (strip-major, depth inner), zero-padding the last strip.
template <class T>
void pack_b(ConstMatrixViewT<T> B, Op opb, T alpha, index_t p0, index_t kc, index_t j0,
            index_t nc, std::vector<T>& buf) {
  const index_t strips = (nc + NR - 1) / NR;
  buf.resize(static_cast<std::size_t>(strips * NR * kc));
  T* dst = buf.data();
  for (index_t s = 0; s < strips; ++s) {
    const index_t jb = j0 + s * NR;
    const index_t nr = std::min(NR, j0 + nc - jb);
    for (index_t l = 0; l < kc; ++l) {
      if (opb == Op::NoTrans) {
        for (index_t j = 0; j < nr; ++j) dst[l * NR + j] = alpha * B(p0 + l, jb + j);
      } else {
        for (index_t j = 0; j < nr; ++j) dst[l * NR + j] = alpha * conj_if(B(jb + j, p0 + l));
      }
      for (index_t j = nr; j < NR; ++j) dst[l * NR + j] = T{};
    }
    dst += NR * kc;
  }
}

/// Full-tile micro-kernel: C_tile += Ap_strip * Bp_strip over kc depths,
/// with the MR x NR accumulator initialized from C so each element's
/// summation order stays monotone in the depth index.
template <class T>
void micro_full(const T* ap, const T* bp, index_t kc, T* c, index_t ldc) {
  T acc[MR * NR];
  for (index_t j = 0; j < NR; ++j)
    for (index_t i = 0; i < MR; ++i) acc[j * MR + i] = c[i + j * ldc];
  for (index_t l = 0; l < kc; ++l) {
    const T* a = ap + l * MR;
    const T* b = bp + l * NR;
    for (index_t j = 0; j < NR; ++j) {
      const T blj = b[j];
      for (index_t i = 0; i < MR; ++i) acc[j * MR + i] += a[i] * blj;
    }
  }
  for (index_t j = 0; j < NR; ++j)
    for (index_t i = 0; i < MR; ++i) c[i + j * ldc] = acc[j * MR + i];
}

/// Edge micro-kernel (mr < MR or nr < NR): scalar accumulator chains.  The
/// packed strips are zero-padded, so reading the full MR/NR stride is safe.
template <class T>
void micro_edge(const T* ap, const T* bp, index_t kc, T* c, index_t ldc, index_t mr, index_t nr) {
  for (index_t j = 0; j < nr; ++j) {
    for (index_t i = 0; i < mr; ++i) {
      T t = c[i + j * ldc];
      for (index_t l = 0; l < kc; ++l) t += ap[l * MR + i] * bp[l * NR + j];
      c[i + j * ldc] = t;
    }
  }
}

template <class T>
std::vector<T>& pack_buffer_a() {
  thread_local std::vector<T> buf;
  return buf;
}
template <class T>
std::vector<T>& pack_buffer_b() {
  thread_local std::vector<T> buf;
  return buf;
}

/// Triangular block size for trmm/trsm: diagonal TB x TB blocks run the
/// reference nest, everything off-diagonal becomes gemm.
constexpr index_t TB = 64;

inline index_t nblocks(index_t n) { return (n + TB - 1) / TB; }
inline index_t bstart(index_t I) { return I * TB; }
inline index_t blen(index_t n, index_t I) { return std::min(TB, n - I * TB); }

}  // namespace

template <class T>
void gemm_blocked(T alpha, Op opa, ConstMatrixViewT<T> A, Op opb, ConstMatrixViewT<T> B, T beta,
                  MatrixViewT<T> C) {
  const index_t m = C.rows();
  const index_t n = C.cols();
  const index_t k = (opa == Op::NoTrans) ? A.cols() : A.rows();

  if (beta == T{0}) {
    set_zero(C);
  } else if (beta != T{1}) {
    scale(beta, C);
  }
  if (alpha == T{0} || k == 0 || m == 0 || n == 0) return;

  std::vector<T>& apack = pack_buffer_a<T>();
  std::vector<T>& bpack = pack_buffer_b<T>();

  for (index_t jc = 0; jc < n; jc += NC) {
    const index_t nc = std::min(NC, n - jc);
    const index_t nstrips = (nc + NR - 1) / NR;
    for (index_t pc = 0; pc < k; pc += KC) {
      const index_t kc = std::min(KC, k - pc);
      pack_b(B, opb, alpha, pc, kc, jc, nc, bpack);
      for (index_t ic = 0; ic < m; ic += MC) {
        const index_t mc = std::min(MC, m - ic);
        const index_t mstrips = (mc + MR - 1) / MR;
        pack_a(A, opa, ic, mc, pc, kc, apack);
        for (index_t t = 0; t < nstrips; ++t) {
          const index_t j0 = jc + t * NR;
          const index_t nr = std::min(NR, jc + nc - j0);
          const T* bp = bpack.data() + t * NR * kc;
          for (index_t s = 0; s < mstrips; ++s) {
            const index_t i0 = ic + s * MR;
            const index_t mr = std::min(MR, ic + mc - i0);
            const T* ap = apack.data() + s * MR * kc;
            T* c = &C(i0, j0);
            if (mr == MR && nr == NR) {
              micro_full(ap, bp, kc, c, C.ld());
            } else {
              micro_edge(ap, bp, kc, c, C.ld(), mr, nr);
            }
          }
        }
      }
    }
  }
}

namespace {

/// C_I += s * (op(Tri))_{IL} * B_L for Side::Left blocks, where (I, L) are
/// block coordinates in the triangle's *effective* (post-op) orientation.
template <class T>
void left_offdiag_gemm(T s, Op op, ConstMatrixViewT<T> Tri, index_t n, index_t I, index_t L,
                       ConstMatrixViewT<T> BL, MatrixViewT<T> BI) {
  if (op == Op::NoTrans) {
    gemm<T>(s, Op::NoTrans, Tri.block(bstart(I), bstart(L), blen(n, I), blen(n, L)), Op::NoTrans,
            BL, T{1}, BI);
  } else {
    gemm<T>(s, Op::ConjTrans, Tri.block(bstart(L), bstart(I), blen(n, L), blen(n, I)),
            Op::NoTrans, BL, T{1}, BI);
  }
}

/// B_J += s * B_L * (op(Tri))_{LJ} for Side::Right blocks (effective
/// orientation block coordinates again).
template <class T>
void right_offdiag_gemm(T s, Op op, ConstMatrixViewT<T> Tri, index_t n, index_t L, index_t J,
                        ConstMatrixViewT<T> BL, MatrixViewT<T> BJ) {
  if (op == Op::NoTrans) {
    gemm<T>(s, Op::NoTrans, BL, Op::NoTrans,
            Tri.block(bstart(L), bstart(J), blen(n, L), blen(n, J)), T{1}, BJ);
  } else {
    gemm<T>(s, Op::NoTrans, BL, Op::ConjTrans,
            Tri.block(bstart(J), bstart(L), blen(n, J), blen(n, L)), T{1}, BJ);
  }
}

}  // namespace

template <class T>
void trmm_blocked(Side side, Uplo uplo, Op op, Diag diag, T alpha, ConstMatrixViewT<T> Tri,
                  MatrixViewT<T> B) {
  const index_t n = Tri.rows();
  const index_t w = (side == Side::Left) ? B.cols() : B.rows();
  if (n <= TB || w == 0) {
    trmm_reference<T>(side, uplo, op, diag, alpha, Tri, B);
    return;
  }
  const bool eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
  const index_t nb = nblocks(n);

  auto diag_trmm = [&](index_t I, MatrixViewT<T> BI) {
    trmm_reference<T>(side, uplo, op, diag, alpha,
                      Tri.block(bstart(I), bstart(I), blen(n, I), blen(n, I)), BI);
  };

  if (side == Side::Left) {
    // B_I := alpha*T_II*B_I + sum_L alpha*op(T)_IL*B_L, ordered so every
    // consumed B_L is still unmodified.
    for (index_t step = 0; step < nb; ++step) {
      const index_t I = eff_upper ? step : nb - 1 - step;
      MatrixViewT<T> BI = B.block(bstart(I), 0, blen(n, I), B.cols());
      diag_trmm(I, BI);
      const index_t lo = eff_upper ? I + 1 : 0;
      const index_t hi = eff_upper ? nb : I;
      for (index_t L = lo; L < hi; ++L)
        left_offdiag_gemm<T>(alpha, op, Tri, n, I, L,
                             ConstMatrixViewT<T>(B.block(bstart(L), 0, blen(n, L), B.cols())), BI);
    }
  } else {
    // B_J := alpha*B_J*T_JJ + sum_L alpha*B_L*op(T)_LJ.
    for (index_t step = 0; step < nb; ++step) {
      const index_t J = eff_upper ? nb - 1 - step : step;
      MatrixViewT<T> BJ = B.block(0, bstart(J), B.rows(), blen(n, J));
      diag_trmm(J, BJ);
      const index_t lo = eff_upper ? 0 : J + 1;
      const index_t hi = eff_upper ? J : nb;
      for (index_t L = lo; L < hi; ++L)
        right_offdiag_gemm<T>(alpha, op, Tri, n, L, J,
                              ConstMatrixViewT<T>(B.block(0, bstart(L), B.rows(), blen(n, L))),
                              BJ);
    }
  }
}

namespace {

/// Columns at or below which the right-side trsm recursion stops halving.
constexpr index_t kTrsmLeaf = 8;

/// Solve X*op(Tri) = B in place by recursive halving: solve the half that
/// depends on nothing, subtract its coupling with the other half by gemm,
/// then solve the other half.  A leaf of <= kTrsmLeaf columns runs column
/// axpys in the reference nest's order.
template <class T>
void trsm_right(Uplo uplo, Op op, Diag diag, ConstMatrixViewT<T> Tri, MatrixViewT<T> B) {
  const index_t n = Tri.rows();
  const bool eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
  if (n <= kTrsmLeaf) {
    const index_t w = B.rows();
    auto t = [&](index_t i, index_t j) {
      return op == Op::NoTrans ? Tri(i, j) : conj_if(Tri(j, i));
    };
    for (index_t step = 0; step < n; ++step) {
      const index_t j = eff_upper ? step : n - 1 - step;
      T* bj = B.data() + j * B.ld();
      const index_t lo = eff_upper ? 0 : j + 1;
      const index_t hi = eff_upper ? j : n;
      for (index_t l = lo; l < hi; ++l) {
        const T tlj = t(l, j);
        const T* bl = B.data() + l * B.ld();
        for (index_t i = 0; i < w; ++i) bj[i] -= bl[i] * tlj;
      }
      if (diag == Diag::NonUnit) {
        const T tjj = t(j, j);
        for (index_t i = 0; i < w; ++i) bj[i] /= tjj;
      }
    }
    return;
  }
  // Split at a multiple of the leaf width so the gemm tiles stay full.
  const index_t n1 = std::max(kTrsmLeaf, n / 2 / kTrsmLeaf * kTrsmLeaf);
  const index_t n2 = n - n1;
  MatrixViewT<T> B1 = B.left_cols(n1);
  MatrixViewT<T> B2 = B.right_cols(n2);
  // The stored off-diagonal block; op() turns it into op(Tri)'s (1,2) block
  // when eff_upper and its (2,1) block otherwise.
  ConstMatrixViewT<T> off =
      uplo == Uplo::Lower ? Tri.block(n1, 0, n2, n1) : Tri.block(0, n1, n1, n2);
  if (eff_upper) {
    trsm_right<T>(uplo, op, diag, Tri.block(0, 0, n1, n1), B1);
    gemm<T>(T{-1}, Op::NoTrans, ConstMatrixViewT<T>(B1), op, off, T{1}, B2);
    trsm_right<T>(uplo, op, diag, Tri.block(n1, n1, n2, n2), B2);
  } else {
    trsm_right<T>(uplo, op, diag, Tri.block(n1, n1, n2, n2), B2);
    gemm<T>(T{-1}, Op::NoTrans, ConstMatrixViewT<T>(B2), op, off, T{1}, B1);
    trsm_right<T>(uplo, op, diag, Tri.block(0, 0, n1, n1), B1);
  }
}

}  // namespace

template <class T>
void trsm_blocked(Side side, Uplo uplo, Op op, Diag diag, T alpha, ConstMatrixViewT<T> Tri,
                  MatrixViewT<T> B) {
  const index_t n = Tri.rows();
  if (side == Side::Right) {
    if (B.rows() == 0) return;
    if (alpha != T{1}) scale(alpha, B);
    trsm_right<T>(uplo, op, diag, Tri, B);
    return;
  }
  if (n <= TB || B.cols() == 0) {
    trsm_reference<T>(side, uplo, op, diag, alpha, Tri, B);
    return;
  }
  const bool eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
  const index_t nb = nblocks(n);

  if (alpha != T{1}) scale(alpha, B);

  // Solve op(T)*X = B block row by block row: eliminate the already-solved
  // blocks with gemm, then solve the diagonal block.
  for (index_t step = 0; step < nb; ++step) {
    const index_t I = eff_upper ? nb - 1 - step : step;
    MatrixViewT<T> BI = B.block(bstart(I), 0, blen(n, I), B.cols());
    const index_t lo = eff_upper ? I + 1 : 0;
    const index_t hi = eff_upper ? nb : I;
    for (index_t L = lo; L < hi; ++L)
      left_offdiag_gemm<T>(T{-1}, op, Tri, n, I, L,
                           ConstMatrixViewT<T>(B.block(bstart(L), 0, blen(n, L), B.cols())), BI);
    trsm_reference<T>(side, uplo, op, diag, T{1},
                      Tri.block(bstart(I), bstart(I), blen(n, I), blen(n, I)), BI);
  }
}

#define QR3D_INSTANTIATE_BLOCKED(T)                                                        \
  template void gemm_blocked<T>(T, Op, ConstMatrixViewT<T>, Op, ConstMatrixViewT<T>, T,    \
                                MatrixViewT<T>);                                           \
  template void trmm_blocked<T>(Side, Uplo, Op, Diag, T, ConstMatrixViewT<T>,              \
                                MatrixViewT<T>);                                           \
  template void trsm_blocked<T>(Side, Uplo, Op, Diag, T, ConstMatrixViewT<T>,              \
                                MatrixViewT<T>);

QR3D_INSTANTIATE_BLOCKED(float)
QR3D_INSTANTIATE_BLOCKED(double)
QR3D_INSTANTIATE_BLOCKED(std::complex<double>)

#undef QR3D_INSTANTIATE_BLOCKED

}  // namespace qr3d::la::detail
