// Unit tests for the dense linear-algebra substrate (src/la).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <type_traits>

#include "la/blas.hpp"
#include "la/checks.hpp"
#include "la/householder.hpp"
#include "la/lu.hpp"
#include "la/packing.hpp"
#include "la/qr_eg_serial.hpp"
#include "la/random.hpp"
#include "la/triangular.hpp"

namespace la = qr3d::la;
using la::index_t;

namespace {

la::Matrix naive_gemm(la::Op opa, const la::Matrix& A, la::Op opb, const la::Matrix& B) {
  const index_t m = (opa == la::Op::NoTrans) ? A.rows() : A.cols();
  const index_t k = (opa == la::Op::NoTrans) ? A.cols() : A.rows();
  const index_t n = (opb == la::Op::NoTrans) ? B.cols() : B.rows();
  la::Matrix C(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double a = (opa == la::Op::NoTrans) ? A(i, l) : A(l, i);
        const double b = (opb == la::Op::NoTrans) ? B(l, j) : B(j, l);
        s += a * b;
      }
      C(i, j) = s;
    }
  return C;
}

}  // namespace

TEST(Matrix, BasicAccessAndViews) {
  la::Matrix a(3, 2);
  a(0, 0) = 1.0;
  a(2, 1) = 5.0;
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 2);
  auto b = a.block(1, 1, 2, 1);
  EXPECT_EQ(b.rows(), 2);
  EXPECT_DOUBLE_EQ(b(1, 0), 5.0);
  b(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(a(1, 1), 7.0);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  la::Matrix a(3, 2);
  EXPECT_THROW(a.block(0, 0, 4, 1), std::invalid_argument);
  EXPECT_THROW(a.block(2, 1, 2, 1), std::invalid_argument);
}

TEST(Matrix, IdentityAndCopy) {
  la::Matrix I = la::Matrix::identity(4);
  la::Matrix J = la::copy<double>(I.view());
  EXPECT_EQ(I, J);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(I(i, j), i == j ? 1.0 : 0.0);
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaiveAllOpCombos) {
  auto [m, n, k] = GetParam();
  la::Matrix A = la::random_matrix(m, k, 1);
  la::Matrix At = la::random_matrix(k, m, 2);
  la::Matrix B = la::random_matrix(k, n, 3);
  la::Matrix Bt = la::random_matrix(n, k, 4);

  struct Case {
    la::Op opa, opb;
    const la::Matrix *a, *b;
  } cases[] = {
      {la::Op::NoTrans, la::Op::NoTrans, &A, &B},
      {la::Op::ConjTrans, la::Op::NoTrans, &At, &B},
      {la::Op::NoTrans, la::Op::ConjTrans, &A, &Bt},
      {la::Op::ConjTrans, la::Op::ConjTrans, &At, &Bt},
  };
  for (const auto& c : cases) {
    la::Matrix got = la::multiply<double>(c.opa, c.a->view(), c.opb, c.b->view());
    la::Matrix want = naive_gemm(c.opa, *c.a, c.opb, *c.b);
    EXPECT_LT(la::diff_norm(got.view(), want.view()), 1e-12 * (1.0 + la::frobenius_norm(want.view())));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 4, 5},
                                           std::tuple{8, 8, 8}, std::tuple{16, 3, 9},
                                           std::tuple{5, 17, 2}, std::tuple{32, 32, 1}));

TEST(Gemm, AlphaBetaAccumulation) {
  la::Matrix A = la::random_matrix(4, 3, 10);
  la::Matrix B = la::random_matrix(3, 5, 11);
  la::Matrix C0 = la::random_matrix(4, 5, 12);
  la::Matrix C = la::copy<double>(C0.view());
  la::gemm(2.0, la::Op::NoTrans, A.view(), la::Op::NoTrans, B.view(), 0.5, C.view());
  la::Matrix AB = naive_gemm(la::Op::NoTrans, A, la::Op::NoTrans, B);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 5; ++j)
      EXPECT_NEAR(C(i, j), 2.0 * AB(i, j) + 0.5 * C0(i, j), 1e-12);
}

TEST(Gemm, ShapeMismatchThrows) {
  la::Matrix A(3, 2), B(4, 3), C(3, 3);
  EXPECT_THROW(
      la::gemm(1.0, la::Op::NoTrans, A.view(), la::Op::NoTrans, B.view(), 0.0, C.view()),
      std::invalid_argument);
}

class TriangularOps : public ::testing::TestWithParam<std::tuple<la::Uplo, la::Op, la::Diag>> {};

TEST_P(TriangularOps, TrsmInvertsTrmm) {
  auto [uplo, op, diag] = GetParam();
  const index_t n = 7;
  la::Matrix T = la::random_matrix(n, n, 42);
  // Make it safely conditioned and exactly triangular.
  la::make_triangular(uplo, T.view());
  for (index_t i = 0; i < n; ++i) T(i, i) = 3.0 + i;

  la::Matrix B0 = la::random_matrix(n, 4, 43);
  la::Matrix B = la::copy<double>(B0.view());
  la::trmm(la::Side::Left, uplo, op, diag, 1.0, T.view(), B.view());
  la::trsm(la::Side::Left, uplo, op, diag, 1.0, T.view(), B.view());
  EXPECT_LT(la::diff_norm(B.view(), B0.view()), 1e-12);

  la::Matrix C = la::random_matrix(4, n, 44);
  la::Matrix C0 = la::copy<double>(C.view());
  la::trmm(la::Side::Right, uplo, op, diag, 1.0, T.view(), C.view());
  la::trsm(la::Side::Right, uplo, op, diag, 1.0, T.view(), C.view());
  EXPECT_LT(la::diff_norm(C.view(), C0.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TriangularOps,
    ::testing::Combine(::testing::Values(la::Uplo::Upper, la::Uplo::Lower),
                       ::testing::Values(la::Op::NoTrans, la::Op::ConjTrans),
                       ::testing::Values(la::Diag::NonUnit, la::Diag::Unit)));

TEST(Triangular, TrmmMatchesGemmOnTriangle) {
  const index_t n = 6;
  la::Matrix T = la::random_matrix(n, n, 7);
  la::make_triangular(la::Uplo::Upper, T.view());
  la::Matrix B = la::random_matrix(n, 3, 8);
  la::Matrix viaGemm = la::multiply<double>(la::Op::NoTrans, T.view(), la::Op::NoTrans, B.view());
  la::trmm(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0, T.view(),
           B.view());
  EXPECT_LT(la::diff_norm(B.view(), viaGemm.view()), 1e-12);
}

TEST(Triangular, InvertUpperAndLower) {
  const index_t n = 9;
  for (la::Uplo uplo : {la::Uplo::Upper, la::Uplo::Lower}) {
    la::Matrix T = la::random_matrix(n, n, 21);
    la::make_triangular(uplo, T.view());
    for (index_t i = 0; i < n; ++i) T(i, i) = 2.0 + 0.1 * static_cast<double>(i);
    la::Matrix Tinv = la::invert_triangular<double>(uplo, la::Diag::NonUnit, T.view());
    la::Matrix I = la::multiply<double>(la::Op::NoTrans, T.view(), la::Op::NoTrans, Tinv.view());
    la::Matrix E = la::Matrix::identity(n);
    EXPECT_LT(la::diff_norm(I.view(), E.view()), 1e-10);
    if (uplo == la::Uplo::Upper) {
      EXPECT_TRUE(la::is_upper_triangular(Tinv.view(), 0.0));
    }
  }
}

class HouseholderQr : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HouseholderQr, FactorsAreWellFormedAndReconstruct) {
  auto [m, n] = GetParam();
  la::Matrix A = la::random_matrix(m, n, 100 + m + n);
  la::QrFactors f = la::qr_factor<double>(A.view());

  EXPECT_TRUE(la::is_unit_lower_trapezoidal(f.V.view(), 0.0));
  EXPECT_TRUE(la::is_upper_triangular(f.T_.view(), 0.0));
  EXPECT_TRUE(la::is_upper_triangular(f.R.view(), 0.0));
  EXPECT_LT(la::qr_residual(A.view(), f.V.view(), f.T_.view(), f.R.view()), 1e-13);
  EXPECT_LT(la::orthogonality_loss(f.V.view(), f.T_.view()), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Shapes, HouseholderQr,
                         ::testing::Values(std::tuple{1, 1}, std::tuple{4, 4}, std::tuple{16, 4},
                                           std::tuple{64, 16}, std::tuple{100, 1},
                                           std::tuple{33, 32}, std::tuple{128, 64}));

TEST(HouseholderQr, RecomputeTMatchesFactorization) {
  // Section 2.3: T can be reconstructed from V alone.
  la::Matrix A = la::random_matrix(40, 12, 5);
  la::QrFactors f = la::qr_factor<double>(A.view());
  la::Matrix T2 = la::recompute_t<double>(f.V.view());
  EXPECT_LT(la::diff_norm(f.T_.view(), T2.view()), 1e-11);
}

TEST(HouseholderQr, ApplyQThenQHIsIdentity) {
  la::Matrix A = la::random_matrix(30, 10, 6);
  la::QrFactors f = la::qr_factor<double>(A.view());
  la::Matrix C0 = la::random_matrix(30, 7, 7);
  la::Matrix C = la::copy<double>(C0.view());
  la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::NoTrans, C.view());
  la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::ConjTrans, C.view());
  EXPECT_LT(la::diff_norm(C.view(), C0.view()), 1e-12);
}

TEST(HouseholderQr, QHAMatchesR) {
  // Q^H A == [R; 0].
  la::Matrix A = la::random_matrix(25, 8, 8);
  la::QrFactors f = la::qr_factor<double>(A.view());
  la::Matrix C = la::copy<double>(A.view());
  la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::ConjTrans, C.view());
  EXPECT_LT(la::diff_norm(C.block(0, 0, 8, 8), f.R.view()), 1e-12);
  EXPECT_LT(la::frobenius_norm(C.block(8, 0, 17, 8)), 1e-12);
}

TEST(HouseholderQr, ZeroColumnMatrix) {
  la::Matrix A(10, 3);  // all zeros
  la::QrFactors f = la::qr_factor<double>(A.view());
  EXPECT_LT(la::frobenius_norm(f.R.view()), 1e-15);
  EXPECT_LT(la::qr_residual(A.view(), f.V.view(), f.T_.view(), f.R.view()), 1e-13);
}

TEST(HouseholderQr, GradedMatrixStaysAccurate) {
  for (double cond : {1e2, 1e6, 1e10}) {
    la::Matrix A = la::graded_matrix(48, 12, cond, 9);
    la::QrFactors f = la::qr_factor<double>(A.view());
    EXPECT_LT(la::qr_residual(A.view(), f.V.view(), f.T_.view(), f.R.view()), 1e-12)
        << "cond=" << cond;
    EXPECT_LT(la::orthogonality_loss(f.V.view(), f.T_.view()), 1e-12) << "cond=" << cond;
  }
}

TEST(HouseholderQr, ComplexFactorization) {
  la::ZMatrix A = la::random_zmatrix(20, 6, 11);
  auto f = la::qr_factor<std::complex<double>>(A.view());
  // Reconstruct: C = Q * [R; 0] must equal A.
  la::ZMatrix C(20, 6);
  la::assign<std::complex<double>>(C.block(0, 0, 6, 6), f.R.view());
  la::apply_q<std::complex<double>>(f.V.view(), f.T_.view(), la::Op::NoTrans, C.view());
  double err = 0.0;
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 20; ++i) err += std::norm(C(i, j) - A(i, j));
  EXPECT_LT(std::sqrt(err), 1e-12);
  // T reconstruction also holds in the complex case.
  auto T2 = la::recompute_t<std::complex<double>>(f.V.view());
  double terr = 0.0;
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 6; ++i) terr += std::norm(T2(i, j) - f.T_(i, j));
  EXPECT_LT(std::sqrt(terr), 1e-11);
}

TEST(LuSignShift, FactorsAndDominance) {
  for (int n : {1, 2, 5, 12, 30}) {
    // X is the top block of an orthonormal factor, the regime TSQR uses.
    la::Matrix A = la::random_matrix(3 * n, n, 200 + n);
    la::QrFactors f = la::qr_factor<double>(A.view());
    la::Matrix Qn(3 * n, n);
    for (index_t j = 0; j < n; ++j) Qn(j, j) = 1.0;
    la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::NoTrans, Qn.view());
    la::Matrix X = la::copy<double>(Qn.block(0, 0, n, n));

    la::LuSignShift lu = la::lu_sign_shift<double>(X.view());
    // X + S == L * U.
    la::Matrix LU = la::multiply<double>(la::Op::NoTrans, lu.L.view(), la::Op::NoTrans, lu.U.view());
    la::Matrix XS = la::copy<double>(X.view());
    for (index_t i = 0; i < n; ++i) XS(i, i) += lu.S[static_cast<std::size_t>(i)];
    EXPECT_LT(la::diff_norm(LU.view(), XS.view()), 1e-12);
    EXPECT_TRUE(la::is_upper_triangular(lu.U.view(), 0.0));
    EXPECT_TRUE(la::is_unit_lower_trapezoidal(lu.L.view(), 0.0));
    // Signs are unit magnitude.
    for (auto s : lu.S) EXPECT_NEAR(std::abs(s), 1.0, 1e-15);
    // Implicit partial pivoting ([BDG+15] Lemma 6.2): |L| entries <= 1.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j + 1; i < n; ++i) EXPECT_LE(std::abs(lu.L(i, j)), 1.0 + 1e-12);
  }
}

TEST(Packing, MatrixRoundTrip) {
  la::Matrix A = la::random_matrix(5, 7, 31);
  auto v = la::to_vector(A.view());
  EXPECT_EQ(v.size(), 35u);
  la::Matrix B = la::from_vector(5, 7, v);
  EXPECT_EQ(A, B);
}

TEST(Packing, UpperTriangleRoundTrip) {
  la::Matrix A = la::random_matrix(6, 6, 32);
  la::make_triangular(la::Uplo::Upper, A.view());
  auto v = la::pack_upper(A.view());
  EXPECT_EQ(static_cast<la::index_t>(v.size()), la::packed_upper_size(6));
  la::Matrix B = la::unpack_upper(6, v);
  EXPECT_EQ(A, B);
}

TEST(Packing, ReadMatrixAdvancesOffset) {
  std::vector<double> buf = {1, 2, 3, 4, 5, 6};
  std::size_t off = 0;
  la::Matrix a = la::read_matrix(buf, off, 2, 1);
  la::Matrix b = la::read_matrix(buf, off, 2, 2);
  EXPECT_EQ(off, 6u);
  EXPECT_DOUBLE_EQ(a(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 6.0);
  EXPECT_THROW(la::read_matrix(buf, off, 1, 1), std::invalid_argument);
}

TEST(Random, DeterministicAndInRange) {
  la::Matrix a = la::random_matrix(10, 10, 77);
  la::Matrix b = la::random_matrix(10, 10, 77);
  EXPECT_EQ(a, b);
  EXPECT_LE(la::max_abs(a.view()), 1.0);
}

TEST(Random, GradedMatrixHasRequestedExtremes) {
  la::Matrix A = la::graded_matrix(40, 10, 1e8, 3);
  la::QrFactors f = la::qr_factor<double>(A.view());
  // |R(0,0)| ~ 1 and smallest |R(i,i)| ~ 1e-8 (QR of a graded matrix tracks
  // singular values loosely; order-of-magnitude check).
  double dmax = 0.0, dmin = 1e300;
  for (index_t i = 0; i < 10; ++i) {
    dmax = std::max(dmax, std::abs(f.R(i, i)));
    dmin = std::min(dmin, std::abs(f.R(i, i)));
  }
  EXPECT_GT(dmax, 0.1);
  EXPECT_LT(dmin, 1e-4);
}

// ---------------------------------------------------------------------------
// Serial recursive Elmroth-Gustavson QR (Section 2.4 / LAPACK _geqrt3).
// ---------------------------------------------------------------------------

class RecursiveQr : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RecursiveQr, MatchesUnblockedFactorization) {
  auto [m, n, threshold] = GetParam();
  la::Matrix A = la::random_matrix(m, n, 300 + m + n + threshold);
  la::QrFactors rec = la::qr_factor_recursive<double>(A.view(), threshold);
  la::QrFactors ref = la::qr_factor<double>(A.view());
  // Same reflectors in exact arithmetic: V, T, R agree to roundoff.
  EXPECT_LT(la::diff_norm(rec.V.view(), ref.V.view()), 1e-11 * (1.0 + la::frobenius_norm(ref.V.view())));
  EXPECT_LT(la::diff_norm(rec.T_.view(), ref.T_.view()), 1e-11 * (1.0 + la::frobenius_norm(ref.T_.view())));
  EXPECT_LT(la::diff_norm(rec.R.view(), ref.R.view()), 1e-11 * (1.0 + la::frobenius_norm(ref.R.view())));
  // And it is a valid QR in its own right.
  EXPECT_LT(la::qr_residual(A.view(), rec.V.view(), rec.T_.view(), rec.R.view()), 1e-13);
  EXPECT_LT(la::orthogonality_loss(rec.V.view(), rec.T_.view()), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RecursiveQr,
                         ::testing::Values(std::tuple{16, 8, 1}, std::tuple{16, 8, 2},
                                           std::tuple{40, 17, 3}, std::tuple{64, 33, 8},
                                           std::tuple{30, 30, 4}, std::tuple{50, 3, 16}));

TEST(RecursiveQr, ComplexScalars) {
  la::ZMatrix A = la::random_zmatrix(24, 10, 44);
  auto rec = la::qr_factor_recursive<std::complex<double>>(A.view(), 2);
  auto ref = la::qr_factor<std::complex<double>>(A.view());
  double err = 0.0;
  for (index_t j = 0; j < 10; ++j)
    for (index_t i = 0; i < 24; ++i) err += std::norm(rec.V(i, j) - ref.V(i, j));
  EXPECT_LT(std::sqrt(err), 1e-11);
}

// ---------------------------------------------------------------------------
// Kernel dispatch (la/kernel.hpp) and blocked-vs-reference exactness.
//
// The blocked kernels keep each output element's summation monotone in the
// inner (depth) index, but re-associate across block boundaries and may fuse
// multiply-adds differently (the blocked TU is compiled for the host ISA).
// The documented contract is therefore agreement with the reference nest to
// a roundoff-level tolerance — diff <= 1e-11 * (1 + |reference|_F) on every
// shape — not bitwise equality.  Bitwise determinism is still guaranteed
// within a process (one kernel mode, one code path), which is what the
// sim<->thread conformance suite pins.
// ---------------------------------------------------------------------------

namespace {

/// Temporarily force a kernel mode; restores the previous one on scope exit
/// so test order cannot leak modes across cases.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(la::KernelMode m) : saved_(la::kernel_mode()) {
    la::set_kernel_mode(m);
  }
  ~ScopedKernelMode() { la::set_kernel_mode(saved_); }

 private:
  la::KernelMode saved_;
};

template <class T>
double rel_diff(const la::MatrixT<T>& got, const la::MatrixT<T>& want) {
  double err = 0.0, ref = 0.0;
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i) {
      const double d = static_cast<double>(got(i, j)) - static_cast<double>(want(i, j));
      err += d * d;
      ref += static_cast<double>(want(i, j)) * static_cast<double>(want(i, j));
    }
  return std::sqrt(err) / (1.0 + std::sqrt(ref));
}

}  // namespace

TEST(KernelMode, SetAndQueryRoundTrip) {
  const la::KernelMode before = la::kernel_mode();
  la::set_kernel_mode(la::KernelMode::Reference);
  EXPECT_EQ(la::kernel_mode(), la::KernelMode::Reference);
  EXPECT_STREQ(la::active_kernel_name(), "reference");
  la::set_kernel_mode(la::KernelMode::Blocked);
  EXPECT_EQ(la::kernel_mode(), la::KernelMode::Blocked);
  if (!la::blas_available()) {
    EXPECT_THROW(la::set_kernel_mode(la::KernelMode::Blas), std::invalid_argument);
  } else {
    la::set_kernel_mode(la::KernelMode::Blas);
    EXPECT_EQ(la::kernel_mode(), la::KernelMode::Blas);
  }
  la::set_kernel_mode(before);
}

class BlockedGemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockedGemmShapes, MatchesReferenceAllOpsAlphaBeta) {
  auto [m, n, k] = GetParam();
  la::Matrix A = la::random_matrix(m, k, 91);
  la::Matrix At = la::random_matrix(k, m, 92);
  la::Matrix B = la::random_matrix(k, n, 93);
  la::Matrix Bt = la::random_matrix(n, k, 94);
  la::Matrix C0 = la::random_matrix(m, n, 95);

  struct Case {
    la::Op opa, opb;
    const la::Matrix *a, *b;
  } cases[] = {
      {la::Op::NoTrans, la::Op::NoTrans, &A, &B},
      {la::Op::ConjTrans, la::Op::NoTrans, &At, &B},
      {la::Op::NoTrans, la::Op::ConjTrans, &A, &Bt},
      {la::Op::ConjTrans, la::Op::ConjTrans, &At, &Bt},
  };
  for (const auto& c : cases) {
    for (auto [alpha, beta] : {std::pair{1.0, 0.0}, {2.0, 1.0}, {-0.5, 0.25}}) {
      la::Matrix want = la::copy<double>(C0.view());
      la::gemm_reference(alpha, c.opa, la::ConstMatrixView(c.a->view()), c.opb,
                         la::ConstMatrixView(c.b->view()), beta, want.view());
      la::Matrix got = la::copy<double>(C0.view());
      la::detail::gemm_blocked(alpha, c.opa, la::ConstMatrixView(c.a->view()), c.opb,
                               la::ConstMatrixView(c.b->view()), beta, got.view());
      EXPECT_LT(rel_diff(got, want), 1e-11);
    }
  }
}

// Shapes straddle every blocking boundary: micro-tile remainders (MR=NR=8),
// the KC=256 depth split, the MC=128 row split, and tiny/tall/wide cases.
INSTANTIATE_TEST_SUITE_P(Shapes, BlockedGemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{7, 9, 5},
                                           std::tuple{64, 64, 64}, std::tuple{65, 48, 130},
                                           std::tuple{129, 67, 255}, std::tuple{100, 3, 300},
                                           std::tuple{3, 100, 257}, std::tuple{131, 131, 131}));

TEST(BlockedKernels, ComplexGemmMatchesReference) {
  // ConjTrans on complex data: the conjugation is resolved at pack time in
  // the blocked path, so this pins that against the reference element map.
  la::ZMatrix A = la::random_zmatrix(70, 90, 96);
  la::ZMatrix B = la::random_zmatrix(65, 90, 97);
  la::ZMatrix want(70, 65), got(70, 65);
  const std::complex<double> one{1.0, 0.0};
  const std::complex<double> zero{0.0, 0.0};
  la::gemm_reference(one, la::Op::NoTrans, la::ZConstMatrixView(A.view()), la::Op::ConjTrans,
                     la::ZConstMatrixView(B.view()), zero, want.view());
  la::detail::gemm_blocked(one, la::Op::NoTrans, la::ZConstMatrixView(A.view()),
                           la::Op::ConjTrans, la::ZConstMatrixView(B.view()), zero, got.view());
  double err = 0.0, ref = 0.0;
  for (index_t j = 0; j < 65; ++j)
    for (index_t i = 0; i < 70; ++i) {
      err += std::norm(got(i, j) - want(i, j));
      ref += std::norm(want(i, j));
    }
  EXPECT_LT(std::sqrt(err), 1e-11 * (1.0 + std::sqrt(ref)));
}

class BlockedTriangular
    : public ::testing::TestWithParam<std::tuple<la::Side, la::Uplo, la::Op, la::Diag>> {};

namespace {

template <class T>
la::MatrixT<T> cast_matrix(const la::Matrix& a) {
  la::MatrixT<T> out(a.rows(), a.cols());
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) out(i, j) = static_cast<T>(a(i, j));
  return out;
}

/// Blocked trmm and trsm against the reference nests at one shape.
template <class T>
void check_blocked_triangular(la::Side side, la::Uplo uplo, la::Op op, la::Diag diag, index_t n,
                              index_t w, double tol) {
  SCOPED_TRACE("n=" + std::to_string(n) + " w=" + std::to_string(w) +
               (std::is_same_v<T, float> ? " float" : " double"));
  la::Matrix Td = la::random_matrix(n, n, 98);
  la::make_triangular(uplo, Td.view());
  for (index_t i = 0; i < n; ++i) Td(i, i) = 3.0 + 0.01 * static_cast<double>(i);
  const la::MatrixT<T> Tri = cast_matrix<T>(Td);
  const index_t rows = (side == la::Side::Left) ? n : w;
  const index_t cols = (side == la::Side::Left) ? w : n;
  const la::MatrixT<T> B0 = cast_matrix<T>(la::random_matrix(rows, cols, 99));

  la::MatrixT<T> want = la::copy<T>(B0.view());
  la::trmm_reference<T>(side, uplo, op, diag, T{1.5}, Tri.view(), want.view());
  la::MatrixT<T> got = la::copy<T>(B0.view());
  la::detail::trmm_blocked<T>(side, uplo, op, diag, T{1.5}, Tri.view(), got.view());
  EXPECT_LT(rel_diff(got, want), tol);

  want = la::copy<T>(B0.view());
  la::trsm_reference<T>(side, uplo, op, diag, T{0.5}, Tri.view(), want.view());
  got = la::copy<T>(B0.view());
  la::detail::trsm_blocked<T>(side, uplo, op, diag, T{0.5}, Tri.view(), got.view());
  EXPECT_LT(rel_diff(got, want), tol);
}

}  // namespace

TEST_P(BlockedTriangular, TrmmAndTrsmMatchReference) {
  auto [side, uplo, op, diag] = GetParam();
  // Triangles around the right-side trsm's 8-column leaves and the TB = 64
  // diagonal blocks (130 crosses that boundary twice with remainder), against
  // a narrow and a tall panel.  Float runs too: CholeskyQR2's first pass
  // solves in float.
  for (index_t n : {1, 7, 8, 9, 31, 32, 33, 64, 65, 130})
    for (index_t w : {37, 2048}) {
      check_blocked_triangular<double>(side, uplo, op, diag, n, w, 1e-11);
      check_blocked_triangular<float>(side, uplo, op, diag, n, w, 1e-5);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, BlockedTriangular,
    ::testing::Combine(::testing::Values(la::Side::Left, la::Side::Right),
                       ::testing::Values(la::Uplo::Upper, la::Uplo::Lower),
                       ::testing::Values(la::Op::NoTrans, la::Op::ConjTrans),
                       ::testing::Values(la::Diag::NonUnit, la::Diag::Unit)));

TEST(BlockedGeqrt, MatchesUnblockedFactorization) {
  // m x n with n well past the 32-column panel width: three panels plus a
  // remainder, every T-coupling path exercised.
  for (auto [m, n] : {std::pair<index_t, index_t>{200, 96}, {150, 100}, {97, 33}}) {
    la::Matrix A = la::random_matrix(m, n, 300 + static_cast<unsigned>(m));

    la::Matrix Fref = la::copy<double>(A.view());
    la::Matrix Tref(n, n);
    {
      ScopedKernelMode mode(la::KernelMode::Reference);
      la::geqrt(Fref.view(), Tref.view());
    }
    la::Matrix Fblk = la::copy<double>(A.view());
    la::Matrix Tblk(n, n);
    {
      ScopedKernelMode mode(la::KernelMode::Blocked);
      la::geqrt(Fblk.view(), Tblk.view());
    }

    // Same reflectors up to roundoff, and a valid factorization in its own
    // right (the tighter residual checks).
    EXPECT_LT(rel_diff(Fblk, Fref), 1e-10);
    EXPECT_LT(rel_diff(Tblk, Tref), 1e-10);
    la::Matrix V = la::extract_v<double>(la::ConstMatrixView(Fblk.view()));
    la::Matrix R = la::extract_r<double>(la::ConstMatrixView(Fblk.view()));
    EXPECT_LT(la::qr_residual(A.view(), V.view(), Tblk.view(), R.view()), 1e-12);
    EXPECT_LT(la::orthogonality_loss(V.view(), Tblk.view()), 1e-12);
  }
}

TEST(BlockedGeqrt, ComplexMatchesUnblockedFactorization) {
  // The blocked path is the default for complex factorizations wider than
  // the 32-column panel, and its T-coupling (W = A^H V trmm chain) is
  // conjugation-sensitive — pin it to the unblocked nest like the double
  // case above.
  const index_t m = 150, n = 80;
  la::ZMatrix A = la::random_zmatrix(m, n, 88);

  la::ZMatrix Fref = la::copy<std::complex<double>>(la::ZConstMatrixView(A.view()));
  la::ZMatrix Tref(n, n);
  {
    ScopedKernelMode mode(la::KernelMode::Reference);
    la::geqrt(Fref.view(), Tref.view());
  }
  la::ZMatrix Fblk = la::copy<std::complex<double>>(la::ZConstMatrixView(A.view()));
  la::ZMatrix Tblk(n, n);
  {
    ScopedKernelMode mode(la::KernelMode::Blocked);
    la::geqrt(Fblk.view(), Tblk.view());
  }

  double ferr = 0.0, terr = 0.0, fnorm = 0.0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      ferr += std::norm(Fblk(i, j) - Fref(i, j));
      fnorm += std::norm(Fref(i, j));
    }
    for (index_t i = 0; i < n; ++i) terr += std::norm(Tblk(i, j) - Tref(i, j));
  }
  EXPECT_LT(std::sqrt(ferr), 1e-10 * (1.0 + std::sqrt(fnorm)));
  EXPECT_LT(std::sqrt(terr), 1e-10);

  // And the blocked factors reconstruct A: C = Q * [R; 0] == A.
  la::ZMatrix V = la::extract_v<std::complex<double>>(la::ZConstMatrixView(Fblk.view()));
  la::ZMatrix R = la::extract_r<std::complex<double>>(la::ZConstMatrixView(Fblk.view()));
  la::ZMatrix C(m, n);
  la::assign<std::complex<double>>(C.block(0, 0, n, n), R.view());
  la::apply_q<std::complex<double>>(V.view(), Tblk.view(), la::Op::NoTrans, C.view());
  double rerr = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) rerr += std::norm(C(i, j) - A(i, j));
  EXPECT_LT(std::sqrt(rerr), 1e-11 * (1.0 + std::sqrt(fnorm)));
}

TEST(BlockedGeqrt, PublicEntryPointsFollowKernelMode) {
  // qr_factor (and everything above it) must produce a valid factorization
  // under every available mode; this is the dispatch wiring check.
  la::Matrix A = la::random_matrix(120, 70, 7);
  std::vector<la::KernelMode> modes = {la::KernelMode::Reference, la::KernelMode::Blocked};
  if (la::blas_available()) modes.push_back(la::KernelMode::Blas);
  for (la::KernelMode m : modes) {
    ScopedKernelMode mode(m);
    la::QrFactors f = la::qr_factor<double>(A.view());
    EXPECT_LT(la::qr_residual(A.view(), f.V.view(), f.T_.view(), f.R.view()), 1e-12)
        << la::kernel_mode_name(m);
    EXPECT_LT(la::orthogonality_loss(f.V.view(), f.T_.view()), 1e-12) << la::kernel_mode_name(m);
  }
}
