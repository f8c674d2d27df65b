// Tests for the core QR algorithms: TSQR (Section 5 / Appendix C),
// 1D-CAQR-EG (Section 6) and 3D-CAQR-EG (Section 7).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "accuracy.hpp"
#include "core/caqr_eg_1d.hpp"
#include "core/caqr_eg_3d.hpp"
#include "core/dist_matrix.hpp"
#include "core/params.hpp"
#include "core/tsqr.hpp"
#include "la/checks.hpp"
#include "la/householder.hpp"
#include "la/random.hpp"
#include "mm/layout.hpp"
#include "sim/machine.hpp"

namespace core = qr3d::core;
namespace la = qr3d::la;
namespace mm = qr3d::mm;
namespace backend = qr3d::backend;
namespace sim = qr3d::sim;
using la::index_t;

namespace {

/// Balanced block-row distribution with rank 0 holding the top rows.
std::vector<index_t> block_starts(index_t m, int P) {
  mm::BlockRows b = mm::BlockRows::balanced(m, 1, P);
  std::vector<index_t> starts(static_cast<std::size_t>(P) + 1);
  for (int p = 0; p <= P; ++p)
    starts[static_cast<std::size_t>(p)] = p == P ? m : b.row_start(p);
  return starts;
}

la::Matrix rows_slice(const la::Matrix& a, index_t i0, index_t i1) {
  return la::copy<double>(a.block(i0, 0, i1 - i0, a.cols()));
}

struct Assembled {
  la::Matrix V, T, R;
};

/// Run a 1D algorithm (TSQR or 1D-CAQR-EG) on a block-row distributed A and
/// reassemble the full factors.
template <class Fn>
Assembled run_1d(const la::Matrix& A, int P, Fn&& algo) {
  const index_t m = A.rows();
  const auto starts = block_starts(m, P);
  sim::Machine machine(P);
  std::vector<la::Matrix> vs(P);
  Assembled out;
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = rows_slice(A, starts[c.rank()], starts[c.rank() + 1]);
    core::DistributedQr r = algo(c, la::ConstMatrixView(Al.view()));
    vs[c.rank()] = std::move(r.V);
    if (c.rank() == 0) {
      out.T = std::move(r.T);
      out.R = std::move(r.R);
    }
  });
  out.V = la::Matrix(m, A.cols());
  for (int p = 0; p < P; ++p)
    la::assign<double>(out.V.block(starts[p], 0, starts[p + 1] - starts[p], A.cols()),
                       vs[p].view());
  return out;
}

void expect_valid_qr(const la::Matrix& A, const Assembled& f, double tol = 1e-11) {
  const index_t n = A.cols();
  ASSERT_EQ(f.V.rows(), A.rows());
  ASSERT_EQ(f.V.cols(), n);
  ASSERT_EQ(f.T.rows(), n);
  ASSERT_EQ(f.R.rows(), n);
  EXPECT_TRUE(la::is_unit_lower_trapezoidal(f.V.view(), 1e-12));
  EXPECT_TRUE(la::is_upper_triangular(f.T.view(), 1e-12));
  EXPECT_TRUE(la::is_upper_triangular(f.R.view(), 1e-12));
  EXPECT_LT(qr3d::tests::residual_error(A.view(), f.V.view(), f.T.view(), f.R.view()), tol);
  EXPECT_LT(qr3d::tests::orthogonality_error(f.V.view(), f.T.view()), tol);
}

/// |R| must match the reference local QR's |R| (QR is unique up to row signs
/// for full-rank A).
void expect_r_matches_reference(const la::Matrix& A, const la::Matrix& R, double tol = 1e-9) {
  la::QrFactors ref = la::qr_factor<double>(A.view());
  const index_t n = A.cols();
  double err = 0.0, scale = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i; j < n; ++j) {
      err += std::pow(std::abs(R(i, j)) - std::abs(ref.R(i, j)), 2);
      scale += std::pow(ref.R(i, j), 2);
    }
  EXPECT_LT(std::sqrt(err), tol * (1.0 + std::sqrt(scale)));
}

}  // namespace

// ---------------------------------------------------------------------------
// TSQR
// ---------------------------------------------------------------------------

class TsqrCase : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TsqrCase, FactorsReconstructAndAreOrthogonal) {
  auto [m, n, P] = GetParam();
  la::Matrix A = la::random_matrix(m, n, 1000 + m + n + P);
  Assembled f = run_1d(A, P, [](backend::Comm& c, la::ConstMatrixView Al) {
    return core::tsqr(c, Al);
  });
  expect_valid_qr(A, f);
  expect_r_matches_reference(A, f.R);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TsqrCase,
    ::testing::Values(std::tuple{8, 4, 1}, std::tuple{16, 4, 2}, std::tuple{48, 6, 4},
                      std::tuple{64, 8, 7}, std::tuple{96, 12, 8}, std::tuple{80, 5, 16},
                      std::tuple{36, 3, 12}, std::tuple{17, 1, 13}, std::tuple{128, 2, 5}));

TEST(Tsqr, GradedMatrixStaysStable) {
  la::Matrix A = la::graded_matrix(96, 8, 1e10, 7);
  Assembled f = run_1d(A, 8, [](backend::Comm& c, la::ConstMatrixView Al) {
    return core::tsqr(c, Al);
  });
  expect_valid_qr(A, f, 1e-10);
}

TEST(Tsqr, CostsMatchLemma5) {
  // Lemma 5: flops O(max_p m_p n^2 + n^3 log P), words O(n^2 log P),
  // messages O(log P).
  const index_t n = 8;
  for (int P : {4, 16, 64}) {
    const index_t m = static_cast<index_t>(P) * 4 * n;
    la::Matrix A = la::random_matrix(m, n, 31);
    const auto starts = block_starts(m, P);
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = rows_slice(A, starts[c.rank()], starts[c.rank() + 1]);
      core::tsqr(c, la::ConstMatrixView(Al.view()));
    });
    const double L = core::log2_ceil(P);
    const auto cp = machine.critical_path();
    const double mp = static_cast<double>(m) / P + n;
    EXPECT_LE(cp.flops, 12.0 * (mp * n * n + static_cast<double>(n * n * n) * L)) << "P=" << P;
    EXPECT_LE(cp.words, 8.0 * static_cast<double>(n * n) * L) << "P=" << P;
    EXPECT_LE(cp.msgs, 8.0 * L) << "P=" << P;
  }
}

TEST(Tsqr, RejectsShortLocalBlocks) {
  sim::Machine machine(4);
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    la::Matrix Al = la::random_matrix(3, 5, 1);  // m_p < n
    core::tsqr(c, la::ConstMatrixView(Al.view()));
  }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 1D-CAQR-EG
// ---------------------------------------------------------------------------

class CaqrEg1dCase : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(CaqrEg1dCase, FactorsReconstructAcrossThresholds) {
  auto [m, n, P, b] = GetParam();
  la::Matrix A = la::random_matrix(m, n, 2000 + m + n + P + b);
  core::CaqrEg1dOptions opts;
  opts.b = b;
  Assembled f = run_1d(A, P, [&](backend::Comm& c, la::ConstMatrixView Al) {
    return core::caqr_eg_1d(c, Al, opts);
  });
  expect_valid_qr(A, f);
  expect_r_matches_reference(A, f.R);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndThresholds, CaqrEg1dCase,
    ::testing::Values(std::tuple{64, 8, 4, 1}, std::tuple{64, 8, 4, 2}, std::tuple{64, 8, 4, 8},
                      std::tuple{96, 12, 8, 3}, std::tuple{80, 16, 5, 4},
                      std::tuple{320, 16, 16, 5}, std::tuple{33, 7, 3, 2},
                      std::tuple{48, 9, 1, 4}, std::tuple{120, 10, 7, 1}));

TEST(CaqrEg1d, EpsilonDerivedThresholdWorks) {
  la::Matrix A = la::random_matrix(128, 16, 77);
  for (double eps : {0.0, 0.5, 1.0}) {
    core::CaqrEg1dOptions opts;
    opts.epsilon = eps;
    Assembled f = run_1d(A, 8, [&](backend::Comm& c, la::ConstMatrixView Al) {
      return core::caqr_eg_1d(c, Al, opts);
    });
    expect_valid_qr(A, f);
  }
}

TEST(CaqrEg1d, MatchesTsqrWhenBEqualsN) {
  // With b = n, 1D-CAQR-EG reduces exactly to TSQR (Section 6.3).
  la::Matrix A = la::random_matrix(64, 8, 3);
  core::CaqrEg1dOptions opts;
  opts.b = 8;
  Assembled f1 = run_1d(A, 4, [&](backend::Comm& c, la::ConstMatrixView Al) {
    return core::caqr_eg_1d(c, Al, opts);
  });
  Assembled f2 = run_1d(A, 4, [](backend::Comm& c, la::ConstMatrixView Al) {
    return core::tsqr(c, Al);
  });
  EXPECT_LT(la::diff_norm(f1.V.view(), f2.V.view()), 1e-13);
  EXPECT_LT(la::diff_norm(f1.R.view(), f2.R.view()), 1e-13);
  EXPECT_LT(la::diff_norm(f1.T.view(), f2.T.view()), 1e-13);
}

TEST(CaqrEg1d, BandwidthBeatsTsqrOnWideProblems) {
  // Theorem 2 vs Lemma 5: with epsilon = 1, 1D-CAQR-EG's words are O(n^2)
  // while TSQR's are O(n^2 log P).
  const int P = 64;
  const index_t n = 64;
  const index_t m = static_cast<index_t>(P) * n;
  la::Matrix A = la::random_matrix(m, n, 4);
  const auto starts = block_starts(m, P);

  auto measure = [&](auto&& algo) {
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = rows_slice(A, starts[c.rank()], starts[c.rank() + 1]);
      algo(c, la::ConstMatrixView(Al.view()));
    });
    return machine.critical_path();
  };
  const auto tsqr_cp = measure([](backend::Comm& c, la::ConstMatrixView Al) { core::tsqr(c, Al); });
  core::CaqrEg1dOptions opts;
  opts.epsilon = 1.0;
  const auto eg_cp =
      measure([&](backend::Comm& c, la::ConstMatrixView Al) { core::caqr_eg_1d(c, Al, opts); });

  EXPECT_LT(eg_cp.words, 0.7 * tsqr_cp.words);  // bandwidth win
  EXPECT_GT(eg_cp.msgs, tsqr_cp.msgs);          // latency price
}

// ---------------------------------------------------------------------------
// 3D-CAQR-EG
// ---------------------------------------------------------------------------

namespace {

Assembled run_3d(const la::Matrix& A, int P, core::CaqrEg3dOptions opts) {
  const index_t m = A.rows();
  const index_t n = A.cols();
  mm::CyclicRows vlay(m, n, P, 0);
  mm::CyclicRows tlay(n, n, P, 0);
  sim::Machine machine(P);
  std::vector<core::CyclicQr> results(P);
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view());
    results[c.rank()] = core::caqr_eg_3d(c, la::ConstMatrixView(Al.view()), m, n, opts);
  });
  Assembled out;
  out.V = la::Matrix(m, n);
  out.T = la::Matrix(n, n);
  out.R = la::Matrix(n, n);
  for (int p = 0; p < P; ++p) {
    for (index_t li = 0; li < vlay.local_rows(p); ++li)
      for (index_t j = 0; j < n; ++j) out.V(vlay.global_row(p, li), j) = results[p].V(li, j);
    for (index_t li = 0; li < tlay.local_rows(p); ++li)
      for (index_t j = 0; j < n; ++j) {
        out.T(tlay.global_row(p, li), j) = results[p].T(li, j);
        out.R(tlay.global_row(p, li), j) = results[p].R(li, j);
      }
  }
  return out;
}

}  // namespace

class CaqrEg3dCase
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(CaqrEg3dCase, FactorsReconstructAcrossThresholds) {
  auto [m, n, P, b, bstar] = GetParam();
  la::Matrix A = la::random_matrix(m, n, 3000 + m + n + P + b);
  core::CaqrEg3dOptions opts;
  opts.b = b;
  opts.b_star = bstar;
  Assembled f = run_3d(A, P, opts);
  expect_valid_qr(A, f);
  expect_r_matches_reference(A, f.R);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndThresholds, CaqrEg3dCase,
    ::testing::Values(
        // Base case only (b = n).
        std::tuple{48, 8, 4, 8, 2}, std::tuple{64, 8, 6, 8, 8},
        // One or two inductive levels.
        std::tuple{48, 8, 4, 4, 2}, std::tuple{64, 16, 8, 4, 2}, std::tuple{60, 12, 5, 3, 1},
        std::tuple{96, 16, 12, 5, 5},
        // Square-ish and edge shapes.
        std::tuple{16, 16, 4, 4, 2}, std::tuple{20, 20, 7, 5, 5}, std::tuple{9, 9, 3, 2, 1},
        std::tuple{12, 12, 16, 3, 3},  // P > m
        std::tuple{32, 1, 4, 1, 1},    // single column
        std::tuple{40, 10, 1, 4, 2}    // single rank
        ));

TEST(CaqrEg3d, DeltaEpsilonDerivedThresholds) {
  la::Matrix A = la::random_matrix(64, 16, 5);
  for (double delta : {0.5, 2.0 / 3.0}) {
    for (double eps : {0.0, 1.0}) {
      core::CaqrEg3dOptions opts;
      opts.delta = delta;
      opts.epsilon = eps;
      Assembled f = run_3d(A, 8, opts);
      expect_valid_qr(A, f);
    }
  }
}

TEST(CaqrEg3d, GradedMatrixStaysStable) {
  la::Matrix A = la::graded_matrix(60, 12, 1e9, 11);
  core::CaqrEg3dOptions opts;
  opts.b = 6;
  opts.b_star = 3;
  Assembled f = run_3d(A, 6, opts);
  expect_valid_qr(A, f, 1e-9);
}

TEST(CaqrEg3d, AgreesWithTsqrUpToRowSigns) {
  // Same A through completely different schedules: R can only differ by row
  // signs (and with matching signs the factors describe the same Q).
  la::Matrix A = la::random_matrix(48, 6, 21);
  core::CaqrEg3dOptions opts;
  opts.b = 3;
  opts.b_star = 1;
  Assembled f3 = run_3d(A, 4, opts);
  Assembled f1 = run_1d(A, 4, [](backend::Comm& c, la::ConstMatrixView Al) {
    return core::tsqr(c, Al);
  });
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = i; j < 6; ++j)
      EXPECT_NEAR(std::abs(f3.R(i, j)), std::abs(f1.R(i, j)), 1e-9);
}

TEST(CaqrEg3d, BaseConversionPlanInvariants) {
  for (auto [m, n, P] : {std::tuple<index_t, index_t, int>{48, 8, 4},
                         std::tuple<index_t, index_t, int>{5, 2, 4},
                         std::tuple<index_t, index_t, int>{4, 2, 3},
                         std::tuple<index_t, index_t, int>{12, 12, 16},
                         std::tuple<index_t, index_t, int>{100, 3, 7}}) {
    auto plan = core::detail::BaseConversionPlan::make(m, n, P);
    // final_rows partitions [0, m) and every rep holds >= n rows.
    std::vector<int> seen(static_cast<std::size_t>(m), 0);
    for (int g = 0; g < plan.Pstar; ++g) {
      EXPECT_GE(static_cast<index_t>(plan.final_rows[g].size()), n);
      for (index_t r : plan.final_rows[g]) seen[static_cast<std::size_t>(r)]++;
    }
    for (index_t r = 0; r < m; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], 1);
    // Rep 0's list starts with the top n rows, in order.
    for (index_t r = 0; r < n; ++r) EXPECT_EQ(plan.final_rows[0][static_cast<std::size_t>(r)], r);
    // The phase-2 swap is an exchange: counts match per rep.
    for (int g = 1; g < plan.Pstar; ++g)
      EXPECT_EQ(plan.top_rows[g].size(), plan.given_rows[g].size());
  }
}

// With b = n, 3D-CAQR-EG is the Section 7.1 base case alone: a conversion
// that only moves rows, 1D-CAQR-EG on the representatives, and the reverse
// moves.  So its factors must be bit for bit those of 1D-CAQR-EG run on each
// representative's rows in BaseConversionPlan::final_rows order.
TEST(CaqrEg3d, BaseCaseIsARowPermutationOfOneD) {
  struct Shape {
    index_t m, n;
    int P;
    index_t bstar;
  };
  for (const Shape& s : {Shape{48, 8, 4, 2},     // P* = P, every group one rank
                         Shape{256, 24, 2, 24},  // P* = P, a served shape
                         Shape{61, 7, 5, 3},     // P* = P, P does not divide m
                         Shape{20, 8, 4, 4},     // P* = 2 < P
                         Shape{30, 8, 4, 8},     // P* = 2 < P, P does not divide m
                         Shape{10, 3, 16, 1}}) { // P > m: 10 ranks own rows, P* = 3
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n) + " P=" + std::to_string(s.P));
    la::Matrix A = la::random_matrix(s.m, s.n, 4000 + static_cast<unsigned>(s.m));
    core::CaqrEg3dOptions opts;
    opts.b = s.n;
    opts.b_star = s.bstar;
    const Assembled f3 = run_3d(A, s.P, opts);

    const auto plan = core::detail::BaseConversionPlan::make(s.m, s.n, s.P);
    sim::Machine machine(plan.Pstar);
    std::vector<la::Matrix> vs(static_cast<std::size_t>(plan.Pstar));
    Assembled f1;
    machine.run([&](backend::Comm& c) {
      const auto& rows = plan.final_rows[static_cast<std::size_t>(c.rank())];
      la::Matrix Al(static_cast<index_t>(rows.size()), s.n);
      for (std::size_t k = 0; k < rows.size(); ++k)
        for (index_t j = 0; j < s.n; ++j) Al(static_cast<index_t>(k), j) = A(rows[k], j);
      core::CaqrEg1dOptions inner;
      inner.b = s.bstar;
      core::DistributedQr r = core::caqr_eg_1d(c, la::ConstMatrixView(Al.view()), inner);
      vs[static_cast<std::size_t>(c.rank())] = std::move(r.V);
      if (c.rank() == 0) {
        f1.T = std::move(r.T);
        f1.R = std::move(r.R);
      }
    });
    f1.V = la::Matrix(s.m, s.n);
    for (int g = 0; g < plan.Pstar; ++g) {
      const auto& rows = plan.final_rows[static_cast<std::size_t>(g)];
      for (std::size_t k = 0; k < rows.size(); ++k)
        for (index_t j = 0; j < s.n; ++j)
          f1.V(rows[k], j) = vs[static_cast<std::size_t>(g)](static_cast<index_t>(k), j);
    }
    EXPECT_TRUE(f3.V == f1.V);
    EXPECT_TRUE(f3.T == f1.T);
    EXPECT_TRUE(f3.R == f1.R);
  }
}

TEST(Params, BlockSizeSelectionRanges) {
  EXPECT_EQ(core::block_size_1d(64, 1, 1.0), 64);       // log2(1) -> 1
  EXPECT_EQ(core::block_size_1d(64, 16, 0.0), 64);      // epsilon 0: b = n
  EXPECT_EQ(core::block_size_1d(64, 16, 1.0), 16);      // n / log2(P)
  EXPECT_EQ(core::block_size_1d(4, 1 << 20, 3.0), 1);   // clamped at 1
  // Very tall matrices: aspect ratio >= P means immediate base case.
  EXPECT_EQ(core::block_size_3d(1 << 20, 16, 64, 0.5), 16);
  // Square on P ranks: b = n / P^delta.
  EXPECT_EQ(core::block_size_3d(256, 256, 16, 0.5), 64);
  EXPECT_GE(core::base_block_size_3d(16, 16, 1.0), 1);
  EXPECT_LE(core::base_block_size_3d(16, 16, 1.0), 16);
}

TEST(CaqrEg1d, ThresholdLargerThanNClampsToTsqr) {
  la::Matrix A = la::random_matrix(40, 8, 101);
  core::CaqrEg1dOptions opts;
  opts.b = 1000;  // clamped to n
  Assembled f = run_1d(A, 4, [&](backend::Comm& c, la::ConstMatrixView Al) {
    return core::caqr_eg_1d(c, Al, opts);
  });
  expect_valid_qr(A, f);
}
