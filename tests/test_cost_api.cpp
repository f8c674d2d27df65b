// Tests for the analytic cost model / tuner (src/cost) and the high-level
// driver API (core/api.hpp).
#include <gtest/gtest.h>

#include <cmath>

#include "qr3d.hpp"

namespace core = qr3d::core;
namespace cost = qr3d::cost;
namespace la = qr3d::la;
namespace mm = qr3d::mm;
namespace backend = qr3d::backend;
namespace sim = qr3d::sim;
using la::index_t;

TEST(CostModel, Theorem2TradeoffIsMonotone) {
  // Larger epsilon: fewer words, more messages (Table 3 row 3).
  const double m = 1 << 20, n = 256;
  const int P = 256;
  double prev_words = 1e300, prev_msgs = 0.0;
  for (double eps : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const cost::Costs c = cost::table3_caqr_eg_1d(m, n, P, eps);
    EXPECT_LE(c.words, prev_words);
    EXPECT_GE(c.msgs, prev_msgs);
    prev_words = c.words;
    prev_msgs = c.msgs;
  }
}

TEST(CostModel, Theorem1TradeoffIsMonotone) {
  const double m = 1 << 16, n = 1 << 14;
  const int P = 1024;
  double prev_words = 1e300, prev_msgs = 0.0;
  for (double delta : {0.5, 0.55, 0.6, 2.0 / 3.0}) {
    const cost::Costs c = cost::table2_caqr_eg_3d(m, n, P, delta);
    EXPECT_LE(c.words, prev_words);
    EXPECT_GE(c.msgs, prev_msgs);
    prev_words = c.words;
    prev_msgs = c.msgs;
  }
}

TEST(CostModel, Table2OrderingMatchesPaper) {
  // At delta = 2/3, 3D-CAQR-EG's words beat 2D-HOUSE and CAQR; its messages
  // sit between CAQR's and the latency lower bound.
  const double m = 1 << 16, n = 1 << 14;
  const int P = 4096;
  const auto house = cost::table2_house_2d(m, n, P);
  const auto caqr = cost::table2_caqr(m, n, P);
  const auto eg = cost::table2_caqr_eg_3d(m, n, P, 2.0 / 3.0);
  EXPECT_LT(eg.words, caqr.words);
  EXPECT_NEAR(house.words, caqr.words, 1e-9);
  EXPECT_LT(caqr.msgs, house.msgs);  // CAQR's whole point
  // Bandwidth lower bound attained at delta = 2/3.
  const auto lb = cost::lower_bound_squareish(m, n, P);
  EXPECT_NEAR(eg.words, lb.words, 1e-6 * lb.words);
}

TEST(CostModel, Table3OrderingMatchesPaper) {
  const double m = 1 << 22, n = 128;
  const int P = 1024;
  const auto house = cost::table3_house_1d(m, n, P);
  const auto ts = cost::table3_tsqr(m, n, P);
  const auto eg = cost::table3_caqr_eg_1d(m, n, P, 1.0);
  EXPECT_LT(ts.msgs, house.msgs);                  // TSQR kills latency
  EXPECT_LT(eg.words, ts.words);                   // EG kills the log P words
  EXPECT_NEAR(eg.words, n * n, 1e-9 * n * n);      // attains Omega(n^2)
  EXPECT_GT(eg.msgs, ts.msgs);                     // at a latency price
}

TEST(CostModel, CollectiveEnvelopes) {
  // Table 1's min() envelopes: small blocks favor the tree, large the
  // exchange.
  EXPECT_DOUBLE_EQ(cost::broadcast(1.0, 1024).words, 10.0);       // B log P
  EXPECT_DOUBLE_EQ(cost::broadcast(1e6, 1024).words, 1e6 + 1024);  // B + P
  EXPECT_DOUBLE_EQ(cost::scatter(100.0, 8).words, 700.0);
  EXPECT_DOUBLE_EQ(cost::all_to_all(10.0, 80.0, 8).words, std::min(10.0 * 8 * 3, (80.0 + 64) * 3));
}

TEST(Tuner, LatencyBoundMachinePrefersSmallEpsilon) {
  // On a machine where messages are astronomically expensive, the tuner must
  // pick epsilon near 0 (fewest messages); on a bandwidth-starved machine,
  // epsilon near 1.
  sim::CostParams latency_bound{1e6, 1e-12, 1e-12, "latency-bound"};
  sim::CostParams bandwidth_bound{1e-12, 1e6, 1e-12, "bandwidth-bound"};
  const auto t1 = cost::tune_1d(1 << 22, 256, 1024, latency_bound);
  const auto t2 = cost::tune_1d(1 << 22, 256, 1024, bandwidth_bound);
  EXPECT_LT(t1.epsilon, 0.1);
  EXPECT_GT(t2.epsilon, 0.9);
}

TEST(Tuner, PureCostMachinesPushDeltaToTheirEnds) {
  // Pure-latency machine: time == #messages == (nP/m)^delta (log P)^(1+eps),
  // minimized at delta = eps = 0.  Pure-bandwidth machine at sizes satisfying
  // Theorem 1's hypothesis Eq. (2): delta climbs toward 2/3.  The log-factor
  // W terms of Eq. (13) make the large-delta regime kick in only at very
  // large P — exactly the Section 8.4 limitation.
  sim::CostParams pure_latency{1.0, 0.0, 0.0, "pure-latency"};
  sim::CostParams pure_bandwidth{0.0, 1.0, 0.0, "pure-bandwidth"};
  const double m = std::pow(2.0, 48), n = std::pow(2.0, 48);
  const double P = 1 << 28;
  const auto t1 = cost::tune_3d(m, n, static_cast<int>(P), pure_latency);
  const auto t2 = cost::tune_3d(m, n, static_cast<int>(P), pure_bandwidth);
  EXPECT_LE(t1.delta, 0.05);
  EXPECT_LE(t1.epsilon, 0.05);
  EXPECT_GE(t2.delta, 0.6);

  // Outside Eq. (2)'s range (P too large for the problem), the model's W
  // term pushes the optimum below 2/3 even on a pure-bandwidth machine.
  const auto cramped = cost::tune_3d(1 << 16, 1 << 14, 1024, pure_bandwidth);
  EXPECT_LT(cramped.delta, 2.0 / 3.0);
}

TEST(Tuner, ProfilesProduceFiniteDistinctChoices) {
  for (const auto& prof : sim::profiles::all()) {
    const auto t = cost::tune_3d(1 << 14, 1 << 12, 256, prof);
    EXPECT_GE(t.delta, 0.0);
    EXPECT_LE(t.delta, 1.0);
    EXPECT_GE(t.epsilon, 0.0);
    EXPECT_LE(t.epsilon, 1.0);
    EXPECT_GT(t.predicted.time(prof), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Driver API
// ---------------------------------------------------------------------------

namespace {

la::Matrix cyclic_local(backend::Comm& c, const la::Matrix& A) {
  return qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::CyclicRows);
}

}  // namespace

class ApiCase : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ApiCase, QrAndApplyQRoundTrip) {
  auto [m, n, P] = GetParam();
  la::Matrix A = la::random_matrix(m, n, 7000 + m + n);
  const std::vector<la::Matrix> Xs = {la::random_matrix(m, 3, 7100 + m),
                                      la::random_matrix(m, 1, 7200 + m)};

  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = cyclic_local(c, A);
    core::CyclicQr f = core::qr(c, la::ConstMatrixView(Al.view()), m, n);

    // Q^H A should be [R; 0]: apply Q^H to A's local rows.
    la::Matrix QhA = core::apply_q_cyclic(c, f, m, n, Al, n, la::Op::ConjTrans);
    la::Matrix R0 = core::gather_to_root(c, QhA, m, n);
    la::Matrix Rg = core::gather_to_root(c, f.R, n, n);
    if (c.rank() == 0) {
      EXPECT_LT(la::diff_norm(R0.block(0, 0, n, n), la::ConstMatrixView(Rg.view())),
                1e-9 * (1.0 + la::frobenius_norm(Rg.view())));
      EXPECT_LT(la::frobenius_norm(R0.block(n, 0, m - n, n)), 1e-9);
    }

    // Q Q^H X == X, for a block and for one column.
    for (const la::Matrix& X : Xs) {
      la::Matrix Xl = cyclic_local(c, X);
      la::Matrix Y = core::apply_q_cyclic(c, f, m, n, Xl, X.cols(), la::Op::ConjTrans);
      la::Matrix Z = core::apply_q_cyclic(c, f, m, n, Y, X.cols(), la::Op::NoTrans);
      EXPECT_LT(la::diff_norm(Z.view(), Xl.view()),
                1e-10 * (1.0 + la::frobenius_norm(Xl.view())))
          << "k = " << X.cols();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, ApiCase,
                         ::testing::Values(std::tuple{48, 8, 4},   // tall: base-case path
                                           std::tuple{24, 12, 6},  // square-ish: recursion
                                           std::tuple{32, 32, 4}, std::tuple{40, 10, 1},
                                           std::tuple{30, 7, 4},   // P does not divide n
                                           std::tuple{36, 10, 4},  // ... on the 3D path
                                           std::tuple{20, 4, 8})); // P > n: ranks own no T row

TEST(Api, ForcedAlgorithmsAgreeOnR) {
  const index_t m = 36, n = 12;
  const int P = 4;
  la::Matrix A = la::random_matrix(m, n, 42);
  for (core::Algorithm alg : {core::Algorithm::CaqrEg3d, core::Algorithm::BaseCase}) {
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = cyclic_local(c, A);
      core::QrOptions opts;
      opts.algorithm = alg;
      core::CyclicQr f = core::qr(c, la::ConstMatrixView(Al.view()), m, n, opts);
      la::Matrix Rg = core::gather_to_root(c, f.R, n, n);
      if (c.rank() == 0) {
        la::QrFactors ref = la::qr_factor<double>(A.view());
        for (index_t i = 0; i < n; ++i)
          for (index_t j = i; j < n; ++j)
            EXPECT_NEAR(std::abs(Rg(i, j)), std::abs(ref.R(i, j)),
                        1e-9 * (1.0 + std::abs(ref.R(i, j))));
      }
    });
  }
}

TEST(Api, TunedQrStillCorrect) {
  const index_t m = 32, n = 16;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 77);
  sim::Machine machine(P, sim::profiles::cloud());
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = cyclic_local(c, A);
    core::QrOptions opts;
    opts.tune_for_machine = true;
    core::CyclicQr f = core::qr(c, la::ConstMatrixView(Al.view()), m, n, opts);
    la::Matrix Rg = core::gather_to_root(c, f.R, n, n);
    if (c.rank() == 0) {
      EXPECT_TRUE(la::is_upper_triangular(Rg.view(), 1e-12));
    }
  });
}

TEST(Api, GatherToRootRoundTrip) {
  const index_t rows = 17, cols = 5;
  const int P = 3;
  la::Matrix A = la::random_matrix(rows, cols, 3);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    la::Matrix loc = cyclic_local(c, A);
    la::Matrix full = core::gather_to_root(c, loc, rows, cols);
    if (c.rank() == 0) {
      EXPECT_LT(la::diff_norm(full.view(), A.view()), 1e-15);
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}
