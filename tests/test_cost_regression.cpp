// Cost-pinning regression tests.
//
// The send() API change (donating std::vector<double>&& / explicit
// send_copy instead of pass-by-value) must not change what the simulator
// charges: a message of w words costs alpha + w*beta at each endpoint,
// regardless of how the payload buffer reached the backend.  These tests pin
// the *exact* critical-path and aggregate message/word counts of every
// collective variant at P = 8, B = 16 — snapshots taken when the backend
// refactor landed — so any refactor that silently alters simulated costs
// (an extra hop, a lost donation turning into a charged copy, a changed
// tree shape) fails loudly here.
//
// The pinned constants also gate *transport* rewrites: the thread backend's
// mailboxes were replaced with per-(src, dst) SPSC channels, and because
// every algorithm issues the same sends on every backend, the simulated
// counts here must come through byte-identical before and after — a
// transport change that alters modeled costs means it changed what the
// algorithms send, not just how buffers move.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "backend/comm.hpp"
#include "backend/thread_machine.hpp"
#include "coll/coll.hpp"
#include "core/cholesky_qr2.hpp"
#include "core/dist_matrix.hpp"
#include "core/solver.hpp"
#include "cost/model.hpp"
#include "core/tsqr.hpp"
#include "fault/coded_tsqr.hpp"
#include "fault/plan.hpp"
#include "la/random.hpp"
#include "serve/batch_solver.hpp"
#include "serve/plan_cache.hpp"
#include "sim/machine.hpp"
#include "sim/profiles.hpp"

namespace backend = qr3d::backend;
namespace coll = qr3d::coll;
namespace la = qr3d::la;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;
using Alg = coll::Alg;

namespace {

constexpr int P = 8;
constexpr std::size_t B = 16;

struct Pinned {
  double cp_msgs, cp_words, tot_msgs, tot_words;
};

void expect_pinned(const char* name, const Pinned& want,
                   const std::function<void(backend::Comm&)>& body) {
  sim::Machine m(P);
  m.run(body);
  const sim::CostClock cp = m.critical_path();
  const sim::CostTotals tot = m.totals();
  EXPECT_DOUBLE_EQ(cp.msgs, want.cp_msgs) << name << ": critical-path messages";
  EXPECT_DOUBLE_EQ(cp.words, want.cp_words) << name << ": critical-path words";
  EXPECT_DOUBLE_EQ(tot.msgs_sent, want.tot_msgs) << name << ": total messages";
  EXPECT_DOUBLE_EQ(tot.words_sent, want.tot_words) << name << ": total words";
}

}  // namespace

// Donating a buffer and sending an explicit copy charge identically: the
// cost model sees w words either way.
TEST(CostRegression, MoveSendAndCopySendChargeIdentically) {
  auto run = [](bool use_copy) {
    sim::Machine m(2);
    m.run([use_copy](backend::Comm& c) {
      if (c.rank() == 0) {
        std::vector<double> payload(B, 1.0);
        if (use_copy) c.send_copy(1, payload, 5);
        else c.send(1, std::move(payload), 5);
      } else {
        c.recv(0, 5);
      }
    });
    return m.critical_path();
  };
  const sim::CostClock moved = run(false);
  const sim::CostClock copied = run(true);
  EXPECT_DOUBLE_EQ(moved.msgs, copied.msgs);
  EXPECT_DOUBLE_EQ(moved.words, copied.words);
  EXPECT_DOUBLE_EQ(moved.time, copied.time);
  EXPECT_DOUBLE_EQ(moved.msgs, 2.0);   // send + recv endpoints
  EXPECT_DOUBLE_EQ(moved.words, 32.0); // 16 words charged at each endpoint
}

// --- Rooted collectives (per-rank blocks of B; vectors of P*B). -------------

TEST(CostRegression, ScatterBinomial) {
  expect_pinned("scatter_binomial", {6, 224, 7, 192}, [](backend::Comm& c) {
    std::vector<std::vector<double>> blocks(P, std::vector<double>(B, 1.0));
    coll::scatter(c, 0, blocks, std::vector<std::size_t>(P, B), Alg::Binomial);
  });
}

TEST(CostRegression, GatherBinomial) {
  expect_pinned("gather_binomial", {6, 224, 7, 192}, [](backend::Comm& c) {
    coll::gather(c, 0, std::vector<double>(B, 1.0), std::vector<std::size_t>(P, B),
                 Alg::Binomial);
  });
}

TEST(CostRegression, BroadcastBinomial) {
  expect_pinned("broadcast_binomial", {6, 768, 7, 896}, [](backend::Comm& c) {
    std::vector<double> d(B * P, 1.0);
    coll::broadcast(c, 0, d, Alg::Binomial);
  });
}

TEST(CostRegression, BroadcastBidirectional) {
  expect_pinned("broadcast_bidir", {12, 448, 31, 1088}, [](backend::Comm& c) {
    std::vector<double> d(B * P, 1.0);
    coll::broadcast(c, 0, d, Alg::BidirExchange);
  });
}

TEST(CostRegression, ReduceBinomial) {
  expect_pinned("reduce_binomial", {6, 768, 7, 896}, [](backend::Comm& c) {
    std::vector<double> d(B * P, 1.0);
    coll::reduce(c, 0, d, Alg::Binomial);
  });
}

TEST(CostRegression, ReduceBidirectional) {
  expect_pinned("reduce_bidir", {12, 448, 31, 1088}, [](backend::Comm& c) {
    std::vector<double> d(B * P, 1.0);
    coll::reduce(c, 0, d, Alg::BidirExchange);
  });
}

// --- Non-rooted collectives. -------------------------------------------------

TEST(CostRegression, AllReduceBinomial) {
  expect_pinned("all_reduce_binomial", {12, 1536, 14, 1792}, [](backend::Comm& c) {
    std::vector<double> d(B * P, 1.0);
    coll::all_reduce(c, d, Alg::Binomial);
  });
}

TEST(CostRegression, AllReduceBidirectional) {
  expect_pinned("all_reduce_bidir", {12, 448, 48, 1792}, [](backend::Comm& c) {
    std::vector<double> d(B * P, 1.0);
    coll::all_reduce(c, d, Alg::BidirExchange);
  });
}

TEST(CostRegression, AllGatherBidirectional) {
  expect_pinned("all_gather_bidir", {6, 224, 24, 896}, [](backend::Comm& c) {
    coll::all_gather(c, std::vector<double>(B, 1.0), std::vector<std::size_t>(P, B),
                     Alg::BidirExchange);
  });
}

TEST(CostRegression, ReduceScatterBidirectional) {
  expect_pinned("reduce_scatter_bidir", {6, 224, 24, 896}, [](backend::Comm& c) {
    std::vector<std::vector<double>> contrib(P, std::vector<double>(B, 1.0));
    coll::reduce_scatter(c, std::move(contrib), Alg::BidirExchange);
  });
}

TEST(CostRegression, AllToAllIndex) {
  expect_pinned("all_to_all_index", {6, 534, 24, 2136}, [](backend::Comm& c) {
    std::vector<std::vector<double>> out(P, std::vector<double>(B, 1.0));
    coll::all_to_all(c, std::move(out), Alg::Index);
  });
}

TEST(CostRegression, AllToAllTwoPhase) {
  expect_pinned("all_to_all_two_phase", {12, 2700, 48, 10800}, [](backend::Comm& c) {
    std::vector<std::vector<double>> out(P, std::vector<double>(B, 1.0));
    coll::all_to_all(c, std::move(out), Alg::TwoPhase);
  });
}

// --- Plan-cache reuse. --------------------------------------------------------

// A factorization whose (delta, epsilon) came out of the plan cache must
// charge exactly the same simulated messages/words as one whose parameters
// came from a fresh tuner run: the cache stores the tuner's answer, nothing
// else, so reuse cannot perturb the execution by even one message.
TEST(CostRegression, PlanCacheReuseChargesIdenticallyToFreshTune) {
  const qr3d::la::index_t m = 64, n = 32;  // m/n < P: the tuned 3D path
  la::Matrix A = la::random_matrix(m, n, 77);
  qr3d::QrOptions opts = qr3d::QrOptions().with_tune_for_machine();

  auto factor_counts = [&](const qr3d::Solver& solver) {
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      solver.factor(qr3d::DistMatrix::from_global(c, A.view()));
    });
    return std::pair(machine.critical_path(), machine.totals());
  };

  // Fresh Solver: the first factor tunes (cache miss).
  qr3d::Solver fresh(opts);
  const auto [cp_fresh, tot_fresh] = factor_counts(fresh);
  EXPECT_EQ(fresh.plan_cache()->misses(), 1u);

  // Same Solver again: the plan is served from the cache, not re-tuned.
  const std::uint64_t hits_before = fresh.plan_cache()->hits();
  const auto [cp_cached, tot_cached] = factor_counts(fresh);
  EXPECT_EQ(fresh.plan_cache()->misses(), 1u);
  EXPECT_GT(fresh.plan_cache()->hits(), hits_before);

  EXPECT_DOUBLE_EQ(cp_cached.msgs, cp_fresh.msgs);
  EXPECT_DOUBLE_EQ(cp_cached.words, cp_fresh.words);
  EXPECT_DOUBLE_EQ(cp_cached.flops, cp_fresh.flops);
  EXPECT_DOUBLE_EQ(cp_cached.time, cp_fresh.time);
  EXPECT_DOUBLE_EQ(tot_cached.msgs_sent, tot_fresh.msgs_sent);
  EXPECT_DOUBLE_EQ(tot_cached.words_sent, tot_fresh.words_sent);

  // And a *pinned* plan handed back in (the serving layer's path) matches
  // the tuned execution exactly as well.
  const serve::PlanKey key = serve::make_plan_key(m, n, P, qr3d::Dist::CyclicRows,
                                                  backend::Kind::Simulated, sim::CostParams{});
  const serve::Plan plan = fresh.plan_cache()->lookup_or_tune(key, sim::CostParams{});
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    fresh.factor(qr3d::DistMatrix::from_global(c, A.view()), plan);
  });
  EXPECT_DOUBLE_EQ(machine.critical_path().msgs, cp_fresh.msgs);
  EXPECT_DOUBLE_EQ(machine.critical_path().words, cp_fresh.words);
  EXPECT_DOUBLE_EQ(machine.critical_path().flops, cp_fresh.flops);
}

// --- Transport independence. --------------------------------------------------

// The SPSC-channel rewrite of the thread backend (backend/spsc.hpp) lives
// entirely below the Comm interface, so the simulator's modeled costs for a
// full factorization must be bit-for-bit reproducible run over run — and, by
// the pins above, identical to their pre-rewrite snapshots.  A sim machine
// constructed while a thread machine is live charges the same, proving the
// two backends share no accounting state.
TEST(CostRegression, SimulatedCountsAreReproducibleAndTransportIndependent) {
  const qr3d::la::index_t m = 64, n = 32;
  la::Matrix A = la::random_matrix(m, n, 55);
  qr3d::Solver solver;  // default options, deterministic plan

  auto counts = [&]() {
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      solver.factor(qr3d::DistMatrix::from_global(c, A.view()));
    });
    return std::pair(machine.critical_path(), machine.totals());
  };

  const auto [cp1, tot1] = counts();

  // Exercise the thread transport between the two sim measurements.
  backend::ThreadMachine threads(4);
  threads.run([](backend::Comm& c) {
    if (c.rank() == 0) c.send(1, {1.0, 2.0}, 7);
    if (c.rank() == 1) (void)c.recv(0, 7);
  });

  const auto [cp2, tot2] = counts();
  EXPECT_DOUBLE_EQ(cp1.msgs, cp2.msgs);
  EXPECT_DOUBLE_EQ(cp1.words, cp2.words);
  EXPECT_DOUBLE_EQ(cp1.flops, cp2.flops);
  EXPECT_DOUBLE_EQ(cp1.time, cp2.time);
  EXPECT_DOUBLE_EQ(tot1.msgs_sent, tot2.msgs_sent);
  EXPECT_DOUBLE_EQ(tot1.words_sent, tot2.words_sent);
}

// --- Coded TSQR: the price of the checksum protection. ------------------------

namespace {

/// Simulated (critical path, totals) of one TSQR-shaped body at P = 8.
std::pair<sim::CostClock, sim::CostTotals> tsqr_counts(
    const la::Matrix& A, const qr3d::fault::Plan& plan,
    const std::function<void(backend::Comm&, la::ConstMatrixView)>& body) {
  sim::Machine machine(P);
  if (!plan.empty()) machine.set_fault_plan(plan);
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    body(c, la::ConstMatrixView(Al.view()));
  });
  return {machine.critical_path(), machine.totals()};
}

}  // namespace

// Zero-fault overhead of coded TSQR at f = 1, pinned both as absolute
// snapshots and as the analytic deltas the protocol predicts over plain
// TSQR (m = 64, n = 8, P = 8, L = n(n+1)/2 = 36 packed words):
//   encode:  one Binomial reduce of f*L words to the keeper
//            -> P-1 = 7 extra messages, 7 * 36 = 252 extra words;
//   upsweep: one completeness-prefix word on each of the P-1 tree messages
//            -> 7 extra words;
//   status:  the root direct-sends one word to each other rank
//            -> 7 extra messages, 7 extra words.
// Total: +14 messages, +266 words.  Any protocol change — a lost donation,
// a chattier status round, checksums piggybacked differently — moves these.
TEST(CostRegression, CodedTsqrZeroFaultExtrasArePinned) {
  la::Matrix A = la::random_matrix(64, 8, 901);
  const auto [cp_plain, tot_plain] = tsqr_counts(
      A, {}, [](backend::Comm& c, la::ConstMatrixView Al) { (void)qr3d::core::tsqr(c, Al); });
  const auto [cp_coded, tot_coded] = tsqr_counts(
      A, {},
      [](backend::Comm& c, la::ConstMatrixView Al) { (void)qr3d::fault::coded_tsqr(c, Al); });

  EXPECT_DOUBLE_EQ(cp_plain.msgs, 15.0);
  EXPECT_DOUBLE_EQ(cp_plain.words, 792.0);
  EXPECT_DOUBLE_EQ(tot_plain.msgs_sent, 21.0);
  EXPECT_DOUBLE_EQ(tot_plain.words_sent, 1148.0);

  EXPECT_DOUBLE_EQ(cp_coded.msgs, 28.0);
  EXPECT_DOUBLE_EQ(cp_coded.words, 1021.0);
  EXPECT_DOUBLE_EQ(tot_coded.msgs_sent, tot_plain.msgs_sent + 14.0);
  EXPECT_DOUBLE_EQ(tot_coded.words_sent, tot_plain.words_sent + 252.0 + 7.0 + 7.0);
}

// The protection must be cheap where it matters: on a realistic fabric and a
// flop/bandwidth-dominated shape, the checksum machinery (all latency-bound)
// predicts under 15% extra critical-path time at f = 1.
TEST(CostRegression, CodedTsqrZeroFaultTimeOverheadUnder15Percent) {
  la::Matrix A = la::random_matrix(4096, 64, 77);
  const auto run = [&](const std::function<void(backend::Comm&, la::ConstMatrixView)>& body) {
    sim::Machine machine(P, sim::profiles::hpc_fabric());
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
      body(c, la::ConstMatrixView(Al.view()));
    });
    return machine.critical_path().time;
  };
  const double plain =
      run([](backend::Comm& c, la::ConstMatrixView Al) { (void)qr3d::core::tsqr(c, Al); });
  const double coded = run(
      [](backend::Comm& c, la::ConstMatrixView Al) { (void)qr3d::fault::coded_tsqr(c, Al); });
  EXPECT_GT(plain, 0.0);
  EXPECT_LE(coded, 1.15 * plain);
}

// Recovery-round costs are simulated too, and the injection is deterministic,
// so the whole kill -> detect -> reconstruct execution pins exactly: killing
// rank 2 at its second comm op (its upsweep send, found by the deterministic
// sweep in test_fault_injection) trades the dead rank's remaining traffic for
// the recovery round — every survivor direct-sends its packed R to the root,
// the root solves the checksum system and direct-sends the recovered factor
// back — and charges exactly this much.
TEST(CostRegression, CodedTsqrRecoveryCostsArePinned) {
  la::Matrix A = la::random_matrix(64, 8, 901);
  bool recovered = false;
  sim::Machine machine(P);
  machine.set_fault_plan(qr3d::fault::Plan::kill(2, 2));
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    qr3d::fault::CodedTsqrResult r = qr3d::fault::coded_tsqr(c, Al.view());
    if (c.rank() == 0) recovered = r.recovered;
  });
  EXPECT_TRUE(recovered);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{2});
  const sim::CostClock cp = machine.critical_path();
  const sim::CostTotals tot = machine.totals();
  EXPECT_DOUBLE_EQ(cp.msgs, 32.0);
  EXPECT_DOUBLE_EQ(cp.words, 994.0);
  EXPECT_DOUBLE_EQ(tot.msgs_sent, 32.0);
  EXPECT_DOUBLE_EQ(tot.words_sent, 961.0);
}

// --- CholeskyQR2: the fast path's communication budget. -----------------------

// CholeskyQR2's entire communication is two packed-upper all-reduces of
// L = n(n+1)/2 = 36 words (m = 64, n = 8, P = 8) — everything else is
// rank-local.  Pin the simulated counts absolutely AND as the analytic
// identity "2x one 36-word all-reduce", and pin that the float first pass
// charges byte-identically to the double one (the wire format is always
// packed double, which is what lets one set of pins cover both precisions
// and keeps fast/balanced plans comparable in the cost model).
TEST(CostRegression, CholeskyQr2CountsArePinnedAndPrecisionIndependent) {
  la::Matrix A = la::graded_matrix(64, 8, 1e2, 912);
  const auto counts = [&](bool in_float) {
    sim::Machine machine(P);
    machine.run([&](backend::Comm& c) {
      la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
      qr3d::core::CholeskyQr2Options opts;
      opts.factor_in_float = in_float;
      (void)qr3d::core::cholesky_qr2(c, la::ConstMatrixView(Al.view()), opts);
    });
    return std::pair(machine.critical_path(), machine.totals());
  };

  const auto [cp, tot] = counts(false);

  // One 36-word all-reduce at P = 8, Alg::Auto, measured in isolation.
  sim::Machine one(P);
  one.run([](backend::Comm& c) {
    std::vector<double> d(36, 1.0);
    coll::all_reduce(c, d);
  });
  EXPECT_DOUBLE_EQ(cp.msgs, 2.0 * one.critical_path().msgs);
  EXPECT_DOUBLE_EQ(cp.words, 2.0 * one.critical_path().words);
  EXPECT_DOUBLE_EQ(tot.msgs_sent, 2.0 * one.totals().msgs_sent);
  EXPECT_DOUBLE_EQ(tot.words_sent, 2.0 * one.totals().words_sent);

  // Absolute snapshots, so a changed collective default fails loudly here
  // rather than silently re-deriving the identity above.
  EXPECT_DOUBLE_EQ(cp.msgs, 24.0);
  EXPECT_DOUBLE_EQ(cp.words, 280.0);
  EXPECT_DOUBLE_EQ(tot.msgs_sent, 96.0);
  EXPECT_DOUBLE_EQ(tot.words_sent, 1008.0);

  const auto [cp_f, tot_f] = counts(true);
  EXPECT_DOUBLE_EQ(cp_f.msgs, cp.msgs);
  EXPECT_DOUBLE_EQ(cp_f.words, cp.words);
  EXPECT_DOUBLE_EQ(tot_f.msgs_sent, tot.msgs_sent);
  EXPECT_DOUBLE_EQ(tot_f.words_sent, tot.words_sent);
}

// The cost-model entry the serving dispatch and the CI bench smoke lean on:
// pin its (alpha, beta, gamma) terms analytically at the TSQR pin shape, and
// pin the headline ratio — on the default simulated machine and the serving
// layer's tall-skinny shape (m = 2nP), CholeskyQR2 predicts at least 1.5x
// faster than TSQR.
TEST(CostRegression, CholeskyQr2ModelTermsAndSpeedupArePinned) {
  namespace cost = qr3d::cost;
  const double m = 64.0, n = 8.0;
  const cost::Costs cq = cost::cholesky_qr2(m, n, P);
  const cost::Costs ar = cost::all_reduce(n * (n + 1.0) / 2.0, P);
  EXPECT_DOUBLE_EQ(cq.msgs, 2.0 * ar.msgs);
  EXPECT_DOUBLE_EQ(cq.words, 2.0 * ar.words);
  EXPECT_DOUBLE_EQ(cq.flops,
                   2.0 * (3.0 * m * n * n / P + n * n * n / 3.0 + ar.flops) + n * n * n);

  const double nn = 32.0, mm = 2.0 * nn * P;  // the serving tall-skinny shape
  const sim::CostParams def{};
  EXPECT_GE(qr3d::cost::tsqr(mm, nn, P).time(def),
            1.5 * qr3d::cost::cholesky_qr2(mm, nn, P).time(def));
}

// --- The least-squares solve. --------------------------------------------------

// Factorization::solve_least_squares forms Q^H b through core::apply_q_cyclic,
// whose 1D products move two n x k all-reduces and never the m x n basis.
// Pin the critical-path flops, messages and words of factor + solve at the
// serving and factor_square shapes, of explicit_q (Q applied to n columns)
// at 1024 x 512, and of plain TSQR at 8192 x 64.  The counts do not depend
// on the matrix entries.
//
// TSQR's root broadcasts U right after its LU, so its own T solve (n^3
// flops) and V solve (n^2 (m_p - n)) overlap the other ranks' V solves:
// plain TSQR's critical path carries n^2 m_p = 8,388,608 fewer flops than
// when the root broadcast U last (74,623,658.67).
TEST(CostRegression, LeastSquaresSolveCountsArePinned) {
  using qr3d::la::index_t;
  enum class Run { Solve, ExplicitQ, Tsqr };
  const auto counts = [](index_t m, index_t n, int ranks, Run run) {
    la::Matrix A = la::random_matrix(m, n, 31);
    la::Matrix b = la::random_matrix(m, 1, 32);
    sim::Machine machine(ranks);
    machine.run([&](backend::Comm& c) {
      if (run == Run::Tsqr) {
        const index_t mp = m / ranks;
        la::Matrix Al = la::copy<double>(A.block(c.rank() * mp, 0, mp, n));
        (void)qr3d::core::tsqr(c, la::ConstMatrixView(Al.view()));
        return;
      }
      qr3d::Factorization f = qr3d::Solver().factor(qr3d::DistMatrix::from_global(c, A.view()));
      if (run == Run::Solve) {
        (void)f.solve_least_squares(qr3d::DistMatrix::from_global(c, b.view()));
      } else {
        (void)f.explicit_q();
      }
    });
    return machine.critical_path();
  };
  struct Case {
    index_t m, n;
    int ranks;
    Run run;
    double flops, msgs, words;
  };
  const double tsqr_root_last = 74623658.666666657;
  for (const Case& w :
       {Case{8192, 64, 4, Run::Solve, 44596821.333333343, 90, 70910},
        Case{1024, 512, 4, Run::Solve, 535338325.33333343, 291, 4408218},
        Case{256, 24, 2, Run::Solve, 741552, 33, 5930},
        Case{1024, 512, 4, Run::ExplicitQ, 871011669.33333349, 271, 8165328},
        Case{8192, 64, 4, Run::Tsqr, tsqr_root_last - 64.0 * 64.0 * 2048.0, 10, 32896}}) {
    const char* what = w.run == Run::Solve       ? " solve"
                       : w.run == Run::ExplicitQ ? " explicit_q"
                                                 : " tsqr";
    SCOPED_TRACE(std::to_string(w.m) + "x" + std::to_string(w.n) + " P=" +
                 std::to_string(w.ranks) + what);
    const sim::CostClock cp = counts(w.m, w.n, w.ranks, w.run);
    EXPECT_DOUBLE_EQ(cp.flops, w.flops);
    EXPECT_DOUBLE_EQ(cp.msgs, w.msgs);
    EXPECT_DOUBLE_EQ(cp.words, w.words);
  }
}

// --- Adaptive group sizing. ---------------------------------------------------

// The serving layer's auto grouping (serve::choose_group_ranks) is pure
// model arithmetic over the plan cache's predicted costs, so its decisions
// are exactly reproducible — pin them.  The policy under pin: on the default
// declared profile (alpha = 1s: communication absurdly expensive) everything
// pipelines at g = 1; on a low-latency fabric a lone big problem takes the
// whole machine, a machine-filling batch of the same shape pipelines, and a
// memory-bound tall-skinny batch still prefers the full machine.
TEST(CostRegression, AdaptiveGroupSizingDecisionsArePinned) {
  serve::PlanCache cache;
  const qr3d::QrOptions qr = qr3d::QrOptions().with_tune_for_machine();
  const auto choose = [&](qr3d::la::index_t m, qr3d::la::index_t n, int jobs, int ranks,
                          const sim::CostParams& mp) {
    return serve::choose_group_ranks(m, n, jobs, ranks, qr, cache,
                                     backend::Kind::Simulated, mp);
  };

  const sim::CostParams def{};  // alpha=1, beta=1e-2, gamma=1e-6
  EXPECT_EQ(choose(64, 16, 8, 8, def).group_ranks, 1);
  EXPECT_EQ(choose(2048, 512, 1, 8, def).group_ranks, 1);

  const sim::CostParams hpc = sim::profiles::hpc_fabric();
  EXPECT_EQ(choose(64, 16, 8, 8, hpc).group_ranks, 1);      // small batch: pipeline
  EXPECT_EQ(choose(2048, 512, 1, 8, hpc).group_ranks, 8);   // lone big: whole machine
  EXPECT_EQ(choose(2048, 512, 8, 8, hpc).group_ranks, 1);   // filled batch: pipeline
  EXPECT_EQ(choose(65536, 512, 4, 8, hpc).group_ranks, 8);  // tall-skinny: parallel wins

  // Internal consistency: makespan = ceil(jobs / (P/g)) * per-job seconds.
  const serve::GroupChoice tall = choose(65536, 512, 4, 8, hpc);
  EXPECT_DOUBLE_EQ(tall.makespan_seconds,
                   std::ceil(4.0 / (8 / tall.group_ranks)) * tall.job_seconds);

  // Bitwise-reproducible: a second evaluation returns the identical choice
  // and costs nothing new — every candidate plan is already cached.
  const std::uint64_t misses_before = cache.misses();
  const serve::GroupChoice again = choose(65536, 512, 4, 8, hpc);
  EXPECT_EQ(again.group_ranks, tall.group_ranks);
  EXPECT_DOUBLE_EQ(again.job_seconds, tall.job_seconds);
  EXPECT_DOUBLE_EQ(again.makespan_seconds, tall.makespan_seconds);
  EXPECT_EQ(cache.misses(), misses_before);
}
