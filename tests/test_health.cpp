// Tests for the fail-slow tolerance subsystem (src/health/) and its serving
// integration: deterministic retry backoff, rank quarantine probation, the
// wall-clock watchdog, the simulator's bit-reproducible virtual deadline,
// and BatchSolver stall recovery (watchdog timeout -> requeue -> bitwise
// identical solution, stalled rank quarantined then reinstated).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace fault = qr3d::fault;
namespace health = qr3d::health;
namespace la = qr3d::la;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;
using la::index_t;

namespace {

/// A consistent least-squares problem with a planted exact solution.
struct Planted {
  la::Matrix A, b, x_true;
};

Planted planted_problem(index_t m, index_t n, std::uint64_t seed) {
  Planted p;
  p.A = la::random_matrix(m, n, seed);
  p.x_true = la::random_matrix(n, 1, seed + 1);
  p.b = la::multiply<double>(la::Op::NoTrans, p.A.view(), la::Op::NoTrans, p.x_true.view());
  return p;
}

/// Bitwise equality of two matrices (no tolerance: recovery and conformance
/// must reproduce the clean run exactly, same group size => same arithmetic).
void expect_bitwise_equal(const la::Matrix& a, const la::Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      ASSERT_EQ(a(i, j), b(i, j)) << what << " differs at (" << i << ", " << j << ")";
}

/// Serving options shared by the stall-recovery tests: fixed group size 2 so
/// retries on a quarantine-shrunken machine still run at the same group size
/// (bitwise reproducibility), sim backend unless overridden.
serve::ServeOptions stall_opts(qr3d::Backend be) {
  serve::ServeOptions opts;
  opts.with_ranks(4)
      .with_group_ranks(2)
      .with_max_attempts(3)
      .with_session_timeout_factor(3.0)
      .with_qr(qr3d::QrOptions().with_tune_for_machine().with_backend(be));
  // Tiny declared params so the session-deadline floor governs on both
  // backends: the cost model predicts the factorization, not the session's
  // scatter/gather framing, so a tight factor over sim-scale predictions
  // would time out honest sessions.  On the simulator the floor is 0.05
  // VIRTUAL seconds (clean sessions charge microseconds, an injected stall
  // jumps straight to the deadline — zero wall cost); on threads it is 0.2
  // WALL seconds so a loaded CI box cannot trip it clean.
  opts.with_params(sim::CostParams{1e-7, 1e-9, 1e-10});
  return opts;
}

}  // namespace

// ---------------------------------------------------------------------------
// health::Backoff
// ---------------------------------------------------------------------------

TEST(Backoff, DeterministicJitteredExponential) {
  health::Backoff b(0.1, 10.0, 42);
  ASSERT_TRUE(b.enabled());
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double raw = std::min(10.0, 0.1 * std::ldexp(1.0, attempt - 1));
    const double d = b.delay(attempt, 7);
    EXPECT_GE(d, raw / 2.0) << "attempt " << attempt;
    EXPECT_LT(d, raw) << "attempt " << attempt;
    // Same (seed, key, attempt) -> bitwise the same delay.
    EXPECT_EQ(d, b.delay(attempt, 7)) << "attempt " << attempt;
    EXPECT_EQ(d, health::Backoff(0.1, 10.0, 42).delay(attempt, 7)) << "attempt " << attempt;
  }
}

TEST(Backoff, CapSaturatesTheRawDelay) {
  health::Backoff b(1.0, 4.0, 1);
  // Attempts 3, 4, 5... all raw-cap at 4.0: delays stay within [2, 4).
  for (int attempt = 3; attempt <= 20; ++attempt) {
    const double d = b.delay(attempt, 0);
    EXPECT_GE(d, 2.0) << "attempt " << attempt;
    EXPECT_LT(d, 4.0) << "attempt " << attempt;
  }
  // A cap below the base is raised to the base (delay in [base/2, base)).
  health::Backoff tight(2.0, 0.5, 1);
  EXPECT_EQ(tight.cap(), 2.0);
  EXPECT_GE(tight.delay(1, 0), 1.0);
  EXPECT_LT(tight.delay(1, 0), 2.0);
}

TEST(Backoff, BaseZeroDisables) {
  health::Backoff off(0.0, 10.0, 42);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.delay(1, 0), 0.0);
  EXPECT_EQ(off.delay(5, 123), 0.0);
}

TEST(Backoff, KeysDecorrelate) {
  // Different jobs (keys) at the same attempt draw different jitter; so do
  // different seeds at the same (key, attempt).
  health::Backoff b(1.0, 64.0, 42);
  EXPECT_NE(b.delay(1, 1), b.delay(1, 2));
  EXPECT_NE(b.delay(1, 1), health::Backoff(1.0, 64.0, 43).delay(1, 1));
}

// ---------------------------------------------------------------------------
// health::RankHealth
// ---------------------------------------------------------------------------

TEST(RankHealth, ProbationCountsDownToReinstatement) {
  health::RankHealth rh(2);
  EXPECT_TRUE(rh.quarantine(1));   // newly quarantined
  EXPECT_FALSE(rh.quarantine(1));  // already in quarantine
  EXPECT_TRUE(rh.is_quarantined(1));
  EXPECT_FALSE(rh.is_quarantined(0));
  EXPECT_EQ(rh.quarantined(), std::vector<int>({1}));
  EXPECT_EQ(rh.quarantined_count(), 1u);

  EXPECT_TRUE(rh.record_clean_session().empty());  // 2 -> 1 remaining
  EXPECT_TRUE(rh.is_quarantined(1));
  const auto reinstated = rh.record_clean_session();  // 1 -> 0: out
  EXPECT_EQ(reinstated, std::vector<int>({1}));
  EXPECT_FALSE(rh.is_quarantined(1));
  EXPECT_EQ(rh.quarantined_count(), 0u);
}

TEST(RankHealth, ReoffenseResetsTheClock) {
  health::RankHealth rh(2);
  EXPECT_TRUE(rh.quarantine(3));
  rh.record_clean_session();       // 1 remaining
  EXPECT_FALSE(rh.quarantine(3));  // re-offense: back to full probation
  rh.record_clean_session();       // 1 remaining again
  EXPECT_TRUE(rh.is_quarantined(3));
  EXPECT_EQ(rh.record_clean_session(), std::vector<int>({3}));
}

TEST(RankHealth, ZeroProbationDisablesQuarantine) {
  health::RankHealth rh(0);
  EXPECT_FALSE(rh.quarantine(2));
  EXPECT_FALSE(rh.is_quarantined(2));
  EXPECT_EQ(rh.quarantined_count(), 0u);
}

// ---------------------------------------------------------------------------
// health::Watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, FiresAfterTheDeadline) {
  health::Watchdog wd;
  std::atomic<int> fired{0};
  wd.arm(0.02, [&] {
    fired.fetch_add(1);
    return true;
  });
  // Wait well past the deadline, then disarm: it must report the firing.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(wd.disarm());
  EXPECT_EQ(fired.load(), 1);
}

TEST(Watchdog, DisarmBeforeTheDeadlineSuppressesTheCallback) {
  health::Watchdog wd;
  std::atomic<int> fired{0};
  wd.arm(10.0, [&] {
    fired.fetch_add(1);
    return true;
  });
  EXPECT_FALSE(wd.disarm());
  EXPECT_EQ(fired.load(), 0);
  // The watchdog is reusable: a second arming fires independently.
  wd.arm(0.01, [&] {
    fired.fetch_add(1);
    return true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(wd.disarm());
  EXPECT_EQ(fired.load(), 1);
}

TEST(Watchdog, RetriesUntilTheCallbackSucceeds) {
  // request_abort() returns false while the machine is idle; the watchdog
  // must keep retrying until the callback lands (returns true).
  health::Watchdog wd;
  std::atomic<int> calls{0};
  wd.arm(0.01, [&] { return calls.fetch_add(1) + 1 >= 3; });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(wd.disarm());
  EXPECT_EQ(calls.load(), 3);
}

// ---------------------------------------------------------------------------
// serve::classify_session: the dispatcher's pure recovery decision
// ---------------------------------------------------------------------------

TEST(ClassifySession, EveryInputCombination) {
  // All 32 combinations of (threw, threw RankDeath, any deaths, timed out,
  // any unfinished).  A RankDeath flag without a throw cannot happen and is
  // ignored; a clean session with an unfinished job and no death is the
  // dispatcher's assertion, not a decision.
  using Health = serve::SessionOutcome::Health;
  constexpr auto kDeath = serve::RetryCause::RankDeath;
  constexpr auto kTimeout = serve::RetryCause::Timeout;
  constexpr auto kNone = Health::None;
  constexpr auto kQuarantine = Health::QuarantineStalls;
  constexpr auto kCredit = Health::CreditClean;
  struct Row {
    bool threw, threw_rank_death, any_deaths, timed_out, any_unfinished;
    bool recoverable;
    serve::RetryCause cause;
    bool synthesize_death;
    Health health;
  };
  const Row rows[] = {
      {false, false, false, false, false, false, kDeath, false, kCredit},
      {false, false, false, false, true, false, kDeath, false, kCredit},
      {false, false, false, true, false, true, kTimeout, false, kQuarantine},
      {false, false, false, true, true, true, kTimeout, false, kQuarantine},
      {false, false, true, false, false, true, kDeath, false, kNone},
      // A death no survivor observed: the RankDeath is synthesized.
      {false, false, true, false, true, true, kDeath, true, kNone},
      {false, false, true, true, false, true, kTimeout, false, kQuarantine},
      {false, false, true, true, true, true, kTimeout, false, kQuarantine},
      {false, true, false, false, false, false, kDeath, false, kCredit},
      {false, true, false, false, true, false, kDeath, false, kCredit},
      {false, true, false, true, false, true, kTimeout, false, kQuarantine},
      {false, true, false, true, true, true, kTimeout, false, kQuarantine},
      {false, true, true, false, false, true, kDeath, false, kNone},
      {false, true, true, false, true, true, kDeath, true, kNone},
      {false, true, true, true, false, true, kTimeout, false, kQuarantine},
      {false, true, true, true, true, true, kTimeout, false, kQuarantine},
      {true, false, false, false, false, false, kDeath, false, kNone},
      // A generic error with no deaths and no timeout is final.
      {true, false, false, false, true, false, kDeath, false, kNone},
      {true, false, false, true, false, true, kTimeout, false, kQuarantine},
      // A timeout whose surfaced error is a generic abort: cause Timeout.
      {true, false, false, true, true, true, kTimeout, false, kQuarantine},
      {true, false, true, false, false, true, kDeath, false, kNone},
      {true, false, true, false, true, true, kDeath, false, kNone},
      {true, false, true, true, false, true, kTimeout, false, kQuarantine},
      {true, false, true, true, true, true, kTimeout, false, kQuarantine},
      {true, true, false, false, false, true, kDeath, false, kNone},
      {true, true, false, false, true, true, kDeath, false, kNone},
      {true, true, false, true, false, true, kTimeout, false, kQuarantine},
      {true, true, false, true, true, true, kTimeout, false, kQuarantine},
      {true, true, true, false, false, true, kDeath, false, kNone},
      {true, true, true, false, true, true, kDeath, false, kNone},
      {true, true, true, true, false, true, kTimeout, false, kQuarantine},
      // Timeout plus death: cause Timeout, and the stalls are quarantined.
      {true, true, true, true, true, true, kTimeout, false, kQuarantine},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "threw=" << r.threw << " threw_rank_death=" << r.threw_rank_death
                 << " any_deaths=" << r.any_deaths << " timed_out=" << r.timed_out
                 << " any_unfinished=" << r.any_unfinished);
    const serve::SessionOutcome out = serve::classify_session(
        r.threw, r.threw_rank_death, r.any_deaths, r.timed_out, r.any_unfinished);
    EXPECT_EQ(out.recoverable, r.recoverable);
    EXPECT_EQ(out.cause, r.cause);
    EXPECT_EQ(out.synthesize_death, r.synthesize_death);
    EXPECT_EQ(out.health, r.health);
  }
}

// ---------------------------------------------------------------------------
// The simulator's virtual deadline (bit-reproducible timeout firing)
// ---------------------------------------------------------------------------

TEST(SimDeadline, StallJumpsTheVirtualClockToTheDeadlineExactly) {
  const int P = 3;
  sim::Machine mach(P, sim::CostParams{});
  mach.set_fault_plan(fault::Plan::stall(0, 3));
  // The simulator enforces deadlines itself (virtual clock): true.
  EXPECT_TRUE(mach.set_session_deadline(5.0));

  bool caught = false;
  try {
    mach.run([](backend::Comm& c) {
      const int next = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      for (int it = 0; it < 3; ++it) {
        c.send(next, {1.0}, 7);
        (void)c.recv(prev, 7);
      }
    });
  } catch (const health::SessionTimeout& e) {
    caught = true;
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.deadline_seconds(), 5.0);
  }
  ASSERT_TRUE(caught) << "the stalled rank must surface health::SessionTimeout";
  EXPECT_TRUE(mach.last_run_timed_out());
  EXPECT_EQ(mach.last_run_stalls(), std::vector<int>({0}));
  // The whole point of the virtual deadline: the stalled rank's clock jumps
  // to EXACTLY the deadline — no wall time passes, the firing time is
  // bit-reproducible across runs and machines.
  EXPECT_EQ(mach.rank_clock(0).time, 5.0);

  // The machine stays usable: clear the deadline and run clean.
  EXPECT_TRUE(mach.set_session_deadline(0.0));
  mach.set_fault_plan(fault::Plan{});
  mach.run([](backend::Comm&) {});
  EXPECT_FALSE(mach.last_run_timed_out());
  EXPECT_TRUE(mach.last_run_stalls().empty());
}

TEST(SimDeadline, CleanRunUnderDeadlineDoesNotFire) {
  sim::Machine mach(2, sim::CostParams{});
  EXPECT_TRUE(mach.set_session_deadline(100.0));
  mach.run([](backend::Comm& c) {
    if (c.rank() == 0) c.send(1, {1.0}, 0);
    if (c.rank() == 1) (void)c.recv(0, 0);
  });
  EXPECT_FALSE(mach.last_run_timed_out());
  EXPECT_LT(mach.rank_clock(1).time, 100.0);
}

TEST(SimDeadline, SlowRunWithoutStallStillTimesOut) {
  // A deadline below the honest critical path fires too (fail-slow is about
  // the clock, not only injected stalls) — and deterministically.  Default
  // gamma = 1e-6 s/flop: 2e6 flops charge 2.0 simulated seconds > 1.5.
  sim::Machine mach(1, sim::CostParams{});
  EXPECT_TRUE(mach.set_session_deadline(1.5));
  bool caught = false;
  try {
    mach.run([](backend::Comm& c) { c.charge_flops(2.0e6); });
  } catch (const health::SessionTimeout& e) {
    caught = true;
    EXPECT_EQ(e.rank(), 0);
  }
  EXPECT_TRUE(caught);
  EXPECT_TRUE(mach.last_run_timed_out());
  EXPECT_TRUE(mach.last_run_stalls().empty());  // no injected stall: honest slowness
}

// ---------------------------------------------------------------------------
// Serving integration: stall -> watchdog timeout -> requeue -> recovery
// ---------------------------------------------------------------------------

namespace {

/// Run the stall-recovery scenario on `be`: 4 jobs, rank 1 stalls mid-first
/// session, the watchdog converts it to a timeout, unfinished jobs requeue
/// and every handle must match the clean solver's solutions bitwise.
void run_stall_recovery(qr3d::Backend be, bool async) {
  const index_t m = 64, n = 8;
  const int kJobs = 4;
  std::vector<Planted> problems;
  for (int j = 0; j < kJobs; ++j)
    problems.push_back(planted_problem(m, n, 500 + static_cast<std::uint64_t>(2 * j)));

  // Clean reference run: identical options, no faults.
  std::vector<la::Matrix> clean;
  {
    serve::BatchSolver srv(stall_opts(be));
    std::vector<serve::JobHandle> hs;
    for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
    srv.flush();
    for (auto& h : hs) clean.push_back(h.get());
  }

  auto opts = stall_opts(be);
  if (async) opts.with_async();
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::stall(1, 5));

  std::vector<serve::JobHandle> hs;
  for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
  srv.flush();

  bool saw_timeout_retry = false;
  for (int j = 0; j < kJobs; ++j) {
    const auto& h = hs[static_cast<std::size_t>(j)];
    ASSERT_TRUE(h.ready()) << "job " << j;
    expect_bitwise_equal(h.get(), clean[static_cast<std::size_t>(j)], "stall recovery");
    for (const auto& r : h.stats().retries)
      if (r.cause == serve::RetryCause::Timeout) saw_timeout_retry = true;
  }
  EXPECT_TRUE(saw_timeout_retry) << "some job must record a timeout-caused retry";

  const auto st = srv.stats();
  EXPECT_GE(st.session_timeouts, 1u);
  EXPECT_GE(st.requeues_timeout, 1u);
  EXPECT_GE(st.recovered, 1u);
  EXPECT_GE(st.ranks_quarantined, 1u);
  EXPECT_EQ(st.jobs_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.jobs_failed, 0u);
}

}  // namespace

TEST(ServeFailSlow, StallRecoveryBlockingSim) {
  run_stall_recovery(qr3d::Backend::Simulated, /*async=*/false);
}

TEST(ServeFailSlow, StallRecoveryAsyncSim) {
  run_stall_recovery(qr3d::Backend::Simulated, /*async=*/true);
}

TEST(ServeFailSlow, StallRecoveryBlockingThread) {
  run_stall_recovery(qr3d::Backend::Thread, /*async=*/false);
}

TEST(ServeFailSlow, StallRecoveryAsyncThread) {
  run_stall_recovery(qr3d::Backend::Thread, /*async=*/true);
}

TEST(ServeFailSlow, RecoveredSolutionsMatchAcrossBackends) {
  // Same problems, same stall plan, same tiny declared params on both
  // backends: the recovered solutions must agree bitwise with each other
  // (group size is pinned, so the arithmetic is identical).
  const index_t m = 64, n = 8;
  const int kJobs = 4;
  std::vector<Planted> problems;
  for (int j = 0; j < kJobs; ++j)
    problems.push_back(planted_problem(m, n, 900 + static_cast<std::uint64_t>(2 * j)));

  auto solve_on = [&](qr3d::Backend be) {
    auto opts = stall_opts(be);
    // Identical declared params on both backends so the tuner sees the same
    // machine and picks the same plan.
    opts.with_params(sim::CostParams{1e-7, 1e-9, 1e-10});
    serve::BatchSolver srv(opts);
    srv.machine().set_fault_plan(fault::Plan::stall(1, 5));
    std::vector<serve::JobHandle> hs;
    for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
    srv.flush();
    std::vector<la::Matrix> xs;
    for (auto& h : hs) xs.push_back(h.get());
    EXPECT_GE(srv.stats().session_timeouts, 1u);
    return xs;
  };

  const auto sim_x = solve_on(qr3d::Backend::Simulated);
  const auto thread_x = solve_on(qr3d::Backend::Thread);
  for (int j = 0; j < kJobs; ++j)
    expect_bitwise_equal(sim_x[static_cast<std::size_t>(j)],
                         thread_x[static_cast<std::size_t>(j)], "cross-backend recovery");
}

TEST(ServeFailSlow, QuarantinedRankIsReinstatedAfterProbation) {
  auto opts = stall_opts(qr3d::Backend::Simulated);
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::stall(1, 5));

  const auto p = planted_problem(64, 8, 1300);
  auto h = srv.submit(p.A, p.b);
  srv.flush();  // stall session + clean retry session (probation 2 -> 1)
  (void)h.get();

  auto st = srv.stats();
  ASSERT_GE(st.ranks_quarantined, 1u);
  EXPECT_GE(st.quarantined_now, 1u);

  // Clean sessions count down the probation; after enough of them the rank
  // is reinstated and the live-quarantine gauge returns to zero.
  for (int i = 0; i < 3; ++i) {
    auto hh = srv.submit(p.A, p.b);
    srv.flush();
    (void)hh.get();
  }
  st = srv.stats();
  EXPECT_GE(st.ranks_reinstated, 1u);
  EXPECT_EQ(st.quarantined_now, 0u);
}

TEST(ServeFailSlow, BackoffScheduleIsReproducible) {
  // Two identical serving runs under a fixed backoff seed record identical
  // per-retry delays (satellite: deterministic backoff, pinned end to end).
  const auto p = planted_problem(64, 8, 1500);
  auto run_once = [&] {
    auto opts = stall_opts(qr3d::Backend::Simulated);
    opts.with_retry_backoff(0.002, 0.008, 42);
    serve::BatchSolver srv(opts);
    srv.machine().set_fault_plan(fault::Plan::stall(1, 5));
    auto h = srv.submit(p.A, p.b);
    srv.flush();
    (void)h.get();
    return h.stats().retries;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_GE(first.size(), 1u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cause, second[i].cause) << "retry " << i;
    EXPECT_EQ(first[i].backoff_seconds, second[i].backoff_seconds) << "retry " << i;
    EXPECT_GT(first[i].backoff_seconds, 0.0) << "retry " << i;
    EXPECT_LT(first[i].backoff_seconds, 0.008) << "retry " << i;
  }
}

TEST(ServeFailSlow, SessionDeadlineCoversTheSlowestPlanInTheRound) {
  // A Balanced job dispatches to CholeskyQR2 at this shape, while an
  // Accurate rider of the same shape runs its own (slower-predicted)
  // Householder plan in the same session.  The session deadline must cover
  // the slowest plan it runs: a mixed round arms exactly the deadline of an
  // Accurate-only round.  Factor 1 and a single attempt: the Householder
  // serving path overruns its prediction here, so both rounds time out and
  // the Accurate handle reports the deadline its session was given.
  using qr3d::core::Accuracy;
  const auto p = planted_problem(4096, 32, 2300);
  auto deadline_of = [&](const std::vector<Accuracy>& contracts) {
    serve::ServeOptions opts;
    opts.with_ranks(4)
        .with_group_ranks(2)
        .with_max_attempts(1)
        .with_session_timeout_factor(1.0)
        .with_qr(qr3d::QrOptions().with_tune_for_machine().with_backend(
            qr3d::Backend::Simulated));
    serve::BatchSolver srv(opts);
    std::vector<serve::JobHandle> hs;
    for (Accuracy a : contracts)
      hs.push_back(srv.submit(p.A, p.b, serve::SubmitOptions().with_accuracy(a)));
    (void)srv.flush_for(600.0);  // errors stay in the handles
    EXPECT_EQ(srv.stats().sessions, 1u);
    try {
      (void)hs.back().get();
    } catch (const health::SessionTimeout& e) {
      return e.deadline_seconds();
    }
    ADD_FAILURE() << "the Accurate job must time out at factor 1";
    return 0.0;
  };
  const double accurate_only = deadline_of({Accuracy::Accurate});
  const double mixed = deadline_of({Accuracy::Balanced, Accuracy::Accurate});
  EXPECT_GT(accurate_only, 0.0);
  EXPECT_EQ(mixed, accurate_only);
}

// ---------------------------------------------------------------------------
// flush_for: the bounded flush satellite
// ---------------------------------------------------------------------------

TEST(ServeFailSlow, FlushForReportsAnIncompleteBarrierUnderAStall) {
  // No session timeout armed: the stalled session holds its jobs, so a
  // bounded flush must give up and report false instead of hanging forever
  // (the pre-fix sync bug).  abort() then resolves every handle.
  serve::ServeOptions opts;
  opts.with_ranks(4)
      .with_group_ranks(2)
      .with_async()
      .with_qr(qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Thread))
      .with_params(sim::CostParams{1e-7, 1e-9, 1e-10});
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::stall(1, 5));

  const auto p = planted_problem(64, 8, 1700);
  auto h = srv.submit(p.A, p.b);
  EXPECT_FALSE(srv.flush_for(0.25));
  srv.abort();
  ASSERT_TRUE(h.ready());
  EXPECT_THROW((void)h.get(), std::runtime_error);
}

TEST(ServeFailSlow, FlushForCompletesOnACleanQueue) {
  serve::BatchSolver srv(stall_opts(qr3d::Backend::Simulated));
  const auto p = planted_problem(64, 8, 1900);
  auto h = srv.submit(p.A, p.b);
  EXPECT_TRUE(srv.flush_for(30.0));
  EXPECT_TRUE(h.ready());
  (void)h.get();
  EXPECT_TRUE(srv.flush_for(0.01));  // empty queue: trivially complete
}

// ---------------------------------------------------------------------------
// Admission retry-after hint
// ---------------------------------------------------------------------------

TEST(ServeFailSlow, AdmissionErrorCarriesARetryAfterHint) {
  serve::ServeOptions opts;
  opts.with_ranks(2).with_max_queue_depth(1).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  const auto p = planted_problem(48, 8, 2100);

  // First dispatch establishes the per-job prediction the hint is built on.
  auto h0 = srv.submit(p.A, p.b);
  srv.flush();
  (void)h0.get();

  auto h1 = srv.submit(p.A, p.b);  // admitted (depth 1 = cap)
  auto h2 = srv.submit(p.A, p.b);  // rejected: over the cap
  ASSERT_TRUE(h2.ready());
  try {
    (void)h2.get();
    FAIL() << "expected AdmissionError";
  } catch (const serve::AdmissionError& e) {
    EXPECT_EQ(e.queue_depth(), 1u);
    EXPECT_GT(e.retry_after_seconds(), 0.0)
        << "hint = depth x predicted per-job seconds must be positive";
    EXPECT_NE(std::string(e.what()).find("retry-after"), std::string::npos);
  }
  EXPECT_GT(srv.stats().retry_after_seconds, 0.0);
  srv.flush();
  (void)h1.get();
}
