// Async serving edge cases (serve::BatchSolver with with_async()):
// futures (ready/wait/get), submit/execute overlap, concurrent submitters,
// clean shutdown via the destructor with jobs still pending, abort
// propagation into unresolved futures, failure isolation under the executor,
// periodic re-profiling, async-vs-blocking agreement at a pinned group
// layout, and traffic shaping under the executor (priority preemption, the
// per-job flush barrier, anti-starvation aging, bounded admission).  This suite runs under ThreadSanitizer in CI — every cross-thread
// handoff here (submit -> executor -> machine group root -> waiting driver)
// is a TSan claim, not just a correctness claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace la = qr3d::la;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;
using la::index_t;

namespace {

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

double solution_error(const la::Matrix& x, const la::Matrix& x_true) {
  la::Matrix dx = la::copy<double>(x.view());
  la::add(-1.0, la::ConstMatrixView(x_true.view()), dx.view());
  return la::frobenius_norm(dx.view()) / (1.0 + la::frobenius_norm(x_true.view()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Futures
// ---------------------------------------------------------------------------

TEST(AsyncServe, FuturesResolveWithoutFlush) {
  // No flush() anywhere: the executor picks jobs up on its own and the
  // handles behave as real futures.
  const index_t m = 48, n = 12;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2).with_async());
  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 8; ++j) {
    problems.push_back(planted_problem(m, n, 7000 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  for (int j = 0; j < 8; ++j) {
    handles[static_cast<std::size_t>(j)].wait();
    EXPECT_TRUE(handles[static_cast<std::size_t>(j)].ready());
    EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                             problems[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "job " << j;
    EXPECT_GT(handles[static_cast<std::size_t>(j)].stats().latency_seconds, 0.0);
    EXPECT_GE(handles[static_cast<std::size_t>(j)].stats().group_ranks, 1);
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_submitted, 8u);
  EXPECT_EQ(st.jobs_completed, 8u);
  EXPECT_EQ(st.jobs_failed, 0u);
  // One shape: exactly one sizing+tuning miss no matter how the executor
  // chopped the stream into dispatches.
  EXPECT_EQ(st.plan_cache_misses, 1u);
  EXPECT_EQ(st.plan_cache_hits, 7u);
  EXPECT_GE(st.flushes, 1u);
  EXPECT_GE(st.sessions, st.flushes);
}

TEST(AsyncServe, FlushIsACompletionBarrier) {
  const index_t m = 40, n = 10;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2).with_async());
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 12; ++j) {
    Planted p = planted_problem(m, n, 7100 + 2 * static_cast<std::uint64_t>(j));
    handles.push_back(srv.submit(std::move(p.A), std::move(p.b)));
  }
  srv.flush();
  for (const auto& h : handles) EXPECT_TRUE(h.ready());
}

TEST(AsyncServe, WorksOnTheSimulatedBackend) {
  // The executor drives whatever backend the options selected; the
  // simulator (run from the executor thread) must serve identically.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_async().with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  Planted p = planted_problem(36, 9, 7200);
  serve::JobHandle h = srv.submit(p.A, p.b);
  EXPECT_LT(solution_error(h.get(), p.x_true), 1e-10);
}

// ---------------------------------------------------------------------------
// Concurrent submitters
// ---------------------------------------------------------------------------

TEST(AsyncServe, ConcurrentSubmittersShareOneSolver) {
  const index_t m = 44, n = 11;
  const int kThreads = 4, kJobsPerThread = 6;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2).with_async());

  std::vector<std::vector<Planted>> problems(kThreads);
  std::vector<std::vector<serve::JobHandle>> handles(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t]() {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const std::uint64_t seed = 7300 + 100 * static_cast<std::uint64_t>(t) +
                                   2 * static_cast<std::uint64_t>(j);
        problems[static_cast<std::size_t>(t)].push_back(planted_problem(m, n, seed));
        handles[static_cast<std::size_t>(t)].push_back(
            srv.submit(problems[static_cast<std::size_t>(t)].back().A,
                       problems[static_cast<std::size_t>(t)].back().b));
      }
      // Half the threads also wait on their own futures concurrently.
      if (t % 2 == 0) {
        for (auto& h : handles[static_cast<std::size_t>(t)]) h.wait();
      }
    });
  }
  for (auto& t : submitters) t.join();
  srv.flush();

  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kJobsPerThread; ++j) {
      EXPECT_LT(solution_error(handles[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)].get(),
                               problems[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)].x_true),
                1e-10)
          << "thread " << t << " job " << j;
    }
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_submitted, static_cast<std::uint64_t>(kThreads * kJobsPerThread));
  EXPECT_EQ(st.jobs_completed, st.jobs_submitted);
  EXPECT_EQ(st.plan_cache_misses, 1u);  // one shape, whatever the interleaving
}

// ---------------------------------------------------------------------------
// Shutdown and abort
// ---------------------------------------------------------------------------

TEST(AsyncServe, DestructorWhileJobsPendingDrainsCleanly) {
  const index_t m = 48, n = 12;
  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  {
    serve::BatchSolver srv(serve::ServeOptions().with_ranks(2).with_async());
    for (int j = 0; j < 16; ++j) {
      problems.push_back(planted_problem(m, n, 7400 + 2 * static_cast<std::uint64_t>(j)));
      handles.push_back(srv.submit(problems.back().A, problems.back().b));
    }
    // Destroyed immediately: the destructor must drain every pending job.
  }
  for (int j = 0; j < 16; ++j) {
    ASSERT_TRUE(handles[static_cast<std::size_t>(j)].ready());
    // The job record is shared, so a resolved handle outlives its solver.
    EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                             problems[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "job " << j;
  }
}

TEST(AsyncServe, ExplicitShutdownClosesSubmissions) {
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2).with_async());
  Planted p = planted_problem(36, 9, 7500);
  serve::JobHandle h = srv.submit(p.A, p.b);
  srv.shutdown();
  EXPECT_TRUE(h.ready());
  EXPECT_LT(solution_error(h.get(), p.x_true), 1e-10);
  EXPECT_THROW(srv.submit(p.A, p.b), std::invalid_argument);
  srv.shutdown();  // idempotent
}

TEST(AsyncServe, AbortResolvesEveryFutureAndIsConsistent) {
  // Under an abort, every future must resolve — with its solution if the
  // job finished before the abort, with an error otherwise — and the
  // aggregate counters must account for every submitted job.  Which jobs
  // fall on which side is timing-dependent by nature; the invariants are
  // not.
  const index_t m = 64, n = 16;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2).with_async());
  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 32; ++j) {
    problems.push_back(planted_problem(m, n, 7600 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.abort();

  std::uint64_t ok = 0, failed = 0;
  for (int j = 0; j < 32; ++j) {
    ASSERT_TRUE(handles[static_cast<std::size_t>(j)].ready()) << "job " << j;
    try {
      const la::Matrix& x = handles[static_cast<std::size_t>(j)].get();
      EXPECT_LT(solution_error(x, problems[static_cast<std::size_t>(j)].x_true), 1e-10);
      ++ok;
    } catch (const std::exception&) {
      ++failed;
    }
  }
  const auto st = srv.stats();
  EXPECT_EQ(ok + failed, 32u);
  EXPECT_EQ(st.jobs_completed, ok);
  EXPECT_EQ(st.jobs_failed, failed);
  EXPECT_THROW(srv.submit(problems[0].A, problems[0].b), std::invalid_argument);
}

TEST(AsyncServe, BlockingModeAbortFailsAllQueuedFuturesDeterministically) {
  // Blocking mode has no executor: everything submitted is still queued, so
  // abort() must fail ALL of it — the deterministic half of abort
  // propagation into unresolved futures.
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2));
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 4; ++j) {
    Planted p = planted_problem(40, 10, 7700 + 2 * static_cast<std::uint64_t>(j));
    handles.push_back(srv.submit(std::move(p.A), std::move(p.b)));
  }
  srv.abort();
  for (const auto& h : handles) {
    ASSERT_TRUE(h.ready());
    EXPECT_THROW(h.get(), std::runtime_error);
  }
  EXPECT_EQ(srv.stats().jobs_failed, 4u);
  EXPECT_EQ(srv.stats().jobs_completed, 0u);
}

TEST(AsyncServe, AbortWinsOverAnInjectedStall) {
  // A fault-plan Stall blocks a rank (and with it the in-flight session)
  // until the machine aborts.  Driver-side abort() must win that race:
  // every future resolves (no hang), the counters stay consistent, and the
  // solver shuts down cleanly.  The plan is installed before the first
  // submission — the machine is only driver-accessible while idle.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async();
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(qr3d::fault::Plan::stall(1, 3));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 4; ++j) {
    problems.push_back(planted_problem(40, 10, 7800 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  // Wait until the executor has actually entered a machine session, so the
  // abort exercises the stalled-session path rather than the queued path.
  while (srv.stats().sessions == 0) std::this_thread::yield();
  srv.abort();

  std::uint64_t ok = 0, failed = 0;
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(handles[static_cast<std::size_t>(j)].ready()) << "job " << j;
    try {
      const la::Matrix& x = handles[static_cast<std::size_t>(j)].get();
      EXPECT_LT(solution_error(x, problems[static_cast<std::size_t>(j)].x_true), 1e-10);
      ++ok;
    } catch (const std::exception&) {
      ++failed;
    }
  }
  const auto st = srv.stats();
  EXPECT_EQ(ok + failed, 4u);
  EXPECT_EQ(st.jobs_completed, ok);
  EXPECT_EQ(st.jobs_failed, failed);
  EXPECT_GE(failed, 1u);  // the stalled session's in-flight job cannot finish
  // A stall is not a death: nothing was recovered, nothing marked dead.
  EXPECT_EQ(st.recovered, 0u);
}

TEST(AsyncServe, AbortWinsOverAnInjectedStallOnTheSimBackend) {
  // The same race on the simulator backend: abort()'s retry loop depends on
  // sim::Machine::request_abort() interrupting the stalled session — without
  // it the loop would busy-poll forever (the stall only releases on the
  // machine's abort flag, which nothing else sets).
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async().with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(qr3d::fault::Plan::stall(1, 3));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 4; ++j) {
    problems.push_back(planted_problem(40, 10, 8800 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  while (srv.stats().sessions == 0) std::this_thread::yield();
  srv.abort();

  std::uint64_t ok = 0, failed = 0;
  for (int j = 0; j < 4; ++j) {
    ASSERT_TRUE(handles[static_cast<std::size_t>(j)].ready()) << "job " << j;
    try {
      const la::Matrix& x = handles[static_cast<std::size_t>(j)].get();
      EXPECT_LT(solution_error(x, problems[static_cast<std::size_t>(j)].x_true), 1e-10);
      ++ok;
    } catch (const std::exception&) {
      ++failed;
    }
  }
  const auto st = srv.stats();
  EXPECT_EQ(ok + failed, 4u);
  EXPECT_EQ(st.jobs_completed, ok);
  EXPECT_EQ(st.jobs_failed, failed);
  EXPECT_GE(failed, 1u);  // the stalled session's in-flight job cannot finish
  EXPECT_EQ(st.recovered, 0u);
}

TEST(AsyncServe, RankDeathRecoveryUnderTheExecutor) {
  // The self-healing requeue driven by the executor thread: a one-shot kill
  // fails one session mid-batch, the unfinished jobs are requeued on the
  // surviving ranks, and every future still resolves with its solution.
  // flush() is the async barrier, so by the time it returns the attempts/
  // recovered stats are final.
  serve::ServeOptions opts;
  opts.with_ranks(4).with_group_ranks(2).with_async();
  serve::BatchSolver srv(opts);
  // Kill a rank of the FIRST group: round-robin assignment starts there, so
  // whatever batch sizes the executor happens to drain, the first session
  // gives that group a job and the one-shot kill fires deterministically.
  srv.machine().set_fault_plan(qr3d::fault::Plan::kill(1, 5));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 8; ++j) {
    problems.push_back(planted_problem(48, 8, 7900 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();

  bool any_recovered = false;
  for (int j = 0; j < 8; ++j) {
    const auto& h = handles[static_cast<std::size_t>(j)];
    ASSERT_TRUE(h.ready()) << "job " << j;
    EXPECT_LT(solution_error(h.get(), problems[static_cast<std::size_t>(j)].x_true), 1e-10)
        << "job " << j;
    EXPECT_GE(h.stats().attempts, 1) << "job " << j;
    if (h.stats().recovered) {
      any_recovered = true;
      EXPECT_GE(h.stats().attempts, 2) << "job " << j;
    }
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed, 8u);
  EXPECT_EQ(st.jobs_failed, 0u);
  EXPECT_GE(st.recovered, 1u);
  EXPECT_GT(st.attempts, 8u);
  EXPECT_TRUE(any_recovered);
}

// ---------------------------------------------------------------------------
// Failure isolation under the executor
// ---------------------------------------------------------------------------

TEST(AsyncServe, InvalidJobsStayIsolatedUnderTheExecutor) {
  const index_t m = 40, n = 10;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(3).with_async());
  Planted good1 = planted_problem(m, n, 7800);
  Planted good2 = planted_problem(m, n, 7802);
  la::Matrix wide = la::random_matrix(n, m, 7804);  // m < n: invalid for QR

  serve::JobHandle h1 = srv.submit(good1.A, good1.b);
  serve::JobHandle bad = srv.submit(wide, la::random_matrix(n, 1, 7805));
  serve::JobHandle h2 = srv.submit(good2.A, good2.b);

  EXPECT_THROW(bad.get(), std::invalid_argument);
  EXPECT_LT(solution_error(h1.get(), good1.x_true), 1e-10);
  EXPECT_LT(solution_error(h2.get(), good2.x_true), 1e-10);
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_failed, 1u);
  EXPECT_EQ(st.jobs_completed, 2u);
}

// ---------------------------------------------------------------------------
// Async agreement with blocking mode
// ---------------------------------------------------------------------------

TEST(AsyncServe, AsyncMatchesBlockingBitwiseAtPinnedGroupLayout) {
  // At a pinned group size the execution plan is independent of how the
  // executor chops the stream into dispatches, so async and blocking modes
  // must produce bitwise-identical solutions.  (Adaptive sizing is shape-
  // deterministic but batch-size-aware, so auto grouping only guarantees
  // this when the dispatch composition matches — pin g to compare.)
  const int P = 4, G = 2;
  std::vector<Planted> problems;
  for (int j = 0; j < 6; ++j)
    problems.push_back(
        planted_problem(40 + 8 * (j % 2), 10, 8000 + 2 * static_cast<std::uint64_t>(j)));

  auto solve = [&](bool async) {
    serve::ServeOptions opts;
    opts.with_ranks(P).with_group_ranks(G).with_async(async);
    serve::BatchSolver srv(opts);
    std::vector<serve::JobHandle> handles;
    for (const Planted& p : problems) handles.push_back(srv.submit(p.A, p.b));
    srv.flush();
    std::vector<la::Matrix> xs;
    for (const auto& h : handles) xs.push_back(h.get());
    return xs;
  };

  std::vector<la::Matrix> blocking = solve(false);
  std::vector<la::Matrix> async = solve(true);
  ASSERT_EQ(blocking.size(), async.size());
  for (std::size_t j = 0; j < blocking.size(); ++j) {
    ASSERT_EQ(blocking[j].rows(), async[j].rows());
    for (index_t i = 0; i < blocking[j].rows(); ++i)
      EXPECT_EQ(blocking[j](i, 0), async[j](i, 0)) << "problem " << j << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Adaptive grouping behavior (policy-level; exact pins live in
// test_cost_regression.cpp)
// ---------------------------------------------------------------------------

TEST(AdaptiveGrouping, BigLoneProblemsGetBigGroupsSmallBatchesPipeline) {
  serve::PlanCache cache;
  qr3d::QrOptions qr = qr3d::QrOptions().with_tune_for_machine();
  const sim::CostParams hpc = sim::profiles::hpc_fabric();

  // A lone big problem on a low-latency machine: take the whole machine.
  const serve::GroupChoice big =
      serve::choose_group_ranks(2048, 512, 1, 8, qr, cache, backend::Kind::Simulated, hpc);
  // A machine-filling batch of small problems: pipeline rank-per-job.
  const serve::GroupChoice small =
      serve::choose_group_ranks(64, 16, 8, 8, qr, cache, backend::Kind::Simulated, hpc);
  EXPECT_GT(big.group_ranks, small.group_ranks);
  EXPECT_EQ(small.group_ranks, 1);
  EXPECT_EQ(big.group_ranks, 8);
  EXPECT_GT(big.job_seconds, 0.0);
  EXPECT_GT(small.makespan_seconds, 0.0);

  // The candidate set: powers of two below P, plus P.
  EXPECT_EQ(serve::group_size_candidates(8), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(serve::group_size_candidates(6), (std::vector<int>{1, 2, 4, 6}));
  EXPECT_EQ(serve::group_size_candidates(1), (std::vector<int>{1}));
}

// ---------------------------------------------------------------------------
// Traffic shaping under the executor (priority preemption, the per-job flush
// barrier, aging, bounded admission) — every one of these is also a TSan
// claim on the scheduler/dispatcher handoffs.
// ---------------------------------------------------------------------------

namespace {

void high_priority_overtakes_backlog(qr3d::Backend bk) {
  // A big low-priority backlog is in flight; a high-priority job submitted
  // mid-drain must run next round (preemption at group-dispatch
  // granularity), not behind the whole backlog — the head-of-line blocking
  // the old whole-queue snapshot dispatch suffered from.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async().with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(bk));
  serve::BatchSolver srv(opts);

  const int kBacklog = 12;
  std::vector<Planted> big;
  std::vector<serve::JobHandle> lows;
  for (int j = 0; j < kBacklog; ++j) {
    big.push_back(planted_problem(384, 96, 8300 + 2 * static_cast<std::uint64_t>(j)));
    lows.push_back(srv.submit(big[static_cast<std::size_t>(j)].A,
                              big[static_cast<std::size_t>(j)].b,
                              serve::SubmitOptions().with_priority(serve::Priority::Low)));
  }
  // Wait for the executor to enter the backlog, then jump the line.
  while (srv.stats().sessions == 0) std::this_thread::yield();
  Planted small = planted_problem(48, 12, 8400);
  serve::JobHandle high =
      srv.submit(small.A, small.b, serve::SubmitOptions().with_priority(serve::Priority::High));
  srv.flush();

  EXPECT_LT(solution_error(high.get(), small.x_true), 1e-8);
  std::uint64_t last_low_round = 0;
  for (int j = 0; j < kBacklog; ++j) {
    const auto& h = lows[static_cast<std::size_t>(j)];
    EXPECT_LT(solution_error(h.get(), big[static_cast<std::size_t>(j)].x_true), 1e-8)
        << "job " << j;
    last_low_round = std::max(last_low_round, h.stats().round);
  }
  // The high job ran before the backlog finished: it waited out at most the
  // round in flight, never the queue.
  EXPECT_LT(high.stats().round, last_low_round);
}

}  // namespace

TEST(AsyncServe, HighPriorityOvertakesABigBacklog) {
  high_priority_overtakes_backlog(qr3d::Backend::Thread);
}

TEST(AsyncServe, HighPriorityOvertakesABigBacklogOnTheSimBackend) {
  high_priority_overtakes_backlog(qr3d::Backend::Simulated);
}

TEST(AsyncServe, FlushIsAPerJobBarrierNotACount) {
  // Pin the flush() contract under priority scheduling: a barrier for the
  // jobs submitted happens-before the call, and nothing more.  A concurrent
  // submitter keeps a stream of high-priority jobs arriving for the whole
  // duration, so (a) the old count-based wait ("completed+failed >= count at
  // entry") would be satisfied by LATER high-priority completions while the
  // earlier low-priority jobs still sit queued, and (b) a flush that tracked
  // later submissions would chase the stream and never return.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async().with_age_promote_after(
      std::chrono::milliseconds(50));  // keeps the lows' wait bounded on any machine
  serve::BatchSolver srv(opts);
  Planted small = planted_problem(32, 8, 8500);
  std::atomic<bool> stop{false};
  std::thread submitter([&]() {
    // Throttled so the executor keeps pace: the stream exists to overtake
    // the lows, not to flood the queue (and the post-test drain) unboundedly.
    for (int i = 0; i < 500 && !stop.load(std::memory_order_acquire); ++i) {
      (void)srv.submit(small.A, small.b,
                       serve::SubmitOptions().with_priority(serve::Priority::High));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<Planted> big;
  std::vector<serve::JobHandle> lows;
  for (int j = 0; j < 6; ++j) {
    big.push_back(planted_problem(256, 64, 8600 + 2 * static_cast<std::uint64_t>(j)));
    lows.push_back(srv.submit(big.back().A, big.back().b,
                              serve::SubmitOptions().with_priority(serve::Priority::Low)));
  }
  srv.flush();
  // The barrier: every pre-flush job has resolved, however many queued
  // high-priority jobs overtook them in the meantime.
  for (int j = 0; j < 6; ++j) {
    ASSERT_TRUE(lows[static_cast<std::size_t>(j)].ready()) << "job " << j;
    EXPECT_LT(solution_error(lows[static_cast<std::size_t>(j)].get(),
                             big[static_cast<std::size_t>(j)].x_true),
              1e-8)
        << "job " << j;
  }
  stop.store(true, std::memory_order_release);
  submitter.join();
  srv.shutdown();  // drains the stream's stragglers
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed + st.jobs_failed, st.jobs_submitted);
}

TEST(AsyncServe, AgingPreventsStarvationUnderSustainedHighLoad) {
  // Keep several high-priority jobs outstanding at all times — under strict
  // classes the lone low-priority job would never run.  Aging promotes its
  // effective class one step per 25ms waited, so within the (bounded) loop
  // it must get served.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async().with_age_promote_after(
      std::chrono::milliseconds(25));
  serve::BatchSolver srv(opts);

  Planted lowp = planted_problem(32, 8, 8700);
  serve::JobHandle low =
      srv.submit(lowp.A, lowp.b, serve::SubmitOptions().with_priority(serve::Priority::Low));

  Planted smalls = planted_problem(32, 8, 8702);
  std::deque<serve::JobHandle> outstanding;
  bool served = false;
  for (int i = 0; i < 5000; ++i) {
    while (outstanding.size() < 4) {
      outstanding.push_back(srv.submit(
          smalls.A, smalls.b, serve::SubmitOptions().with_priority(serve::Priority::High)));
    }
    outstanding.front().wait();
    outstanding.pop_front();
    if (low.ready()) {
      served = true;
      break;
    }
  }
  EXPECT_TRUE(served) << "low-priority job starved under sustained high-priority load";
  EXPECT_LT(solution_error(low.get(), lowp.x_true), 1e-8);
}

TEST(AsyncServe, AdmissionRejectsConsistentlyUnderTheExecutor) {
  // Bounded admission with the executor busy: one big job in the machine,
  // one job admitted into the queue, and the burst behind it fails fast —
  // every handle resolves (ready or AdmissionError), nothing hangs, and the
  // counters add up.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async().with_max_queue_depth(1);
  serve::BatchSolver srv(opts);

  Planted big = planted_problem(384, 96, 8800);
  serve::JobHandle busy = srv.submit(big.A, big.b);
  while (srv.stats().sessions == 0) std::this_thread::yield();  // big is in the machine

  Planted small = planted_problem(32, 8, 8802);
  std::vector<serve::JobHandle> burst;
  for (int j = 0; j < 4; ++j) burst.push_back(srv.submit(small.A, small.b));
  srv.flush();

  EXPECT_LT(solution_error(busy.get(), big.x_true), 1e-8);
  std::uint64_t rejected = 0;
  for (int j = 0; j < 4; ++j) {
    auto& h = burst[static_cast<std::size_t>(j)];
    ASSERT_TRUE(h.ready()) << "job " << j;  // flush resolved or admission did
    try {
      (void)h.get();
    } catch (const serve::AdmissionError& e) {
      ++rejected;
      EXPECT_EQ(e.max_queue_depth(), 1u);
      EXPECT_GE(e.queue_depth(), 1u);
    }
  }
  EXPECT_GE(rejected, 1u);  // the burst outran one queue slot
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_submitted, 5u);
  EXPECT_EQ(st.jobs_rejected, rejected);
  EXPECT_EQ(st.jobs_completed + st.jobs_failed, st.jobs_submitted);
  EXPECT_EQ(st.jobs_completed, 5u - rejected);
}
