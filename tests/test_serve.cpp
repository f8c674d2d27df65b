// Tests for the serving layer (src/serve/): BatchSolver job lifecycle and
// failure isolation, the per-shape plan cache (hit/miss counters, sharing
// with Solver), sim<->thread conformance of batched results, and the
// profile -> tune -> serve loop (serve::profile_machine feeding the tuner).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace la = qr3d::la;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;
using la::index_t;
using qr3d::DistMatrix;

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

double solution_error(const la::Matrix& x, const la::Matrix& x_true) {
  la::Matrix dx = la::copy<double>(x.view());
  la::add(-1.0, la::ConstMatrixView(x_true.view()), dx.view());
  return la::frobenius_norm(dx.view()) / (1.0 + la::frobenius_norm(x_true.view()));
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchSolver lifecycle
// ---------------------------------------------------------------------------

TEST(BatchSolver, EmptyBatchIsANoOp) {
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2));
  srv.flush();  // nothing pending: no machine session
  EXPECT_EQ(srv.stats().flushes, 0u);
  EXPECT_EQ(srv.stats().jobs_submitted, 0u);
  EXPECT_EQ(srv.solve_all({}).size(), 0u);
  EXPECT_EQ(srv.stats().jobs_completed, 0u);
  EXPECT_EQ(srv.stats().serve_seconds, 0.0);
}

TEST(BatchSolver, SameShapeBatchSolvesAndCaches) {
  const index_t m = 48, n = 12;
  const int kJobs = 8;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4));
  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < kJobs; ++j) {
    problems.push_back(planted_problem(m, n, 100 + static_cast<std::uint64_t>(2 * j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
    EXPECT_FALSE(handles.back().ready());
  }
  srv.flush();

  for (int j = 0; j < kJobs; ++j) {
    ASSERT_TRUE(handles[static_cast<std::size_t>(j)].ready());
    const la::Matrix& x = handles[static_cast<std::size_t>(j)].get();
    EXPECT_EQ(x.rows(), n);
    EXPECT_EQ(x.cols(), 1);
    EXPECT_LT(solution_error(x, problems[static_cast<std::size_t>(j)].x_true), 1e-10)
        << "job " << j;
  }

  const auto& st = srv.stats();
  EXPECT_EQ(st.jobs_submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.jobs_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.jobs_failed, 0u);
  EXPECT_EQ(st.flushes, 1u);
  // One shape: the first job resolves (miss), every other job reuses.
  EXPECT_EQ(st.plan_cache_misses, 1u);
  EXPECT_EQ(st.plan_cache_hits, static_cast<std::uint64_t>(kJobs - 1));
  EXPECT_FALSE(handles[0].stats().plan_cache_hit);
  EXPECT_TRUE(handles[1].stats().plan_cache_hit);
  EXPECT_GT(st.serve_seconds, 0.0);
  EXPECT_GT(st.problems_per_second(), 0.0);
}

TEST(BatchSolver, MixedShapesHitAndMissCountersAreExact) {
  // Shapes: S1, S2, S1, S2, S1 -> 2 misses, 3 hits (per-shape resolution).
  // group_ranks pinned so the plan key's rank count is batch-size-independent.
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_group_ranks(2));
  std::vector<std::pair<index_t, index_t>> shapes = {
      {48, 12}, {64, 16}, {48, 12}, {64, 16}, {48, 12}};
  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (std::size_t j = 0; j < shapes.size(); ++j) {
    problems.push_back(
        planted_problem(shapes[j].first, shapes[j].second, 300 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems[j].A, problems[j].b));
  }
  srv.flush();
  for (std::size_t j = 0; j < shapes.size(); ++j) {
    EXPECT_LT(solution_error(handles[j].get(), problems[j].x_true), 1e-10) << "job " << j;
    EXPECT_EQ(handles[j].stats().plan_cache_hit, j >= 2);
  }
  EXPECT_EQ(srv.stats().plan_cache_misses, 2u);
  EXPECT_EQ(srv.stats().plan_cache_hits, 3u);
  EXPECT_EQ(srv.plan_cache()->size(), 2u);
}

TEST(BatchSolver, InvalidJobPropagatesWithoutPoisoningTheBatch) {
  const index_t m = 40, n = 10;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(3));

  Planted good1 = planted_problem(m, n, 500);
  Planted good2 = planted_problem(m, n, 502);
  la::Matrix wide = la::random_matrix(n, m, 504);       // m < n: invalid for QR
  la::Matrix mismatched_b = la::random_matrix(m + 1, 1, 505);  // wrong row count

  serve::JobHandle h1 = srv.submit(good1.A, good1.b);
  serve::JobHandle bad_shape = srv.submit(wide, la::random_matrix(n, 1, 506));
  serve::JobHandle bad_rhs = srv.submit(good2.A, mismatched_b);
  serve::JobHandle h2 = srv.submit(good2.A, good2.b);
  srv.flush();

  EXPECT_THROW(bad_shape.get(), std::invalid_argument);
  EXPECT_THROW(bad_rhs.get(), std::invalid_argument);
  EXPECT_THROW(bad_shape.stats(), std::invalid_argument);
  // The failures are isolated: both valid jobs solved correctly.
  EXPECT_LT(solution_error(h1.get(), good1.x_true), 1e-10);
  EXPECT_LT(solution_error(h2.get(), good2.x_true), 1e-10);
  EXPECT_EQ(srv.stats().jobs_failed, 2u);
  EXPECT_EQ(srv.stats().jobs_completed, 2u);

  // The machine is not poisoned for later flushes either.
  Planted good3 = planted_problem(m, n, 510);
  serve::JobHandle h3 = srv.submit(good3.A, good3.b);
  EXPECT_LT(solution_error(h3.get(), good3.x_true), 1e-10);  // auto-flush
  EXPECT_EQ(srv.stats().flushes, 2u);
}

TEST(BatchSolver, SolutionAutoFlushesAndSolveAllReturnsInOrder) {
  const index_t m = 36, n = 9;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(2));
  Planted p = planted_problem(m, n, 600);
  serve::JobHandle h = srv.submit(p.A, p.b);
  // No explicit flush: get() drives it.
  EXPECT_LT(solution_error(h.get(), p.x_true), 1e-10);

  std::vector<std::pair<la::Matrix, la::Matrix>> bulk;
  std::vector<Planted> planted;
  for (int j = 0; j < 5; ++j) {
    planted.push_back(planted_problem(m + 4 * j, n, 700 + 2 * static_cast<std::uint64_t>(j)));
    bulk.emplace_back(planted.back().A, planted.back().b);
  }
  std::vector<la::Matrix> xs = srv.solve_all(std::move(bulk));
  ASSERT_EQ(xs.size(), 5u);
  for (int j = 0; j < 5; ++j)
    EXPECT_LT(solution_error(xs[static_cast<std::size_t>(j)], planted[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "problem " << j;
}

// ---------------------------------------------------------------------------
// Cross-backend conformance of batched results
// ---------------------------------------------------------------------------

TEST(BatchSolver, SimAndThreadBackendsProduceBitwiseIdenticalSolutions) {
  // Same problems, same declared machine parameters, same pinned group
  // layout: the batch must decompose and solve identically on the simulator
  // (the oracle) and the real threaded machine — bitwise identical, like the
  // rest of the conformance suite.
  const int P = 4, G = 2;
  std::vector<Planted> problems;
  for (int j = 0; j < 6; ++j)
    problems.push_back(
        planted_problem(40 + 8 * (j % 2), 10, 800 + 2 * static_cast<std::uint64_t>(j)));

  auto solve_on = [&](qr3d::Backend kind) {
    serve::ServeOptions opts;
    opts.with_ranks(P).with_group_ranks(G).with_qr(
        qr3d::QrOptions().with_tune_for_machine().with_backend(kind));
    serve::BatchSolver srv(opts);
    std::vector<std::pair<la::Matrix, la::Matrix>> bulk;
    for (const Planted& p : problems) bulk.emplace_back(p.A, p.b);
    return srv.solve_all(std::move(bulk));
  };

  std::vector<la::Matrix> sim_xs = solve_on(qr3d::Backend::Simulated);
  std::vector<la::Matrix> thr_xs = solve_on(qr3d::Backend::Thread);
  ASSERT_EQ(sim_xs.size(), thr_xs.size());
  for (std::size_t j = 0; j < sim_xs.size(); ++j) {
    ASSERT_EQ(sim_xs[j].rows(), thr_xs[j].rows());
    for (index_t i = 0; i < sim_xs[j].rows(); ++i)
      EXPECT_EQ(sim_xs[j](i, 0), thr_xs[j](i, 0)) << "problem " << j << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Accuracy contracts: plan dispatch and the in-session fallback
// ---------------------------------------------------------------------------

TEST(AccuracyContract, ResolveShapePlanDispatchesByContract) {
  // Tall-skinny shape where the cost model predicts CholeskyQR2 beats the
  // Householder plan: fast and balanced dispatch it with their matching
  // guards, accurate never does, and the Householder fields stay filled as
  // the in-session fallback plan.
  const index_t m = 512, n = 32;
  const int P = 4;
  const qr3d::QrOptions qr;
  const sim::CostParams mp{};
  serve::PlanCache cache;

  const serve::Plan fast = serve::resolve_shape_plan(m, n, P, qr, cache, backend::Kind::Simulated,
                                                     mp, qr3d::core::Accuracy::Fast);
  EXPECT_EQ(fast.algorithm, serve::PlanAlgorithm::CholeskyQr2);
  EXPECT_TRUE(fast.use_float);
  EXPECT_EQ(fast.max_condition, qr3d::core::kFastMaxCondition);

  const serve::Plan balanced = serve::resolve_shape_plan(
      m, n, P, qr, cache, backend::Kind::Simulated, mp, qr3d::core::Accuracy::Balanced);
  EXPECT_EQ(balanced.algorithm, serve::PlanAlgorithm::CholeskyQr2);
  EXPECT_FALSE(balanced.use_float);
  EXPECT_EQ(balanced.max_condition, qr3d::core::kBalancedMaxCondition);

  const serve::Plan accurate = serve::resolve_shape_plan(
      m, n, P, qr, cache, backend::Kind::Simulated, mp, qr3d::core::Accuracy::Accurate);
  EXPECT_EQ(accurate.algorithm, serve::PlanAlgorithm::Householder);

  // The three contracts key separately: one shape, three cached plans.
  EXPECT_EQ(cache.size(), 3u);

  // On one rank the model never prefers CholeskyQR2 (2x the local flops of
  // Householder QR with no communication to save): the predicted-time
  // predicate, not a shape whitelist, keeps the fast path away.
  serve::PlanCache solo;
  const serve::Plan p1 = serve::resolve_shape_plan(m, n, 1, qr, solo, backend::Kind::Simulated,
                                                   mp, qr3d::core::Accuracy::Fast);
  EXPECT_EQ(p1.algorithm, serve::PlanAlgorithm::Householder);

  // A measured float speedup makes fast plans predict strictly cheaper.
  serve::PlanCache c1, c2;
  const serve::Plan full = serve::resolve_shape_plan(m, n, P, qr, c1, backend::Kind::Simulated,
                                                     mp, qr3d::core::Accuracy::Fast, 1.0);
  const serve::Plan half = serve::resolve_shape_plan(m, n, P, qr, c2, backend::Kind::Simulated,
                                                     mp, qr3d::core::Accuracy::Fast, 0.5);
  EXPECT_LT(half.predicted.time(mp), full.predicted.time(mp));
}

TEST(AccuracyContract, FastAndBalancedJobsRideCholeskyQr2EndToEnd) {
  // Shape where dispatch picks CholeskyQR2 (see ResolveShapePlanDispatchesByContract);
  // the group size is pinned because the default declared profile's adaptive
  // sizing pipelines at one rank per job, where Householder wins on flops.
  const index_t m = 512, n = 32;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_group_ranks(4));
  Planted pf = planted_problem(m, n, 910);
  Planted pb = planted_problem(m, n, 912);
  serve::JobHandle hf =
      srv.submit(pf.A, pf.b, serve::SubmitOptions().with_accuracy(qr3d::core::Accuracy::Fast));
  serve::JobHandle hb = srv.submit(
      pb.A, pb.b, serve::SubmitOptions().with_accuracy(qr3d::core::Accuracy::Balanced));
  srv.flush();

  // Both jobs dispatched the fast path and neither needed the fallback; the
  // float first pass gives the fast job float-level solution accuracy, the
  // balanced job stays at double.
  EXPECT_EQ(hf.stats().accuracy, qr3d::core::Accuracy::Fast);
  EXPECT_EQ(hb.stats().accuracy, qr3d::core::Accuracy::Balanced);
  EXPECT_EQ(hf.stats().cholesky_fallbacks, 0);
  EXPECT_EQ(hb.stats().cholesky_fallbacks, 0);
  EXPECT_LT(solution_error(hf.get(), pf.x_true), 1e-4);
  EXPECT_LT(solution_error(hb.get(), pb.x_true), 1e-10);
  EXPECT_EQ(srv.stats().jobs_choleskyqr2, 2u);
  EXPECT_EQ(srv.stats().cholesky_fallbacks, 0u);
}

TEST(AccuracyContract, AccurateForcesTheHouseholderPath) {
  const index_t m = 512, n = 32;
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_group_ranks(4));
  Planted p = planted_problem(m, n, 914);
  serve::JobHandle h = srv.submit(
      p.A, p.b, serve::SubmitOptions().with_accuracy(qr3d::core::Accuracy::Accurate));
  srv.flush();
  EXPECT_LT(solution_error(h.get(), p.x_true), 1e-10);
  EXPECT_EQ(srv.stats().jobs_choleskyqr2, 0u);
  EXPECT_EQ(srv.stats().cholesky_fallbacks, 0u);
}

TEST(AccuracyContract, IllConditionedJobFallsBackToHouseholderInSession) {
  // kappa = 1e8 is past the balanced guard (1e6): the plan still dispatches
  // CholeskyQR2 (dispatch sees only the shape), the guard trips inside the
  // session on every rank together, and the job is retried with the plan's
  // Householder fields — same session, correct answer, fallback counted.
  const index_t m = 512, n = 32;
  la::Matrix A = la::graded_matrix(m, n, 1e8, 916);
  la::Matrix x_true = la::random_matrix(n, 1, 917);
  la::Matrix b =
      la::multiply<double>(la::Op::NoTrans, A.view(), la::Op::NoTrans, x_true.view());

  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_group_ranks(4));
  serve::JobHandle h =
      srv.submit(A, b, serve::SubmitOptions().with_accuracy(qr3d::core::Accuracy::Balanced));
  // A well-conditioned rider in the same flush must not be disturbed.
  Planted ok = planted_problem(m, n, 918);
  serve::JobHandle hok = srv.submit(
      ok.A, ok.b, serve::SubmitOptions().with_accuracy(qr3d::core::Accuracy::Balanced));
  srv.flush();

  EXPECT_EQ(h.stats().cholesky_fallbacks, 1);
  EXPECT_LT(solution_error(h.get(), x_true), 1e-4);  // kappa-limited forward error
  EXPECT_EQ(hok.stats().cholesky_fallbacks, 0);
  EXPECT_LT(solution_error(hok.get(), ok.x_true), 1e-10);
  EXPECT_EQ(srv.stats().cholesky_fallbacks, 1u);
  EXPECT_GE(srv.stats().jobs_choleskyqr2, 2u);
  EXPECT_EQ(srv.stats().jobs_failed, 0u);
}

// ---------------------------------------------------------------------------
// Plan cache and Solver sharing
// ---------------------------------------------------------------------------

TEST(PlanCache, SolverSharesTheCacheAcrossRanksAndCalls) {
  const index_t m = 64, n = 32;  // m/n < P: the tuned 3D path
  const int P = 4;
  qr3d::Solver solver(qr3d::QrOptions().with_tune_for_machine());
  la::Matrix A = la::random_matrix(m, n, 900);
  sim::Machine machine(P);
  machine.run([&](backend::Comm& c) {
    solver.factor(DistMatrix::from_global(c, A.view()));
    solver.factor(DistMatrix::from_global(c, A.view()));
  });
  // P ranks x 2 factors = 8 lookups of one key: exactly one tune.
  EXPECT_EQ(solver.plan_cache()->misses(), 1u);
  EXPECT_EQ(solver.plan_cache()->hits(), static_cast<std::uint64_t>(2 * P - 1));
  EXPECT_EQ(solver.plan_cache()->size(), 1u);
}

TEST(PlanCache, KeyIncludesMachineParameters) {
  serve::PlanCache cache;
  const sim::CostParams cloud = sim::profiles::cloud();
  const sim::CostParams hpc = sim::profiles::hpc_fabric();
  const serve::PlanKey k1 = serve::make_plan_key(256, 64, 8, qr3d::Dist::CyclicRows,
                                                 backend::Kind::Simulated, cloud);
  const serve::PlanKey k2 = serve::make_plan_key(256, 64, 8, qr3d::Dist::CyclicRows,
                                                 backend::Kind::Simulated, hpc);
  cache.lookup_or_tune(k1, cloud);
  cache.lookup_or_tune(k2, hpc);  // different machine: its own entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  cache.lookup_or_tune(k1, cloud);
  EXPECT_EQ(cache.hits(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PlanCache, LruEvictionKeepsASweepBounded) {
  // A shape sweep past the capacity stays bounded: every insert past the cap
  // evicts the least-recently-used plan, counted in evictions().
  serve::PlanCache cache(4);
  const sim::CostParams cloud = sim::profiles::cloud();
  auto key = [&](index_t m) {
    return serve::make_plan_key(m, 16, 4, qr3d::Dist::CyclicRows, backend::Kind::Simulated,
                                cloud);
  };
  for (index_t m = 64; m < 64 + 10 * 32; m += 32) cache.lookup_or_tune(key(m), cloud);
  EXPECT_EQ(cache.size(), 4u);  // bounded, not 10
  EXPECT_EQ(cache.misses(), 10u);
  EXPECT_EQ(cache.evictions(), 6u);
  EXPECT_EQ(cache.capacity(), 4u);
  // The 4 most recent shapes survived; the oldest re-tunes on re-miss —
  // a fresh miss, never an error — and evicts the then-LRU survivor.
  EXPECT_TRUE(cache.contains(key(64 + 9 * 32)));
  EXPECT_FALSE(cache.contains(key(64)));
  cache.lookup_or_tune(key(64), cloud);
  EXPECT_EQ(cache.misses(), 11u);
  EXPECT_EQ(cache.evictions(), 7u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(PlanCache, LookupFreshensRecency) {
  serve::PlanCache cache(2);
  const sim::CostParams cloud = sim::profiles::cloud();
  auto key = [&](index_t m) {
    return serve::make_plan_key(m, 16, 4, qr3d::Dist::CyclicRows, backend::Kind::Simulated,
                                cloud);
  };
  cache.lookup_or_tune(key(64), cloud);
  cache.lookup_or_tune(key(96), cloud);
  cache.lookup_or_tune(key(64), cloud);  // freshen 64: 96 is now the LRU
  cache.lookup_or_tune(key(128), cloud);
  EXPECT_TRUE(cache.contains(key(64)));
  EXPECT_FALSE(cache.contains(key(96)));
  EXPECT_EQ(cache.evictions(), 1u);
  // Shrinking the capacity evicts (and counts) at once; 0 = unbounded.
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  serve::PlanCache unbounded(0);
  for (index_t m = 64; m < 64 + 8 * 32; m += 32) unbounded.lookup_or_tune(key(m), cloud);
  EXPECT_EQ(unbounded.size(), 8u);
  EXPECT_EQ(unbounded.evictions(), 0u);
}

TEST(PlanCache, ServeSweepPastCapacityStaysBoundedAndRetunes) {
  // End-to-end: a BatchSolver with a small plan-cache capacity serves a
  // shape sweep wider than the cache.  The cache stays bounded, evictions
  // surface in Stats, and a re-encountered evicted shape simply re-tunes.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  srv.plan_cache()->set_capacity(3);
  for (int round = 0; round < 2; ++round) {
    for (int s = 0; s < 6; ++s) {
      const index_t m = 48 + 16 * static_cast<index_t>(s);
      const Planted p = planted_problem(m, 12, 5000 + 10 * static_cast<std::uint64_t>(s));
      auto h = srv.submit(p.A, p.b);
      srv.flush();
      EXPECT_LT(solution_error(h.get(), p.x_true), 1e-10) << "shape " << s;
    }
  }
  EXPECT_LE(srv.plan_cache()->size(), 3u);
  const auto st = srv.stats();
  EXPECT_GT(st.plan_cache_evictions, 0u);
  EXPECT_EQ(st.jobs_completed, 12u);
}

// ---------------------------------------------------------------------------
// profile -> tune -> serve
// ---------------------------------------------------------------------------

TEST(ProfileMachine, FitsPositiveParametersOnTheThreadBackend) {
  backend::ThreadMachine machine(2);
  serve::ProfileOptions po;
  po.pingpong_reps = 32;
  po.stream_words = 4096;
  po.stream_reps = 4;
  po.gemm_size = 48;
  po.gemm_reps = 2;
  const serve::MachineProfile prof = serve::profile_machine(machine, po);
  EXPECT_TRUE(prof.comm_measured);
  EXPECT_GT(prof.fitted.alpha, 0.0);
  EXPECT_GT(prof.fitted.beta, 0.0);
  EXPECT_GT(prof.fitted.gamma, 0.0);
  EXPECT_GT(prof.oneway_small_seconds, 0.0);
  EXPECT_GT(prof.stream_words_per_second, 0.0);
  EXPECT_GT(prof.gemm_flops_per_second, 0.0);
  // The fitted profile is tuner-ready (would throw on non-positive params).
  const qr3d::cost::Tuned3d t = qr3d::cost::tune_3d(4096, 1024, 64, prof.fitted);
  EXPECT_GE(t.delta, 0.0);
  EXPECT_LE(t.delta, 1.0);
}

TEST(ProfileMachine, SingleRankKeepsDeclaredCommParams) {
  sim::CostParams declared = sim::profiles::commodity_cluster();
  backend::ThreadMachine machine(1, declared);
  serve::ProfileOptions po;
  po.gemm_size = 32;
  const serve::MachineProfile prof = serve::profile_machine(machine, po);
  EXPECT_FALSE(prof.comm_measured);
  EXPECT_EQ(prof.fitted.alpha, declared.alpha);
  EXPECT_EQ(prof.fitted.beta, declared.beta);
  EXPECT_GT(prof.fitted.gamma, 0.0);
}

TEST(ProfileMachine, BatchSolverConsumesTheFittedProfileEndToEnd) {
  serve::ProfileOptions po;
  po.pingpong_reps = 32;
  po.stream_words = 4096;
  po.stream_reps = 4;
  po.gemm_size = 48;
  po.gemm_reps = 2;
  serve::BatchSolver srv(
      serve::ServeOptions().with_ranks(2).with_profile().with_profile_options(po));
  ASSERT_TRUE(srv.profile().has_value());
  EXPECT_TRUE(srv.profile()->comm_measured);
  // The machine the jobs run on carries the *fitted* parameters, so the
  // tuner (and the plan-cache key) sees measured numbers.
  EXPECT_EQ(srv.machine_params().alpha, srv.profile()->fitted.alpha);
  EXPECT_EQ(srv.machine_params().beta, srv.profile()->fitted.beta);
  EXPECT_EQ(srv.machine_params().gamma, srv.profile()->fitted.gamma);
  EXPECT_EQ(srv.machine_params().name, "measured");

  Planted p = planted_problem(64, 32, 1000);
  serve::JobHandle h = srv.submit(p.A, p.b);
  srv.flush();
  EXPECT_LT(solution_error(h.get(), p.x_true), 1e-10);
  EXPECT_EQ(srv.stats().plan_cache_misses, 1u);
}

TEST(Tuner, RejectsDegenerateParamsAndFitClampsNoise) {
  sim::CostParams bad;
  bad.alpha = -1.0;  // a noisy fit gone negative
  EXPECT_THROW(qr3d::cost::tune_3d(1024, 256, 16, bad), std::invalid_argument);
  EXPECT_THROW(qr3d::cost::tune_1d(1024, 16, 16, bad), std::invalid_argument);
  sim::CostParams zeros{0.0, 0.0, 0.0, "all-zero"};
  EXPECT_THROW(qr3d::cost::tune_3d(1024, 256, 16, zeros), std::invalid_argument);
  // A noisy fit (negative beta after subtracting latency) clamps positive.
  const sim::CostParams fitted = qr3d::cost::fit_params(1e-6, -3e-9, 1e-11);
  EXPECT_GT(fitted.beta, 0.0);
  EXPECT_EQ(fitted.alpha, 1e-6);
  EXPECT_THROW(qr3d::cost::fit_params(1.0, 0.5, std::nan("")), std::invalid_argument);
}
