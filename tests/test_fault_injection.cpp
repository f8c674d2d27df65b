// The fault subsystem, simulator-first: deterministic kill/stall plans
// (fault::Plan + backend::Machine::set_fault_plan), death detection at the
// next communication op (fault::RankDeath), checksum-protected TSQR
// (fault::coded_tsqr) completing under <= f deaths, and the serving layer's
// self-healing requeue (serve::BatchSolver attempts/recovered).  The thread
// backend runs the same scenarios — this suite is in the TSan CI job, so the
// dead-rank wakeups and requeue handoffs are data-race claims too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace fault = qr3d::fault;
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

/// || R^T R - A^T A || / || A^T A ||: the Gram identity any valid R-factor of
/// A satisfies, checkable without Q.
double gram_error(const la::Matrix& A, const la::Matrix& R) {
  la::Matrix ata =
      la::multiply<double>(la::Op::ConjTrans, A.view(), la::Op::NoTrans, A.view());
  la::Matrix rtr =
      la::multiply<double>(la::Op::ConjTrans, R.view(), la::Op::NoTrans, R.view());
  la::add(-1.0, la::ConstMatrixView(ata.view()), rtr.view());
  return la::frobenius_norm(rtr.view()) / (1.0 + la::frobenius_norm(ata.view()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Injection semantics on the simulator (the oracle)
// ---------------------------------------------------------------------------

TEST(FaultInjection, KilledRankIsDetectedByItsReceiver) {
  sim::Machine machine(4);
  machine.set_fault_plan(fault::Plan::kill(1, 1));  // rank 1 dies at its first op
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {1.0}, 5);  // never happens: the op kills it
    if (c.rank() == 0) (void)c.recv(1, 5);   // detects the death
  }),
               fault::RankDeath);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
}

TEST(FaultInjection, DeathIsDetectedNotRetroactive) {
  // Messages sent before the death are still delivered in order; only the
  // message that never comes surfaces RankDeath.
  sim::Machine machine(2);
  machine.set_fault_plan(fault::Plan::kill(1, 2));  // first op survives
  int phase = 0;
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) {
      c.send(0, {42.0}, 5);  // step 1: delivered
      c.send(0, {43.0}, 5);  // step 2: the kill fires instead
    }
    if (c.rank() == 0) {
      std::vector<double> first = c.recv(1, 5);
      EXPECT_EQ(first[0], 42.0);
      phase = 1;
      try {
        (void)c.recv(1, 5);
        ADD_FAILURE() << "second recv should observe the death";
      } catch (const fault::RankDeath& rd) {
        EXPECT_EQ(rd.rank(), 1);
        phase = 2;
      }
    }
  });
  // Survivor handled the death => the run completes NORMALLY.
  EXPECT_EQ(phase, 2);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
}

TEST(FaultInjection, OneShotEventsStayConsumedAcrossRuns) {
  sim::Machine machine(2);
  machine.set_fault_plan(fault::Plan::kill(1, 1));
  auto body = [&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {7.0}, 3);
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv(1, 3)[0], 7.0);
    }
  };
  EXPECT_THROW(machine.run(body), fault::RankDeath);
  // The event fired; the retry (same machine, same plan) runs clean — this
  // is what makes the serving layer's requeue succeed.
  machine.run(body);
  EXPECT_TRUE(machine.last_run_deaths().empty());
}

TEST(FaultInjection, EveryRunEventsRearm) {
  sim::Machine machine(2);
  fault::Plan plan;
  plan.events.push_back(fault::Event{1, 1, fault::Action::Kill, /*every_run=*/true});
  machine.set_fault_plan(std::move(plan));
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(machine.run([&](backend::Comm& c) {
      if (c.rank() == 1) c.send(0, {1.0}, 3);
      if (c.rank() == 0) (void)c.recv(1, 3);
    }),
                 fault::RankDeath)
        << "round " << round;
    EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
  }
  // Installing an empty plan disarms.
  machine.set_fault_plan(fault::Plan{});
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {1.0}, 3);
    if (c.rank() == 0) (void)c.recv(1, 3);
  });
  EXPECT_TRUE(machine.last_run_deaths().empty());
}

TEST(FaultInjection, DeathDuringSplitSurfacesRankDeath) {
  sim::Machine machine(4);
  // Rank 2's first comm op is the send below, before its split: it dies and
  // never reaches the rendezvous, which must not hang the others.
  machine.set_fault_plan(fault::Plan::kill(2, 1));
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    if (c.rank() == 2) c.send(3, {1.0}, 9);
    backend::Comm half = c.split(c.rank() % 2, c.rank());
    (void)half;
  }),
               fault::RankDeath);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{2});
}

TEST(FaultInjection, RandomKillPlansAreSeedDeterministic) {
  const fault::Plan a = fault::Plan::random_kills(8, 3, 20, 42);
  const fault::Plan b = fault::Plan::random_kills(8, 3, 20, 42);
  ASSERT_EQ(a.events.size(), 3u);
  std::vector<int> ranks;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].rank, b.events[i].rank);
    EXPECT_EQ(a.events[i].step, b.events[i].step);
    EXPECT_GE(a.events[i].rank, 0);
    EXPECT_LT(a.events[i].rank, 8);
    EXPECT_GE(a.events[i].step, 1u);
    EXPECT_LE(a.events[i].step, 20u);
    ranks.push_back(a.events[i].rank);
  }
  std::sort(ranks.begin(), ranks.end());
  EXPECT_TRUE(std::adjacent_find(ranks.begin(), ranks.end()) == ranks.end())
      << "kills must target distinct ranks";
  const fault::Plan c = fault::Plan::random_kills(8, 3, 20, 43);
  bool differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (c.events[i].rank != a.events[i].rank || c.events[i].step != a.events[i].step)
      differs = true;
  }
  EXPECT_TRUE(differs) << "different seeds should give different plans";
}

TEST(FaultInjection, PlanValidation) {
  sim::Machine machine(2);
  EXPECT_THROW(machine.set_fault_plan(fault::Plan::kill(2, 1)), std::invalid_argument);
  EXPECT_THROW(machine.set_fault_plan(fault::Plan::kill(-1, 1)), std::invalid_argument);
  fault::Plan zero_step;
  zero_step.events.push_back(fault::Event{0, 0, fault::Action::Kill, false});
  EXPECT_THROW(machine.set_fault_plan(std::move(zero_step)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The thread backend conforms to the oracle's fault semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectionThread, KilledRankIsDetectedAndMachineStaysUsable) {
  backend::ThreadMachine machine(4);
  machine.set_fault_plan(fault::Plan::kill(1, 1));
  EXPECT_THROW(machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {1.0}, 5);
    if (c.rank() == 0) (void)c.recv(1, 5);
  }),
               fault::RankDeath);
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});

  // One-shot event consumed: the same machine serves the next run cleanly.
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) c.send(0, {8.0}, 5);
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv(1, 5)[0], 8.0);
    }
  });
  EXPECT_TRUE(machine.last_run_deaths().empty());
}

TEST(FaultInjectionThread, SurvivorHandlingDeathCompletesTheRun) {
  backend::ThreadMachine machine(2);
  machine.set_fault_plan(fault::Plan::kill(1, 2));
  machine.run([&](backend::Comm& c) {
    if (c.rank() == 1) {
      c.send(0, {42.0}, 5);
      c.send(0, {43.0}, 5);  // the kill fires here
    }
    if (c.rank() == 0) {
      EXPECT_EQ(c.recv(1, 5)[0], 42.0);  // pre-death message still delivered
      EXPECT_THROW((void)c.recv(1, 5), fault::RankDeath);
    }
  });
  EXPECT_EQ(machine.last_run_deaths(), std::vector<int>{1});
}

// ---------------------------------------------------------------------------
// Coded TSQR: checksum-protected factorization
// ---------------------------------------------------------------------------

namespace {

/// Run coded_tsqr on every rank of `machine` over a block-row distributed A
/// and collect each rank's result descriptor on the host.
struct CodedRun {
  bool threw = false;
  std::vector<fault::CodedTsqrResult> results;  // indexed by rank
};

CodedRun run_coded(backend::Machine& machine, const la::Matrix& A, fault::CodedTsqrOptions opts) {
  const int P = machine.size();
  CodedRun out;
  out.results.resize(static_cast<std::size_t>(P));
  try {
    machine.run([&](backend::Comm& c) {
      la::Matrix local = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
      out.results[static_cast<std::size_t>(c.rank())] =
          fault::coded_tsqr(c, local.view(), opts);
    });
  } catch (...) {
    // A death at an uncovered timing degrades to session failure: the
    // lowest-ranked error a multi-rank abort cascade surfaces may be either
    // the RankDeath itself or a plain abort runtime_error.  Either way the
    // run failed cleanly (no hang, no wrong factor), which is all the sweep
    // below asserts for uncovered timings.
    out.threw = true;
  }
  return out;
}

}  // namespace

TEST(CodedTsqr, ZeroFaultMatchesPlainTsqrBitwise) {
  // Every tree shape up to P = 8, including trees with unpaired ranks, on
  // both backends.
  const index_t m = 64, n = 8;
  la::Matrix A = la::random_matrix(m, n, 321);
  for (backend::Kind kind : {backend::Kind::Simulated, backend::Kind::Thread}) {
    for (int P : {1, 2, 3, 5, 6, 7, 8}) {
      SCOPED_TRACE(std::string(backend::kind_name(kind)) + " P=" + std::to_string(P));
      auto machine = backend::make_machine(kind, P);

      std::vector<qr3d::core::DistributedQr> plain(static_cast<std::size_t>(P));
      machine->run([&](backend::Comm& c) {
        la::Matrix local = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
        plain[static_cast<std::size_t>(c.rank())] = qr3d::core::tsqr(c, local.view());
      });
      const CodedRun coded = run_coded(*machine, A, {});
      ASSERT_FALSE(coded.threw);

      for (int p = 0; p < P; ++p) {
        const auto& cr = coded.results[static_cast<std::size_t>(p)];
        const auto& pr = plain[static_cast<std::size_t>(p)];
        EXPECT_FALSE(cr.recovered);
        EXPECT_TRUE(cr.lost.empty());
        ASSERT_EQ(cr.qr.V.rows(), pr.V.rows());
        for (index_t i = 0; i < pr.V.rows(); ++i)
          for (index_t j = 0; j < pr.V.cols(); ++j)
            EXPECT_EQ(cr.qr.V(i, j), pr.V(i, j)) << "rank " << p;  // bitwise
        if (p == 0) {
          for (index_t i = 0; i < n; ++i)
            for (index_t j = 0; j < n; ++j) {
              EXPECT_EQ(cr.qr.R(i, j), pr.R(i, j));
              EXPECT_EQ(cr.qr.T(i, j), pr.T(i, j));
            }
        }
      }
    }
  }
}

TEST(CodedTsqr, SingleKillMidUpsweepRecovers) {
  const index_t m = 64, n = 8;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 654);
  sim::Machine machine(P);

  // Rank 2's clean-run ops: encode reduce, upsweep recv(3)+send(0), status
  // recv, downsweep recv+send, broadcast.  Killing at the upsweep send means
  // finding it — walk the plan space instead of hardcoding the op layout:
  // kill rank 2 at each step and accept the first that yields a recovery
  // with rank 2 reported lost.  (Deaths at other timings either fail the
  // session cleanly or, past the rank's op count, never fire.)
  bool found = false;
  for (std::uint64_t step = 1; step <= 32 && !found; ++step) {
    machine.set_fault_plan(fault::Plan::kill(2, step));
    const CodedRun r = run_coded(machine, A, {});
    if (r.threw) continue;  // death at an uncovered timing: session failure
    if (machine.last_run_deaths().empty()) continue;  // plan already consumed? no: one-shot per install
    const auto& root = r.results[0];
    if (!root.recovered || root.lost != std::vector<int>{2}) continue;
    found = true;
    // The recovered R satisfies the Gram identity and is replicated
    // identically on every survivor.
    EXPECT_LT(gram_error(A, root.qr.R), 1e-12) << "step " << step;
    for (int p = 1; p < P; ++p) {
      if (p == 2) continue;
      const auto& pr = r.results[static_cast<std::size_t>(p)];
      EXPECT_TRUE(pr.recovered);
      EXPECT_EQ(pr.lost, root.lost);
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < n; ++j) EXPECT_EQ(pr.qr.R(i, j), root.qr.R(i, j));
    }
  }
  EXPECT_TRUE(found) << "no kill step produced a checksum recovery of rank 2";
}

TEST(CodedTsqr, DoubleKillRecoversWithTwoChecksums) {
  const index_t m = 64, n = 4;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 987);
  sim::Machine machine(P);
  fault::CodedTsqrOptions opts;
  opts.f = 2;

  bool found = false;
  for (std::uint64_t s3 = 1; s3 <= 16 && !found; ++s3) {
    for (std::uint64_t s5 = 1; s5 <= 16 && !found; ++s5) {
      fault::Plan plan;
      plan.events.push_back(fault::Event{3, s3, fault::Action::Kill, false});
      plan.events.push_back(fault::Event{5, s5, fault::Action::Kill, false});
      machine.set_fault_plan(std::move(plan));
      const CodedRun r = run_coded(machine, A, opts);
      if (r.threw) continue;
      const auto& root = r.results[0];
      if (!root.recovered || root.lost != (std::vector<int>{3, 5})) continue;
      found = true;
      EXPECT_LT(gram_error(A, root.qr.R), 1e-12) << "steps " << s3 << "," << s5;
    }
  }
  EXPECT_TRUE(found) << "no kill-step pair produced a two-block recovery";
}

TEST(CodedTsqr, FiveSimultaneousDeathsRecover) {
  // e = 5 simultaneous deaths drives the recovery solve through several
  // pivoting rounds — with e <= 2 a rhs/permutation desync in the e x e
  // Vandermonde elimination cannot surface (regression test: the rhs must
  // stay in virtual row order while the matrix is virtually pivoted).
  const index_t m = 64, n = 4;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 246);
  sim::Machine machine(P);
  fault::CodedTsqrOptions opts;
  opts.f = 5;
  const std::vector<int> victims{1, 2, 3, 4, 5};

  // Find, per victim, a kill step that solo-yields a checksum recovery of
  // exactly that rank — a death in the post-encode, pre-upsweep-send window.
  // A rank's op sequence up to the status phase does not depend on peer
  // deaths (a recv from a dead child throws-and-is-caught but still counts
  // one op), so the solo steps compose into one simultaneous 5-death plan.
  std::vector<std::uint64_t> steps;
  for (int v : victims) {
    std::uint64_t found = 0;
    for (std::uint64_t step = 1; step <= 32 && found == 0; ++step) {
      machine.set_fault_plan(fault::Plan::kill(v, step));
      const CodedRun r = run_coded(machine, A, opts);
      if (r.threw) continue;
      if (r.results[0].recovered && r.results[0].lost == std::vector<int>{v}) found = step;
    }
    ASSERT_NE(found, 0u) << "no kill step produced a solo recovery of rank " << v;
    steps.push_back(found);
  }

  fault::Plan plan;
  for (std::size_t i = 0; i < victims.size(); ++i)
    plan.events.push_back(fault::Event{victims[i], steps[i], fault::Action::Kill, false});
  machine.set_fault_plan(std::move(plan));
  const CodedRun r = run_coded(machine, A, opts);
  ASSERT_FALSE(r.threw);
  const auto& root = r.results[0];
  ASSERT_TRUE(root.recovered);
  EXPECT_EQ(root.lost, victims);
  EXPECT_LT(gram_error(A, root.qr.R), 1e-10);
  // Every survivor holds the identical recovered R.
  for (int p = 1; p < P; ++p) {
    if (std::find(victims.begin(), victims.end(), p) != victims.end()) continue;
    const auto& pr = r.results[static_cast<std::size_t>(p)];
    EXPECT_TRUE(pr.recovered);
    EXPECT_EQ(pr.lost, victims);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) EXPECT_EQ(pr.qr.R(i, j), root.qr.R(i, j));
  }
}

TEST(CodedTsqr, MoreDeathsThanChecksumsIsUnrecoverable) {
  const index_t m = 64, n = 8;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 135);
  sim::Machine machine(P);

  // Kill two ranks with f = 1: whatever the timing, the run must FAIL (as a
  // clean session error), never hang or return a wrong factor.
  bool saw_unrecoverable = false;
  for (std::uint64_t s3 = 1; s3 <= 12 && !saw_unrecoverable; ++s3) {
    for (std::uint64_t s5 = 1; s5 <= 12 && !saw_unrecoverable; ++s5) {
      fault::Plan plan;
      plan.events.push_back(fault::Event{3, s3, fault::Action::Kill, false});
      plan.events.push_back(fault::Event{5, s5, fault::Action::Kill, false});
      machine.set_fault_plan(std::move(plan));
      const CodedRun r = run_coded(machine, A, {});
      if (r.threw && machine.last_run_deaths().size() == 2) saw_unrecoverable = true;
      // A non-throwing run may legitimately occur (a kill step past the
      // rank's op count never fires), but never a wrong recovery:
      if (!r.threw && r.results[0].recovered) {
        EXPECT_LT(gram_error(A, r.results[0].qr.R), 1e-12);
      }
    }
  }
  EXPECT_TRUE(saw_unrecoverable);
}

// ---------------------------------------------------------------------------
// Self-healing serving
// ---------------------------------------------------------------------------

TEST(SelfHealingServe, SingleKillRequeuesAndCompletesAllJobs_Sim) {
  const int P = 4;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(48, 8, 500 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();

  for (int j = 0; j < 6; ++j) {
    EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                             problems[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "job " << j;
    EXPECT_GE(handles[static_cast<std::size_t>(j)].stats().attempts, 1);
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed, 6u);
  EXPECT_EQ(st.jobs_failed, 0u);
  // Rank 3 died mid-session: at least one job was requeued and recovered.
  EXPECT_GE(st.recovered, 1u);
  EXPECT_GT(st.attempts, 6u);
  bool any_recovered = false;
  for (const auto& h : handles) {
    if (h.stats().recovered) {
      any_recovered = true;
      EXPECT_GE(h.stats().attempts, 2);
    }
  }
  EXPECT_TRUE(any_recovered);
}

TEST(SelfHealingServe, SingleKillRequeuesAndCompletesAllJobs_Thread) {
  const int P = 4;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2);
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(48, 8, 700 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();

  for (int j = 0; j < 6; ++j) {
    EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                             problems[static_cast<std::size_t>(j)].x_true),
              1e-10)
        << "job " << j;
  }
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed, 6u);
  EXPECT_EQ(st.jobs_failed, 0u);
  EXPECT_GE(st.recovered, 1u);
}

namespace {

/// The kill and stall sweeps' four 40 x 8 jobs.
std::vector<Planted> sweep_problems() {
  std::vector<Planted> problems;
  for (int j = 0; j < 4; ++j)
    problems.push_back(planted_problem(40, 8, 900 + 2 * static_cast<std::uint64_t>(j)));
  return problems;
}

/// Each rank's send + recv count in the first machine session of a clean,
/// traced run of `problems` under `opts`.  A rank's fault-step counter
/// restarts at every session (fault/plan.hpp), so a scripted step above its
/// rank's count here would never fire.
std::vector<std::uint64_t> first_session_ops(serve::ServeOptions opts,
                                             const std::vector<Planted>& problems) {
  using Kind = qr3d::obs::TraceEvent::Kind;
  auto trace = std::make_shared<qr3d::obs::TraceBuffer>();
  opts.with_trace(trace);
  serve::BatchSolver srv(opts);
  for (const auto& p : problems) srv.submit(p.A, p.b);
  srv.flush();
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(opts.ranks()), 0);
  // The "session" span is recorded once its session has ended, so in arrival
  // order it closes the first session's comm ops.
  for (const auto& e : trace->events()) {
    if (e.kind == Kind::Span && e.name == "session") break;
    if (e.track == 0 && (e.kind == Kind::Send || e.kind == Kind::Recv))
      ++ops[static_cast<std::size_t>(e.rank)];
  }
  return ops;
}

/// The sweeps' five step classes over a rank's `ops` first-session comm ops:
/// its first op, then an eighth, a quarter, half and three quarters of the
/// way in.  None is a rank's last few ops: a non-root rank's last ops only
/// receive the replicated solution, so a kill there costs no job.
std::vector<std::uint64_t> step_classes(std::uint64_t ops) {
  return {1, ops / 8, ops / 4, ops / 2, 3 * ops / 4};
}

}  // namespace

TEST(SelfHealingServe, DeterministicFaultSweepCompletesEveryJob) {
  // The sweep the CI smoke pins: kill each rank at each step class on the
  // sim backend; whatever the timing, the BatchSolver must complete 100% of
  // the jobs (recovered or first-try — never failed, never hung), and every
  // scripted kill must land.
  const int P = 4;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  const std::vector<Planted> problems = sweep_problems();
  const std::vector<std::uint64_t> ops = first_session_ops(opts, problems);
  for (int victim = 0; victim < P; ++victim) {
    const std::uint64_t victim_ops = ops[static_cast<std::size_t>(victim)];
    ASSERT_GE(victim_ops, 16u) << "victim " << victim << ": too few ops for distinct classes";
    for (std::uint64_t step : step_classes(victim_ops)) {
      SCOPED_TRACE("victim=" + std::to_string(victim) + " step=" + std::to_string(step) + "/" +
                   std::to_string(victim_ops));
      serve::BatchSolver srv(opts);
      srv.machine().set_fault_plan(fault::Plan::kill(victim, step));

      std::vector<serve::JobHandle> handles;
      for (const auto& p : problems) handles.push_back(srv.submit(p.A, p.b));
      srv.flush();
      for (int j = 0; j < 4; ++j) {
        EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                                 problems[static_cast<std::size_t>(j)].x_true),
                  1e-10)
            << "job " << j;
      }
      const auto st = srv.stats();
      EXPECT_EQ(st.jobs_completed, 4u);
      EXPECT_EQ(st.jobs_failed, 0u);
      EXPECT_GE(st.requeues_rank_death, 1u) << "the scripted kill did not land";
    }
  }
}

TEST(SelfHealingServe, TraceRecordsDeathAndRequeue) {
  // The observability contract for fault recovery: a traced serving run that
  // suffers a rank death records a "rank_death" instant on the machine track
  // (the victim's rank, at its death time) and a cause-tagged
  // "requeue (rank_death)" instant per job sent back to the queue on the
  // serving track — and both survive into the
  // Chrome trace export the kill-sweep smoke ships as a CI artifact.
  const int P = 4;
  auto trace = std::make_shared<qr3d::obs::TraceBuffer>();
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_trace(trace).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(48, 8, 600 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();
  const auto st = srv.stats();
  ASSERT_EQ(st.jobs_completed, 6u);
  ASSERT_EQ(st.jobs_failed, 0u);
  ASSERT_GE(st.recovered, 1u);

  int deaths = 0, requeues = 0;
  for (const auto& e : trace->events()) {
    if (e.kind != qr3d::obs::TraceEvent::Kind::Instant) continue;
    if (e.name == "rank_death") {
      ++deaths;
      EXPECT_EQ(e.track, 0);  // machine track
      EXPECT_EQ(e.rank, 3);   // the planned victim
    } else if (e.name == "requeue (rank_death)") {
      ++requeues;
      EXPECT_EQ(e.track, 1);  // serving track
    }
  }
  EXPECT_GE(deaths, 1);
  EXPECT_GE(requeues, 1);

  const std::string json = qr3d::obs::chrome_trace_json(trace->events());
  EXPECT_NE(json.find("rank_death"), std::string::npos);
  EXPECT_NE(json.find("requeue"), std::string::npos);
}

TEST(SelfHealingServe, ExhaustedRetriesRethrowOriginalRankDeath) {
  // max_attempts = 1: the first rank death resolves the unfinished jobs with
  // the ORIGINAL machine-session exception — a fault::RankDeath, not some
  // serving-layer wrapper — which get() rethrows.
  const int P = 2;
  serve::ServeOptions opts;
  opts.with_ranks(P).with_group_ranks(2).with_max_attempts(1).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  fault::Plan plan;
  plan.events.push_back(fault::Event{1, 5, fault::Action::Kill, /*every_run=*/true});
  srv.machine().set_fault_plan(std::move(plan));

  Planted p = planted_problem(32, 8, 1111);
  serve::JobHandle h = srv.submit(p.A, p.b);
  EXPECT_THROW(srv.flush(), fault::RankDeath);  // blocking flush rethrows
  EXPECT_TRUE(h.ready());
  EXPECT_THROW(h.get(), fault::RankDeath);
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_failed, 1u);
  EXPECT_EQ(st.recovered, 0u);

  // The solver itself keeps serving: disarm and submit again.
  srv.machine().set_fault_plan(fault::Plan{});
  Planted q = planted_problem(32, 8, 2222);
  serve::JobHandle h2 = srv.submit(q.A, q.b);
  srv.flush();
  EXPECT_LT(solution_error(h2.get(), q.x_true), 1e-10);
}

// ---------------------------------------------------------------------------
// Chaos: mixed random kills and stalls (src/health/ + self-healing together)
// ---------------------------------------------------------------------------

namespace {

namespace health = qr3d::health;

/// Bitwise equality: a recovered job must reproduce the clean run exactly
/// (the retry runs at the same group size, so the arithmetic is identical).
void expect_bitwise_equal(const la::Matrix& a, const la::Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      ASSERT_EQ(a(i, j), b(i, j)) << what << " differs at (" << i << ", " << j << ")";
}

/// Serving options for the chaos sweep: fixed group size (bitwise retries),
/// enough attempts to outlast one kill + one stall, the fail-slow watchdog
/// armed, and tiny declared params so the deadline floor governs (0.05
/// virtual seconds on the simulator, 0.2 wall seconds on threads).
serve::ServeOptions chaos_opts(qr3d::Backend be) {
  serve::ServeOptions opts;
  opts.with_ranks(4)
      .with_group_ranks(2)
      .with_max_attempts(4)
      .with_session_timeout_factor(3.0)
      .with_qr(qr3d::QrOptions().with_tune_for_machine().with_backend(be))
      .with_params(sim::CostParams{1e-7, 1e-9, 1e-10});
  return opts;
}

}  // namespace

TEST(FaultPlan, RandomFaultsPreserveTheKillDraw) {
  // Adding stalls to a chaos plan must not reshuffle the kill draw: the
  // kill prefix of random_faults is bit-identical to random_kills under the
  // same seed, so a kills-only baseline stays comparable.
  for (std::uint64_t seed : {7u, 42u, 1234u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto kills = fault::Plan::random_kills(8, 3, 20, seed);
    const auto none = fault::Plan::random_faults(8, 3, 0, 20, seed);
    const auto mixed = fault::Plan::random_faults(8, 3, 2, 20, seed);
    ASSERT_EQ(none.events.size(), kills.events.size());
    ASSERT_EQ(mixed.events.size(), kills.events.size() + 2);
    for (std::size_t i = 0; i < kills.events.size(); ++i) {
      for (const auto* p : {&none.events[i], &mixed.events[i]}) {
        EXPECT_EQ(p->rank, kills.events[i].rank) << "event " << i;
        EXPECT_EQ(p->step, kills.events[i].step) << "event " << i;
        EXPECT_EQ(p->action, fault::Action::Kill) << "event " << i;
      }
    }
    for (std::size_t i = kills.events.size(); i < mixed.events.size(); ++i)
      EXPECT_EQ(mixed.events[i].action, fault::Action::Stall) << "event " << i;
  }
}

TEST(SelfHealingServe, StallSweepCompletesEveryJob) {
  // The stall-side counterpart of DeterministicFaultSweepCompletesEveryJob
  // (the CI smoke runs both): stall each rank at each step class; with the
  // watchdog armed the BatchSolver must complete 100% of the jobs, and every
  // scripted stall must end in a session timeout.
  const int P = 4;
  const std::vector<Planted> problems = sweep_problems();
  const std::vector<std::uint64_t> ops =
      first_session_ops(chaos_opts(qr3d::Backend::Simulated), problems);
  for (int victim = 0; victim < P; ++victim) {
    const std::uint64_t victim_ops = ops[static_cast<std::size_t>(victim)];
    ASSERT_GE(victim_ops, 16u) << "victim " << victim << ": too few ops for distinct classes";
    for (std::uint64_t step : step_classes(victim_ops)) {
      SCOPED_TRACE("victim=" + std::to_string(victim) + " step=" + std::to_string(step) + "/" +
                   std::to_string(victim_ops));
      serve::BatchSolver srv(chaos_opts(qr3d::Backend::Simulated));
      srv.machine().set_fault_plan(fault::Plan::stall(victim, step));

      std::vector<serve::JobHandle> handles;
      for (const auto& p : problems) handles.push_back(srv.submit(p.A, p.b));
      srv.flush();
      for (int j = 0; j < 4; ++j) {
        EXPECT_LT(solution_error(handles[static_cast<std::size_t>(j)].get(),
                                 problems[static_cast<std::size_t>(j)].x_true),
                  1e-10)
            << "job " << j;
      }
      const auto st = srv.stats();
      EXPECT_EQ(st.jobs_completed, 4u);
      EXPECT_EQ(st.jobs_failed, 0u);
      EXPECT_GE(st.session_timeouts, 1u) << "the scripted stall did not land";
    }
  }
}

TEST(SelfHealingServe, ChaosSweepMixedKillsAndStalls) {
  // Seeded chaos on both backends: one random kill AND one random stall per
  // run.  Whatever the interleaving, every job must either complete bitwise
  // identical to a clean run or fail with the original typed error — never
  // hang, never surface a wrapper.  The seed is in the trace so a failure
  // reproduces exactly.
  const index_t m = 40, n = 8;
  const int kJobs = 4;
  std::vector<Planted> problems;
  for (int j = 0; j < kJobs; ++j)
    problems.push_back(planted_problem(m, n, 3000 + 2 * static_cast<std::uint64_t>(j)));

  for (qr3d::Backend be : {qr3d::Backend::Simulated, qr3d::Backend::Thread}) {
    // Clean reference run per backend (identical options, no faults).
    std::vector<la::Matrix> clean;
    {
      serve::BatchSolver srv(chaos_opts(be));
      std::vector<serve::JobHandle> hs;
      for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
      srv.flush();
      for (auto& h : hs) clean.push_back(h.get());
    }

    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(be == qr3d::Backend::Simulated ? "sim" : "thread") +
                   " seed=" + std::to_string(seed));
      serve::BatchSolver srv(chaos_opts(be));
      srv.machine().set_fault_plan(fault::Plan::random_faults(4, 1, 1, 12, seed));

      std::vector<serve::JobHandle> hs;
      for (const auto& p : problems) hs.push_back(srv.submit(p.A, p.b));
      srv.flush();

      for (int j = 0; j < kJobs; ++j) {
        const auto& h = hs[static_cast<std::size_t>(j)];
        ASSERT_TRUE(h.ready()) << "job " << j << " left unresolved";
        try {
          expect_bitwise_equal(h.get(), clean[static_cast<std::size_t>(j)], "chaos");
        } catch (const fault::RankDeath&) {
          // Typed original error: acceptable only if retries were exhausted.
        } catch (const health::SessionTimeout&) {
          // Likewise for the fail-slow path.
        }
      }
      const auto st = srv.stats();
      EXPECT_EQ(st.jobs_completed + st.jobs_failed, static_cast<std::uint64_t>(kJobs));
      // One kill + one stall against four attempts: nothing should exhaust.
      EXPECT_EQ(st.jobs_failed, 0u);
    }
  }
}

TEST(SelfHealingServe, RecoveryDecisionsArePinned) {
  // Refactor guard for the dispatcher's recovery path: a seeded kill+stall
  // run on the simulator (the chaos sweep's setup) pins every decision it
  // makes.  Each job is flushed on its own, so every round runs one job and
  // no other group's job races the fault's session abort.  Seed 1 kills
  // rank 1 in round 1 (rank_death requeue) and stalls rank 0 in the retry
  // (timeout, rank 0 quarantined); later clean rounds reinstate rank 0.
  // With three attempts the job recovers; with two it exhausts and keeps
  // its ORIGINAL RankDeath, which the blocking flush rethrows.
  struct Expected {
    const char* error;  // final error type, "none" for a solved job
    int attempts;       // only readable for a solved job
    std::vector<serve::RetryCause> causes;
    std::uint64_t round;
  };
  struct Counters {
    std::uint64_t sessions, attempts, recovered, flushes, session_timeouts, requeues_timeout,
        requeues_rank_death, ranks_quarantined, ranks_reinstated;
  };
  struct Case {
    int max_attempts;
    std::vector<Expected> jobs;
    Counters counters;
  };
  const auto rank_death = serve::RetryCause::RankDeath;
  const auto timeout = serve::RetryCause::Timeout;
  const std::vector<Case> cases = {
      {3,
       {{"none", 3, {rank_death, timeout}, 3},
        {"none", 1, {}, 4},
        {"none", 1, {}, 5},
        {"none", 1, {}, 6}},
       {6, 6, 1, 4, 1, 1, 1, 1, 1}},
      {2,
       {{"RankDeath", 0, {}, 0}, {"none", 1, {}, 3}, {"none", 1, {}, 4}, {"none", 1, {}, 5}},
       {5, 5, 0, 4, 1, 0, 1, 1, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("max_attempts=" + std::to_string(c.max_attempts));
    serve::BatchSolver srv(chaos_opts(qr3d::Backend::Simulated).with_max_attempts(c.max_attempts));
    srv.machine().set_fault_plan(fault::Plan::random_faults(4, 1, 1, 12, /*seed=*/1));
    std::vector<Planted> problems;
    std::vector<serve::JobHandle> hs;
    for (std::size_t j = 0; j < c.jobs.size(); ++j) {
      problems.push_back(planted_problem(40, 8, 3000 + 2 * static_cast<std::uint64_t>(j)));
      hs.push_back(srv.submit(problems.back().A, problems.back().b));
      if (std::string(c.jobs[j].error) == "RankDeath") {
        EXPECT_THROW(srv.flush(), fault::RankDeath);
      } else {
        srv.flush();
      }
    }
    for (std::size_t j = 0; j < c.jobs.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j));
      const Expected& want = c.jobs[j];
      ASSERT_TRUE(hs[j].ready());
      std::string error = "none";
      try {
        (void)hs[j].get();
      } catch (const fault::RankDeath&) {
        error = "RankDeath";
      } catch (const health::SessionTimeout&) {
        error = "SessionTimeout";
      }
      EXPECT_EQ(error, want.error);
      if (error != "none") continue;  // stats() rethrows for a failed job
      EXPECT_LT(solution_error(hs[j].get(), problems[j].x_true), 1e-10);
      const serve::JobStats& s = hs[j].stats();
      EXPECT_EQ(s.attempts, want.attempts);
      EXPECT_EQ(s.round, want.round);
      ASSERT_EQ(s.retries.size(), want.causes.size());
      for (std::size_t r = 0; r < want.causes.size(); ++r) {
        EXPECT_EQ(s.retries[r].cause, want.causes[r]) << "retry " << r;
        EXPECT_EQ(s.retries[r].backoff_seconds, 0.0) << "retry " << r;  // backoff off
      }
    }
    const auto st = srv.stats();
    EXPECT_EQ(st.sessions, c.counters.sessions);
    EXPECT_EQ(st.attempts, c.counters.attempts);
    EXPECT_EQ(st.recovered, c.counters.recovered);
    EXPECT_EQ(st.flushes, c.counters.flushes);
    EXPECT_EQ(st.session_timeouts, c.counters.session_timeouts);
    EXPECT_EQ(st.requeues_timeout, c.counters.requeues_timeout);
    EXPECT_EQ(st.requeues_rank_death, c.counters.requeues_rank_death);
    EXPECT_EQ(st.ranks_quarantined, c.counters.ranks_quarantined);
    EXPECT_EQ(st.ranks_reinstated, c.counters.ranks_reinstated);
  }
}
