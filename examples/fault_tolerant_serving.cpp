// Fault-tolerant serving: deterministic fault injection, self-healing
// requeue, and checksum-protected TSQR in one program.
//
// Three escalating demonstrations of the fault subsystem (src/fault/):
//
//   1. A scripted kill (fault::Plan::kill) takes a rank down mid-session;
//      the BatchSolver detects the death (fault::RankDeath), excludes the
//      dead rank from every later session, requeues the unfinished jobs on
//      the survivors, and completes 100% of the batch — JobStats::attempts
//      and ::recovered record which jobs needed the second try.
//   2. With retries disabled (with_max_attempts(1)), the same death
//      resolves the affected handles with the ORIGINAL fault::RankDeath —
//      get() rethrows exactly what the machine threw.
//   3. fault::coded_tsqr survives the death below the serving layer: f
//      checksums encoded before the reduction tree let the root
//      reconstruct the dead rank's R-block and finish the factorization —
//      bitwise identical to core::tsqr when nothing dies.
//
// The same snippets appear in docs/SERVING.md ("Fault tolerance") — keep
// them in sync.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <vector>

#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace fault = qr3d::fault;
namespace la = qr3d::la;
namespace serve = qr3d::serve;

namespace {

struct Planted {
  la::Matrix A, b, x_true;
};

Planted planted_problem(la::index_t m, la::index_t n, std::uint64_t seed) {
  Planted p;
  p.A = la::random_matrix(m, n, seed);
  p.x_true = la::random_matrix(n, 1, seed + 1);
  p.b = la::multiply<double>(la::Op::NoTrans, p.A.view(), la::Op::NoTrans, p.x_true.view());
  return p;
}

double error_vs(const la::Matrix& x, const la::Matrix& x_true) {
  la::Matrix dx = la::copy<double>(x.view());
  la::add(-1.0, la::ConstMatrixView(x_true.view()), dx.view());
  return la::frobenius_norm(dx.view());
}

}  // namespace

int main() {
  // --- 1. Self-healing: a rank dies, the batch still completes. ------------
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_group_ranks(2));
  // Script the failure while the machine is idle: kill rank 3 at its 9th
  // communication op — mid-solve, deterministically, on the thread backend.
  // Accurate jobs take the Householder (TSQR) path, whose sessions run long
  // enough for the 9th op to land; a Balanced job this small dispatches
  // CholeskyQR2, and its few ops per session would never reach it.
  srv.machine().set_fault_plan(fault::Plan::kill(3, 9));
  const auto accurate = serve::SubmitOptions().with_accuracy(qr3d::core::Accuracy::Accurate);

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < 6; ++j) {
    problems.push_back(planted_problem(64, 12, 100 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b, accurate));
  }
  srv.flush();

  double worst = 0.0;
  int recovered_jobs = 0;
  for (int j = 0; j < 6; ++j) {
    const serve::JobHandle& h = handles[static_cast<std::size_t>(j)];
    worst = std::max(worst, error_vs(h.get(), problems[static_cast<std::size_t>(j)].x_true));
    if (h.stats().recovered) ++recovered_jobs;
  }
  const auto st = srv.stats();
  std::printf("rank 3 killed mid-batch: %llu/%llu jobs completed, %d requeued and recovered\n",
              static_cast<unsigned long long>(st.jobs_completed),
              static_cast<unsigned long long>(st.jobs_submitted), recovered_jobs);
  std::printf("attempts=%llu (> jobs: the survivors reran the unfinished ones), worst error %.2e\n",
              static_cast<unsigned long long>(st.attempts), worst);

  // --- 2. Retry exhaustion: the original RankDeath reaches the caller. -----
  serve::BatchSolver strict(
      serve::ServeOptions().with_ranks(2).with_group_ranks(2).with_max_attempts(1));
  fault::Plan always;
  always.events.push_back(fault::Event{1, 5, fault::Action::Kill, /*every_run=*/true});
  strict.machine().set_fault_plan(std::move(always));
  Planted doomed = planted_problem(48, 8, 900);
  serve::JobHandle h = strict.submit(doomed.A, doomed.b);
  try {
    strict.flush();
  } catch (const fault::RankDeath& rd) {
    std::printf("with_max_attempts(1): flush rethrew the original death of rank %d\n", rd.rank());
  }

  // --- 3. Coded TSQR: the factorization itself survives the death. ---------
  const la::index_t m = 64, n = 8;
  const int P = 8;
  la::Matrix A = la::random_matrix(m, n, 321);
  qr3d::sim::Machine machine(P);               // the deterministic oracle
  machine.set_fault_plan(fault::Plan::kill(2, 2));  // rank 2's upsweep send
  bool was_recovered = false;
  la::Matrix R;
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = qr3d::DistMatrix::local_of(c, A.view(), qr3d::Dist::BlockRows);
    fault::CodedTsqrOptions copts;
    copts.f = 1;
    fault::CodedTsqrResult r = fault::coded_tsqr(c, Al.view(), copts);
    if (c.rank() == 0) {
      was_recovered = r.recovered;
      R = std::move(r.qr.R);
    }
  });
  // R^T R must equal A^T A for any valid R-factor of A — checkable with Q
  // lost along with the dead rank.
  la::Matrix ata = la::multiply<double>(la::Op::ConjTrans, A.view(), la::Op::NoTrans, A.view());
  la::Matrix rtr = la::multiply<double>(la::Op::ConjTrans, R.view(), la::Op::NoTrans, R.view());
  la::add(-1.0, la::ConstMatrixView(ata.view()), rtr.view());
  const double gram = la::frobenius_norm(rtr.view()) / (1.0 + la::frobenius_norm(ata.view()));
  std::printf("coded_tsqr with rank 2 dead: recovered=%d, ||R'R - A'A||/||A'A|| = %.2e\n",
              was_recovered ? 1 : 0, gram);

  return (worst < 1e-8 && recovered_jobs > 0 && was_recovered && gram < 1e-12) ? 0 : 1;
}
