// Serving throughput: the profile -> tune -> serve loop in one program.
//
// A serving process answering a stream of least-squares queries wants to pay
// machine startup and per-shape tuning once, not per request.  BatchSolver
// does exactly that: it profiles the machine (fitting alpha, beta, gamma
// from micro-benchmarks), keeps one threaded machine alive, resolves each
// shape's execution plan through a cache, and pipelines the batch through
// rank groups sized adaptively from the predicted costs.  This is the
// BLOCKING mode — explicit batches, deterministic counters; the async
// executor-thread mode is examples/async_serving.cpp.
//
// The same snippets appear in docs/SERVING.md — keep them in sync.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "qr3d.hpp"

namespace la = qr3d::la;
namespace serve = qr3d::serve;

int main() {
  const la::index_t m = 120, n = 24;
  const int kJobs = 32;

  // One serving instance: 4 persistent ranks, machine profiled up front so
  // the tuner consumes measured (alpha, beta, gamma).
  serve::BatchSolver srv(serve::ServeOptions().with_ranks(4).with_profile());
  if (const std::optional<serve::MachineProfile> p = srv.profile()) {
    std::printf("measured machine: alpha=%.3g s/msg, beta=%.3g s/word, gamma=%.3g s/flop\n",
                p->fitted.alpha, p->fitted.beta, p->fitted.gamma);
  }

  // A stream of same-shape regression problems with planted solutions.
  std::vector<serve::JobHandle> handles;
  std::vector<la::Matrix> truths;
  for (int j = 0; j < kJobs; ++j) {
    const std::uint64_t seed = 42 + 2 * static_cast<std::uint64_t>(j);
    la::Matrix A = la::random_matrix(m, n, seed);
    la::Matrix x_true = la::random_matrix(n, 1, seed + 1);
    la::Matrix b = la::multiply<double>(la::Op::NoTrans, A.view(), la::Op::NoTrans, x_true.view());
    handles.push_back(srv.submit(std::move(A), std::move(b)));
    truths.push_back(std::move(x_true));
  }

  srv.flush();  // one machine session for all 32 jobs

  double worst = 0.0;
  for (int j = 0; j < kJobs; ++j) {
    la::Matrix dx = la::copy<double>(handles[static_cast<std::size_t>(j)].get().view());
    la::add(-1.0, la::ConstMatrixView(truths[static_cast<std::size_t>(j)].view()), dx.view());
    worst = std::max(worst, la::frobenius_norm(dx.view()));
  }

  const auto& st = srv.stats();
  std::printf("served %llu/%llu jobs in %.2f ms  (%.0f problems/sec)\n",
              static_cast<unsigned long long>(st.jobs_completed),
              static_cast<unsigned long long>(st.jobs_submitted), st.serve_seconds * 1e3,
              st.problems_per_second());
  std::printf("plan cache: %llu misses (tuned), %llu hits (reused)\n",
              static_cast<unsigned long long>(st.plan_cache_misses),
              static_cast<unsigned long long>(st.plan_cache_hits));
  std::printf("worst ||x - x_true|| over the batch: %.3e\n", worst);
  return worst < 1e-9 ? 0 : 1;
}
