// E10 — Serving throughput: BatchSolver vs independent Solver calls, and
// async serving under continuous load.
//
// The north-star workload is a stream of least-squares problems.  Three
// serving shapes are measured on the same problems:
//
//   * independent — fresh machine + fresh Solver per problem (pays machine
//     spawn, tuning and teardown per request);
//   * blocking    — one BatchSolver, submit all + one flush() (persistent
//     machine, plan cache, group pipelining);
//   * async       — one BatchSolver with with_async(): submission overlaps
//     execution through the executor thread and JobHandle futures.
//
// A fourth segment measures CONTINUOUS load on the async path: a closed
// loop keeps `--inflight` jobs outstanding (submitting as futures resolve),
// which is where tail latency becomes measurable — per-job latency is
// submit()-to-resolution, split into queue + exec and reported as
// p50/p95/p99.
//
// A fifth segment measures MIXED-PRIORITY continuous load (the traffic-
// shaping headline): a backlog of big low-priority jobs saturates the
// machine while a closed-loop stream of small high-priority jobs measures
// response latency.  Per-class p50/p95/p99 are reported, and --smoke gates
// the high-priority tail: p99_high <= --tail-gate * p50_high + p95 of the
// big class's exec time (the one in-flight slice a newly arrived job can
// never jump — per-round dispatch bounds the wait at exactly that).
//
// A sixth segment is CHAOS: the same continuous async load with seeded
// random kills AND stalls injected (fault::Plan::random_faults) while the
// fail-slow watchdog (with_session_timeout_factor), retry backoff and rank
// quarantine are armed.  It reports availability — the fraction of
// submitted jobs that still resolve successfully — plus the fail-slow
// counters (session timeouts, cause-split requeues, quarantines); --smoke
// gates availability >= 0.99 and a finite latency tail.
//
//   bench_throughput --backend=thread [--P=4] [--jobs=64] [--m=96] [--n=24]
//                    [--group=0] [--inflight=8] [--tail-gate=3] [--profile]
//                    [--chaos-kills=1] [--chaos-stalls=2] [--chaos-seed=42]
//                    [--json out.json] [--trace out.trace.json] [--smoke]
//
// --profile runs serve::profile_machine first and tunes on the fitted
// (alpha, beta, gamma).  --json writes a machine-readable qr3d-bench/1
// record for trajectory tracking.  --trace runs one extra (untimed) blocking
// batch with an obs::TraceBuffer installed and writes the Chrome trace_event
// JSON — open it in chrome://tracing or Perfetto; the measured segments stay
// untraced so tracing cost never leaks into the numbers.  --smoke exits
// nonzero unless the
// blocking path reaches >= 1 problem/sec with plan-cache hits > 0, the
// async path holds >= 0.9x the blocking path's problems/sec (the CI guard;
// the 0.9 floor absorbs scheduler noise on small CI hosts — structurally
// the async path does the same machine work plus one extra thread handoff),
// and the mixed-priority tail gate above holds.
#include <chrono>

#include "bench_util.hpp"

namespace b = qr3d::bench;
namespace backend = qr3d::backend;
namespace fault = qr3d::fault;
namespace la = qr3d::la;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;

namespace {

using Clock = std::chrono::steady_clock;

struct Problem {
  la::Matrix A, rhs;
};

struct Measured {
  double total_seconds = 0.0;
  std::vector<double> job_seconds;     ///< in-machine wall time per job
  std::vector<double> latency_seconds; ///< submit-to-resolution per job
  std::vector<double> queue_seconds;   ///< submit-to-first-dispatch per job
  std::vector<double> exec_seconds;    ///< first-dispatch-to-resolution per job
  serve::BatchSolver::Stats stats;
  double problems_per_second() const {
    return total_seconds > 0.0 ? job_seconds.size() / total_seconds : 0.0;
  }
};

void record_job(Measured& out, const serve::JobStats& st) {
  out.job_seconds.push_back(st.wall_seconds);
  out.latency_seconds.push_back(st.latency_seconds);
  out.queue_seconds.push_back(st.queue_seconds);
  out.exec_seconds.push_back(st.exec_seconds);
}

/// End-to-end batch measurement: construction (worker spawn, optional
/// profiling), submission, plan resolution AND the machine sessions all
/// count, so every mode compares like with like.
Measured run_batch_once(const std::vector<Problem>& problems, const serve::ServeOptions& sopts) {
  const auto t0 = Clock::now();
  serve::BatchSolver srv(sopts);
  std::vector<serve::JobHandle> handles;
  handles.reserve(problems.size());
  for (const Problem& p : problems) handles.push_back(srv.submit(p.A, p.rhs));
  srv.flush();
  Measured out;
  out.total_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& h : handles) record_job(out, h.stats());
  out.stats = srv.stats();
  return out;
}

/// Best of `reps` end-to-end batch runs (by total time).  One run is
/// scheduler roulette on small hosts; the minimum is the noise-robust
/// estimator, applied identically to every mode.
Measured run_batch(const std::vector<Problem>& problems, const serve::ServeOptions& sopts,
                   int reps) {
  Measured best;
  for (int r = 0; r < reps; ++r) {
    Measured cur = run_batch_once(problems, sopts);
    if (r == 0 || cur.total_seconds < best.total_seconds) best = std::move(cur);
  }
  return best;
}

/// Continuous-load measurement (async): keep `inflight` jobs outstanding,
/// submitting a fresh one as the oldest future resolves, for `total` jobs.
Measured run_continuous(const std::vector<Problem>& problems, const serve::ServeOptions& sopts,
                        int inflight) {
  const auto t0 = Clock::now();
  serve::BatchSolver srv(sopts);
  std::vector<serve::JobHandle> handles;
  handles.reserve(problems.size());
  std::size_t next_submit = 0, next_wait = 0;
  while (next_wait < problems.size()) {
    while (next_submit < problems.size() &&
           next_submit - next_wait < static_cast<std::size_t>(inflight)) {
      const Problem& p = problems[next_submit];
      handles.push_back(srv.submit(p.A, p.rhs));
      ++next_submit;
    }
    handles[next_wait].wait();
    ++next_wait;
  }
  Measured out;
  out.total_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& h : handles) record_job(out, h.stats());
  out.stats = srv.stats();
  return out;
}

/// Mixed-priority continuous load: a window of `lows` big low-priority jobs
/// kept `inflight`-deep saturates the machine while `highs` small
/// high-priority jobs stream through one at a time (closed loop), measuring
/// the response latency traffic shaping is supposed to protect.
struct MixedMeasured {
  double total_seconds = 0.0;
  Measured high, low;  ///< per-class samples (stats only filled on `high`)
};

MixedMeasured run_mixed(const serve::ServeOptions& sopts, la::index_t big_m, la::index_t small_m,
                        la::index_t n, int highs, int lows, int inflight) {
  const auto t0 = Clock::now();
  serve::BatchSolver srv(serve::ServeOptions(sopts).with_async(true));
  const la::Matrix big_A = la::random_matrix(big_m, n, 9900);
  const la::Matrix big_b = la::random_matrix(big_m, 1, 9901);
  const la::Matrix small_A = la::random_matrix(small_m, n, 9902);
  const la::Matrix small_b = la::random_matrix(small_m, 1, 9903);

  std::vector<serve::JobHandle> low_handles;
  low_handles.reserve(static_cast<std::size_t>(lows));
  std::size_t low_reaped = 0;
  const auto refill_lows = [&]() {
    while (low_reaped < low_handles.size() && low_handles[low_reaped].ready()) ++low_reaped;
    while (low_handles.size() < static_cast<std::size_t>(lows) &&
           low_handles.size() - low_reaped < static_cast<std::size_t>(inflight)) {
      low_handles.push_back(srv.submit(
          big_A, big_b, serve::SubmitOptions().with_priority(serve::Priority::Low)));
    }
  };

  MixedMeasured out;
  refill_lows();
  for (int i = 0; i < highs; ++i) {
    refill_lows();
    serve::JobHandle h = srv.submit(
        small_A, small_b, serve::SubmitOptions().with_priority(serve::Priority::High));
    h.wait();
    record_job(out.high, h.stats());
  }
  srv.flush();  // finish the remaining backlog
  for (const auto& h : low_handles) record_job(out.low, h.stats());
  out.total_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.high.stats = srv.stats();
  return out;
}

/// Chaos segment: continuous async load with seeded random kills AND stalls
/// injected (fault::Plan::random_faults) while the fail-slow watchdog and
/// retry backoff are armed.  The question the segment answers is
/// availability: what fraction of submitted jobs still resolve successfully
/// when ranks die and hang mid-serving — self-healing requeues + session
/// timeouts should keep it at 1.0, and --smoke gates >= 0.99.
struct ChaosMeasured {
  double total_seconds = 0.0;
  Measured ok;                ///< samples of the jobs that completed
  std::uint64_t submitted = 0, completed = 0, failed = 0;
  double availability() const {
    return submitted > 0 ? static_cast<double>(completed) / static_cast<double>(submitted) : 0.0;
  }
};

ChaosMeasured run_chaos(const std::vector<Problem>& problems, const serve::ServeOptions& sopts,
                        int inflight, int kills, int stalls, std::uint64_t seed) {
  const auto t0 = Clock::now();
  serve::BatchSolver srv(serve::ServeOptions(sopts).with_async(true));
  srv.machine().set_fault_plan(
      fault::Plan::random_faults(sopts.ranks(), kills, stalls, 40, seed));

  ChaosMeasured out;
  std::vector<serve::JobHandle> handles;
  handles.reserve(problems.size());
  std::size_t next_submit = 0, next_wait = 0;
  while (next_wait < problems.size()) {
    while (next_submit < problems.size() &&
           next_submit - next_wait < static_cast<std::size_t>(inflight)) {
      const Problem& p = problems[next_submit];
      handles.push_back(srv.submit(p.A, p.rhs));
      ++next_submit;
    }
    handles[next_wait].wait();
    ++next_wait;
  }
  out.total_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.ok.total_seconds = out.total_seconds;
  out.submitted = handles.size();
  for (const auto& h : handles) {
    try {
      record_job(out.ok, h.stats());  // throws the job's error if it failed
      ++out.completed;
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  out.ok.stats = srv.stats();
  return out;
}

void json_measured(b::JsonWriter& w, const Measured& m, bool with_latency) {
  w.key("problems_per_sec").value(m.problems_per_second());
  w.key("total_seconds").value(m.total_seconds);
  w.key("machine_seconds").value(m.stats.serve_seconds);
  w.key("p50_seconds").value(b::percentile(m.job_seconds, 0.50));
  w.key("p95_seconds").value(b::percentile(m.job_seconds, 0.95));
  if (with_latency) {
    w.key("latency_p50_seconds").value(b::percentile(m.latency_seconds, 0.50));
    w.key("latency_p95_seconds").value(b::percentile(m.latency_seconds, 0.95));
    w.key("latency_p99_seconds").value(b::percentile(m.latency_seconds, 0.99));
    // The latency split (latency = queue + exec per job): how much of the
    // tail is waiting in line vs being in the machine.
    w.key("queue_p50_seconds").value(b::percentile(m.queue_seconds, 0.50));
    w.key("queue_p95_seconds").value(b::percentile(m.queue_seconds, 0.95));
    w.key("exec_p50_seconds").value(b::percentile(m.exec_seconds, 0.50));
    w.key("exec_p95_seconds").value(b::percentile(m.exec_seconds, 0.95));
  }
  w.key("plan_cache_hits").value(static_cast<unsigned long long>(m.stats.plan_cache_hits));
  w.key("plan_cache_misses").value(static_cast<unsigned long long>(m.stats.plan_cache_misses));
  w.key("flushes").value(static_cast<unsigned long long>(m.stats.flushes));
  w.key("sessions").value(static_cast<unsigned long long>(m.stats.sessions));
  // Self-healing counters (additive to qr3d-bench/1): total machine attempts
  // across jobs, and jobs that needed a rank-death requeue to finish.  Both
  // stay at the no-fault baseline (attempts == jobs entering sessions,
  // recovered == 0) unless a fault plan was installed.
  w.key("attempts").value(static_cast<unsigned long long>(m.stats.attempts));
  w.key("recovered").value(static_cast<unsigned long long>(m.stats.recovered));
  // Traffic-shaping counters (additive to qr3d-bench/1): admission rejects
  // and deadline misses stay 0 unless a cap/deadlines were configured.
  w.key("jobs_rejected").value(static_cast<unsigned long long>(m.stats.jobs_rejected));
  w.key("deadline_misses").value(static_cast<unsigned long long>(m.stats.deadline_misses));
  // Cost-model drift (additive to qr3d-bench/1): wall/predicted ratio per
  // completed job — the reprofile-on-drift signal, exported so trajectory
  // tooling can watch the model's calibration degrade across PRs.
  w.key("drift_samples").value(static_cast<unsigned long long>(m.stats.drift_samples));
  w.key("drift_p50").value(m.stats.drift_p50);
  w.key("drift_p95").value(m.stats.drift_p95);
}

}  // namespace

int main(int argc, char** argv) {
  const backend::Kind kind = b::parse_backend(argc, argv);
  const int P = static_cast<int>(b::parse_long_flag(argc, argv, "--P", 4));
  const int jobs = static_cast<int>(b::parse_long_flag(argc, argv, "--jobs", 64));
  const la::index_t m = b::parse_long_flag(argc, argv, "--m", 96);
  const la::index_t n = b::parse_long_flag(argc, argv, "--n", 24);
  const int group = static_cast<int>(b::parse_long_flag(argc, argv, "--group", 0));
  const int inflight =
      static_cast<int>(b::parse_long_flag(argc, argv, "--inflight", 2 * static_cast<long>(P)));
  const double tail_gate =
      static_cast<double>(b::parse_long_flag(argc, argv, "--tail-gate", 3));
  const bool profile = b::has_flag(argc, argv, "--profile");
  const bool smoke = b::has_flag(argc, argv, "--smoke");
  const char* json_path = b::parse_flag(argc, argv, "--json");
  const char* trace_path = b::parse_flag(argc, argv, "--trace");
  // Best-of-N for the batch modes; --smoke defaults to 3 so the CI gate
  // compares best-vs-best instead of flipping a scheduler coin.
  const int reps = static_cast<int>(b::parse_long_flag(argc, argv, "--reps", smoke ? 3 : 1));

  b::banner("E10", "Serving throughput: blocking vs async BatchSolver vs independent Solver calls");
  std::printf("backend=%s P=%d jobs=%d shape=%lldx%lld group=%s inflight=%d%s\n\n",
              backend::kind_name(kind), P, jobs, static_cast<long long>(m),
              static_cast<long long>(n), group == 0 ? "adaptive" : std::to_string(group).c_str(),
              inflight, profile ? " (tuning on measured profile)" : "");

  std::vector<Problem> problems;
  problems.reserve(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(j);
    problems.push_back({la::random_matrix(m, n, seed), la::random_matrix(m, 1, seed + 50000)});
  }

  const qr3d::QrOptions qr =
      qr3d::QrOptions().with_tune_for_machine().with_backend(
          kind == backend::Kind::Thread ? qr3d::Backend::Thread : qr3d::Backend::Simulated);
  serve::ServeOptions sopts;
  sopts.with_ranks(P).with_qr(qr).with_profile(profile).with_group_ranks(group);

  // --- Independent path: fresh machine + fresh Solver per problem. ----------
  // Same best-of-N estimator as the batch modes, so the speedup compares
  // best against best.
  Measured indep;
  for (int r = 0; r < reps; ++r) {
    Measured cur;
    const auto t0 = Clock::now();
    for (const Problem& p : problems) {
      const auto j0 = Clock::now();
      auto machine = qr3d::make_machine(qr, P);
      machine->run([&](backend::Comm& c) {
        qr3d::DistMatrix Ad = qr3d::DistMatrix::from_global(c, p.A.view());
        qr3d::DistMatrix bd = qr3d::DistMatrix::from_global(c, p.rhs.view());
        qr3d::Solver(qr).factor(Ad).solve_least_squares(bd);
      });
      cur.job_seconds.push_back(std::chrono::duration<double>(Clock::now() - j0).count());
    }
    cur.total_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || cur.total_seconds < indep.total_seconds) indep = std::move(cur);
  }

  // --- Blocking and async batch paths on identical problems. ----------------
  const Measured blocking = run_batch(problems, serve::ServeOptions(sopts).with_async(false), reps);
  const Measured async = run_batch(problems, serve::ServeOptions(sopts).with_async(true), reps);

  // --- Continuous load (async): closed loop, `inflight` outstanding. --------
  const Measured cont =
      run_continuous(problems, serve::ServeOptions(sopts).with_async(true), inflight);

  // --- Mixed-priority continuous load (traffic shaping headline). -----------
  // A backlog of 4x-taller low-priority jobs saturates the machine; small
  // high-priority jobs stream through and their tail is what per-round
  // dispatch + priority pop protect.
  const MixedMeasured mixed =
      run_mixed(sopts, 4 * m, m, n, jobs, std::max(4, jobs / 2), inflight);
  const double high_p50 = b::percentile(mixed.high.latency_seconds, 0.50);
  const double high_p99 = b::percentile(mixed.high.latency_seconds, 0.99);
  const double low_exec_p95 = b::percentile(mixed.low.exec_seconds, 0.95);
  // The bound a newly arrived high-priority job cannot beat: the round in
  // flight (one big job's exec, p95) plus its own service time scaled by
  // the gate's noise allowance.
  const double tail_bound = tail_gate * high_p50 + low_exec_p95;

  // --- Chaos: continuous load under seeded kills AND stalls. ----------------
  // Watchdog + retry backoff armed; tiny declared params keep the session
  // deadline floor-governed (0.05 virtual s on sim, 0.2 wall s on threads —
  // the model predicts the factorization, not the session framing, so a
  // tight factor over real predictions would time out honest sessions).
  const int chaos_kills = static_cast<int>(b::parse_long_flag(argc, argv, "--chaos-kills", 1));
  const int chaos_stalls = static_cast<int>(b::parse_long_flag(argc, argv, "--chaos-stalls", 2));
  const std::uint64_t chaos_seed =
      static_cast<std::uint64_t>(b::parse_long_flag(argc, argv, "--chaos-seed", 42));
  serve::ServeOptions chaos_opts(sopts);
  chaos_opts.with_max_attempts(4)
      .with_session_timeout_factor(3.0)
      .with_retry_backoff(1e-3, 1e-2, chaos_seed)
      .with_params(sim::CostParams{1e-7, 1e-9, 1e-10})
      // Faults inject at comm ops, so the chaos segment needs multi-rank
      // groups (adaptive sizing under tiny params picks 1-rank groups,
      // which never communicate and would dodge every event).
      .with_group_ranks(group > 0 ? group : std::min(2, P));
  const ChaosMeasured chaos =
      run_chaos(problems, chaos_opts, inflight, chaos_kills, chaos_stalls, chaos_seed);

  const double speedup = indep.problems_per_second() > 0.0
                             ? blocking.problems_per_second() / indep.problems_per_second()
                             : 0.0;
  const double async_vs_blocking = blocking.problems_per_second() > 0.0
                                       ? async.problems_per_second() / blocking.problems_per_second()
                                       : 0.0;

  b::Table t({"mode", "total", "problems/s", "p50/job", "p95/job", "lat p99", "plan h/m"});
  auto hm = [](const Measured& x) {
    return std::to_string(x.stats.plan_cache_hits) + "/" + std::to_string(x.stats.plan_cache_misses);
  };
  t.row({"independent Solver calls", b::secs(indep.total_seconds),
         b::num(indep.problems_per_second()), b::secs(b::percentile(indep.job_seconds, 0.50)),
         b::secs(b::percentile(indep.job_seconds, 0.95)), "-", "-"});
  t.row({"BatchSolver blocking", b::secs(blocking.total_seconds),
         b::num(blocking.problems_per_second()), b::secs(b::percentile(blocking.job_seconds, 0.50)),
         b::secs(b::percentile(blocking.job_seconds, 0.95)),
         b::secs(b::percentile(blocking.latency_seconds, 0.99)), hm(blocking)});
  t.row({"BatchSolver async", b::secs(async.total_seconds), b::num(async.problems_per_second()),
         b::secs(b::percentile(async.job_seconds, 0.50)),
         b::secs(b::percentile(async.job_seconds, 0.95)),
         b::secs(b::percentile(async.latency_seconds, 0.99)), hm(async)});
  t.row({"async continuous load", b::secs(cont.total_seconds), b::num(cont.problems_per_second()),
         b::secs(b::percentile(cont.job_seconds, 0.50)),
         b::secs(b::percentile(cont.job_seconds, 0.95)),
         b::secs(b::percentile(cont.latency_seconds, 0.99)), hm(cont)});
  t.row({"mixed: high-priority small", b::secs(mixed.total_seconds), "-",
         b::secs(b::percentile(mixed.high.job_seconds, 0.50)),
         b::secs(b::percentile(mixed.high.job_seconds, 0.95)), b::secs(high_p99), "-"});
  t.row({"mixed: low-priority big", "-", "-",
         b::secs(b::percentile(mixed.low.job_seconds, 0.50)),
         b::secs(b::percentile(mixed.low.job_seconds, 0.95)),
         b::secs(b::percentile(mixed.low.latency_seconds, 0.99)), "-"});
  t.row({"chaos (kills+stalls)", b::secs(chaos.total_seconds),
         b::num(chaos.ok.problems_per_second()),
         b::secs(b::percentile(chaos.ok.job_seconds, 0.50)),
         b::secs(b::percentile(chaos.ok.job_seconds, 0.95)),
         b::secs(b::percentile(chaos.ok.latency_seconds, 0.99)), hm(chaos.ok)});
  t.print();
  std::printf("speedup vs independent (blocking, problems/sec): %.2fx\n", speedup);
  std::printf("async vs blocking (problems/sec): %.2fx\n", async_vs_blocking);
  std::printf("continuous tail latency: p50=%s p95=%s p99=%s (inflight=%d)\n",
              b::secs(b::percentile(cont.latency_seconds, 0.50)).c_str(),
              b::secs(b::percentile(cont.latency_seconds, 0.95)).c_str(),
              b::secs(b::percentile(cont.latency_seconds, 0.99)).c_str(), inflight);
  std::printf(
      "mixed high-priority tail: p50=%s p99=%s vs bound %s (= %.0fx p50 + big exec p95 %s)\n",
      b::secs(high_p50).c_str(), b::secs(high_p99).c_str(), b::secs(tail_bound).c_str(),
      tail_gate, b::secs(low_exec_p95).c_str());
  std::printf(
      "chaos (seed=%llu, %d kills + %d stalls): availability %.4f (%llu/%llu), "
      "timeouts=%llu requeues=%llu+%llu recovered=%llu quarantined=%llu\n",
      static_cast<unsigned long long>(chaos_seed), chaos_kills, chaos_stalls,
      chaos.availability(), static_cast<unsigned long long>(chaos.completed),
      static_cast<unsigned long long>(chaos.submitted),
      static_cast<unsigned long long>(chaos.ok.stats.session_timeouts),
      static_cast<unsigned long long>(chaos.ok.stats.requeues_timeout),
      static_cast<unsigned long long>(chaos.ok.stats.requeues_rank_death),
      static_cast<unsigned long long>(chaos.ok.stats.recovered),
      static_cast<unsigned long long>(chaos.ok.stats.ranks_quarantined));

  if (trace_path) {
    // One extra traced blocking batch, outside every timed segment: the
    // measured numbers above never pay for tracing, and the trace shows a
    // representative serving timeline (machine comm ops on track 0, serving
    // spans on track 1).
    auto trace = std::make_shared<qr3d::obs::TraceBuffer>();
    run_batch_once(problems,
                   serve::ServeOptions(sopts).with_async(false).with_trace(trace));
    if (!qr3d::obs::write_chrome_trace(trace->events(), trace_path)) return 3;
    std::printf("wrote %s (%zu trace events; open in chrome://tracing)\n", trace_path,
                trace->size());
  }

  if (json_path) {
    b::JsonWriter w;
    b::begin_bench_json(w, "throughput", kind);
    w.key("P").value(P);
    w.key("jobs").value(jobs);
    w.key("m").value(static_cast<long>(m));
    w.key("n").value(static_cast<long>(n));
    w.key("group_ranks").value(group);
    w.key("inflight").value(inflight);
    w.key("profiled").value(profile);
    w.key("independent").begin_object();
    w.key("problems_per_sec").value(indep.problems_per_second());
    w.key("total_seconds").value(indep.total_seconds);
    w.key("p50_seconds").value(b::percentile(indep.job_seconds, 0.50));
    w.key("p95_seconds").value(b::percentile(indep.job_seconds, 0.95));
    w.end_object();
    w.key("blocking").begin_object();
    json_measured(w, blocking, false);
    w.end_object();
    w.key("async").begin_object();
    json_measured(w, async, true);
    w.end_object();
    w.key("continuous").begin_object();
    json_measured(w, cont, true);
    w.end_object();
    w.key("mixed").begin_object();
    w.key("total_seconds").value(mixed.total_seconds);
    w.key("tail_gate").value(tail_gate);
    w.key("tail_bound_seconds").value(tail_bound);
    w.key("high").begin_object();
    json_measured(w, mixed.high, true);
    w.end_object();
    w.key("low").begin_object();
    w.key("latency_p50_seconds").value(b::percentile(mixed.low.latency_seconds, 0.50));
    w.key("latency_p95_seconds").value(b::percentile(mixed.low.latency_seconds, 0.95));
    w.key("latency_p99_seconds").value(b::percentile(mixed.low.latency_seconds, 0.99));
    w.key("queue_p95_seconds").value(b::percentile(mixed.low.queue_seconds, 0.95));
    w.key("exec_p95_seconds").value(low_exec_p95);
    w.end_object();
    w.end_object();
    w.key("chaos").begin_object();
    w.key("seed").value(static_cast<unsigned long long>(chaos_seed));
    w.key("kills").value(chaos_kills);
    w.key("stalls").value(chaos_stalls);
    w.key("availability").value(chaos.availability());
    w.key("jobs_submitted").value(static_cast<unsigned long long>(chaos.submitted));
    w.key("jobs_completed").value(static_cast<unsigned long long>(chaos.completed));
    w.key("jobs_failed").value(static_cast<unsigned long long>(chaos.failed));
    w.key("latency_p99_seconds").value(b::percentile(chaos.ok.latency_seconds, 0.99));
    w.key("session_timeouts")
        .value(static_cast<unsigned long long>(chaos.ok.stats.session_timeouts));
    w.key("requeues_timeout")
        .value(static_cast<unsigned long long>(chaos.ok.stats.requeues_timeout));
    w.key("requeues_rank_death")
        .value(static_cast<unsigned long long>(chaos.ok.stats.requeues_rank_death));
    w.key("recovered").value(static_cast<unsigned long long>(chaos.ok.stats.recovered));
    w.key("ranks_quarantined")
        .value(static_cast<unsigned long long>(chaos.ok.stats.ranks_quarantined));
    w.key("ranks_reinstated")
        .value(static_cast<unsigned long long>(chaos.ok.stats.ranks_reinstated));
    w.end_object();
    w.key("speedup").value(speedup);
    w.key("async_vs_blocking").value(async_vs_blocking);
    w.end_object();
    if (!w.write_file(json_path)) return 3;
    std::printf("wrote %s\n", json_path);
  }

  if (smoke) {
    // CI guard: the serving path must actually serve (>= 1 problem/sec with
    // the plan cache doing its job on a same-shape batch), the async path
    // must hold the blocking path's throughput, and the continuous mode
    // must produce a measurable tail.
    if (blocking.problems_per_second() < 1.0) {
      std::fprintf(stderr, "SMOKE FAIL: %.3f problems/sec < 1\n",
                   blocking.problems_per_second());
      return 1;
    }
    if (blocking.stats.plan_cache_hits == 0) {
      std::fprintf(stderr, "SMOKE FAIL: no plan-cache hits\n");
      return 1;
    }
    if (async_vs_blocking < 0.9) {
      std::fprintf(stderr, "SMOKE FAIL: async path %.2fx of blocking (< 0.9x)\n",
                   async_vs_blocking);
      return 1;
    }
    if (b::percentile(cont.latency_seconds, 0.99) <= 0.0) {
      std::fprintf(stderr, "SMOKE FAIL: continuous mode produced no tail latency\n");
      return 1;
    }
    // Traffic-shaping gate: while the machine is saturated with big
    // low-priority work, a high-priority job's p99 stays within the gate's
    // multiple of its p50 plus one in-flight big slice — the head-of-line
    // bound per-round dispatch guarantees.
    if (high_p99 > tail_bound) {
      std::fprintf(stderr,
                   "SMOKE FAIL: mixed high-priority p99 %.3fms > %.3fms "
                   "(%.0fx p50 %.3fms + big exec p95 %.3fms)\n",
                   high_p99 * 1e3, tail_bound * 1e3, tail_gate, high_p50 * 1e3,
                   low_exec_p95 * 1e3);
      return 1;
    }
    // Fail-slow gate: under seeded kills AND stalls the serving layer must
    // keep availability — every job resolves, and at least 99% of them
    // resolve successfully (self-healing + watchdog retries) — with a
    // finite measured tail.
    if (chaos.completed + chaos.failed != chaos.submitted) {
      std::fprintf(stderr, "SMOKE FAIL: chaos left %llu jobs unresolved\n",
                   static_cast<unsigned long long>(chaos.submitted - chaos.completed -
                                                  chaos.failed));
      return 1;
    }
    if (chaos.availability() < 0.99) {
      std::fprintf(stderr, "SMOKE FAIL: chaos availability %.4f < 0.99 (seed=%llu)\n",
                   chaos.availability(), static_cast<unsigned long long>(chaos_seed));
      return 1;
    }
    if (!chaos.ok.latency_seconds.empty() &&
        b::percentile(chaos.ok.latency_seconds, 0.99) <= 0.0) {
      std::fprintf(stderr, "SMOKE FAIL: chaos mode produced no tail latency\n");
      return 1;
    }
    std::printf(
        "smoke OK: blocking %.1f problems/sec, async %.2fx, p99 %.3fms, "
        "mixed high p99 %.3fms <= %.3fms, chaos availability %.4f\n",
        blocking.problems_per_second(), async_vs_blocking,
        b::percentile(cont.latency_seconds, 0.99) * 1e3, high_p99 * 1e3, tail_bound * 1e3,
        chaos.availability());
  }
  return 0;
}
