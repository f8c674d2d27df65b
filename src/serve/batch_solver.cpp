#include "serve/batch_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/api.hpp"
#include "core/cholesky_qr2.hpp"
#include "cost/model.hpp"
#include "fault/plan.hpp"
#include "health/timeout.hpp"
#include "la/error.hpp"

namespace qr3d::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The error queued/unstarted jobs resolve with when the solver aborts.
std::exception_ptr abort_error() {
  return std::make_exception_ptr(
      std::runtime_error("qr3d::serve: BatchSolver aborted with jobs pending"));
}

/// Completed-job drift samples required since the last profile before the
/// drift trigger (with_reprofile_on_drift) may fire — a couple of outliers
/// must not thrash the profiler.
constexpr std::uint64_t kDriftMinSamples = 8;

/// Clean sessions a stall-quarantined rank sits out before reinstatement.
constexpr int kQuarantineProbation = 2;

/// Record one serving-track (track 1) event: a span [t0, t1], or an instant
/// (t1 == t0).  `lane` is the Chrome row — the job's sequence number, or -1
/// for the dispatcher — and `id` the job sequence number or session round.
void trace_serving(obs::TraceSink& tr, obs::TraceEvent::Kind kind, const char* name, int lane,
                   std::uint64_t id, double t0, double t1, int peer = -1, double words = 0.0) {
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.track = 1;
  ev.rank = lane;
  ev.id = id;
  ev.peer = peer;
  ev.words = words;
  ev.name = name;
  ev.t0 = t0;
  ev.t1 = t1;
  tr.record(std::move(ev));
}

constexpr auto kSpan = obs::TraceEvent::Kind::Span;
constexpr auto kInstant = obs::TraceEvent::Kind::Instant;

}  // namespace

ServeOptions& ServeOptions::with_ranks(int P) {
  QR3D_CHECK(P >= 1, "ServeOptions: need at least one rank");
  ranks_ = P;
  return *this;
}

ServeOptions& ServeOptions::with_group_ranks(int g) {
  QR3D_CHECK(g >= 0, "ServeOptions: group_ranks must be >= 0 (0 = adaptive)");
  group_ranks_ = g;
  return *this;
}

ServeOptions& ServeOptions::with_reprofile_on_drift(double factor) {
  QR3D_CHECK(factor == 0.0 || factor > 1.0,
             "ServeOptions: reprofile_on_drift factor must be > 1 (0 disables)");
  reprofile_on_drift_ = factor;
  return *this;
}

ServeOptions& ServeOptions::with_max_attempts(int attempts) {
  QR3D_CHECK(attempts >= 1, "ServeOptions: max_attempts must be >= 1");
  max_attempts_ = attempts;
  return *this;
}

ServeOptions& ServeOptions::with_age_promote_after(std::chrono::steady_clock::duration d) {
  QR3D_CHECK(d >= std::chrono::steady_clock::duration::zero(),
             "ServeOptions: age_promote_after must be >= 0 (0 disables aging)");
  age_promote_after_ = d;
  return *this;
}

ServeOptions& ServeOptions::with_session_timeout_factor(double factor) {
  QR3D_CHECK(factor == 0.0 || factor >= 1.0,
             "ServeOptions: session_timeout_factor must be 0 (off) or >= 1");
  session_timeout_factor_ = factor;
  return *this;
}

ServeOptions& ServeOptions::with_retry_backoff(double base_seconds, double cap_seconds,
                                               std::uint64_t seed) {
  QR3D_CHECK(base_seconds >= 0.0 && cap_seconds >= 0.0,
             "ServeOptions: retry backoff base and cap must be >= 0");
  retry_backoff_ = health::Backoff(base_seconds, cap_seconds, seed);
  return *this;
}

// ---------------------------------------------------------------------------
// Plan resolution and adaptive group sizing
// ---------------------------------------------------------------------------

Plan resolve_shape_plan(la::index_t m, la::index_t n, int P, const QrOptions& qr,
                        PlanCache& cache, backend::Kind kind, const sim::CostParams& machine,
                        core::Accuracy accuracy, double float_flop_scale) {
  const PlanKey key = make_plan_key(m, n, P, Dist::CyclicRows, kind, machine, accuracy);
  return cache.lookup_or_compute(key, [&]() {
    core::CaqrEg3dOptions params;
    params.b = qr.block_size();
    params.b_star = qr.base_block_size();
    params.delta = qr.delta();
    params.epsilon = qr.epsilon();
    params = core::resolve_algorithm(m, n, P, qr.algorithm(), params);
    Plan plan;
    plan.delta = params.delta;
    plan.epsilon = params.epsilon;
    plan.b = params.b;
    plan.b_star = params.b_star;
    const double md = static_cast<double>(m), nd = static_cast<double>(n);
    if (P <= 1) {
      // Single-rank group: a local serial QR, no communication to tune.
      plan.predicted = cost::Costs{2.0 * md * nd * nd, 0.0, 0.0};
    } else if (params.b == 0) {
      // Full 3D recursion: grid-search (delta, epsilon) when tuning, else
      // predict at the resolved defaults.
      if (qr.tune_for_machine()) {
        const cost::Tuned3d t = cost::tune_3d(md, nd, P, machine);
        plan.delta = t.delta;
        plan.epsilon = t.epsilon;
        plan.predicted = t.predicted;
      } else {
        plan.predicted = cost::caqr_eg_3d(md, nd, P, plan.delta, plan.epsilon);
      }
    } else if (params.b == n) {
      // Tall-skinny dispatch (immediate conversion + 1D-CAQR-EG): delta is
      // moot but Theorem 2's epsilon still trades words against messages.
      if (qr.tune_for_machine()) {
        const cost::Tuned1d t = cost::tune_1d(md, nd, P, machine);
        plan.epsilon = t.epsilon;
        plan.predicted = t.predicted;
      } else {
        plan.predicted = cost::caqr_eg_1d(md, nd, P, plan.epsilon);
      }
    } else {
      // Hand-pinned recursion threshold: predict at exactly those blocks.
      plan.predicted = cost::caqr_eg_3d_b(md, nd, P, static_cast<double>(params.b),
                                          std::max(1.0, static_cast<double>(params.b_star)));
    }
    // Accuracy-contract dispatch: fast/balanced jobs take the CholeskyQR2
    // fast path when the model says it wins at this shape under the key's
    // machine parameters (tall-skinny shapes — squarish ones, and P = 1
    // where the local serial QR is cheaper, lose the comparison and stay on
    // Householder).  The Householder fields above are NOT cleared: they are
    // the fallback plan the session retries with when the condition guard
    // trips or the Gram goes non-SPD.
    if (accuracy != core::Accuracy::Accurate && m >= n) {
      cost::Costs cq = cost::cholesky_qr2(md, nd, P);
      const bool use_float = accuracy == core::Accuracy::Fast;
      if (use_float && float_flop_scale < 1.0) {
        // Float first pass: its local work (gram + Cholesky + solve) runs at
        // the float rate.  Expressed as "effective double flops" so
        // Costs::time under the double-calibrated gamma stays comparable.
        const double pass1 = 3.0 * md * nd * nd / P + nd * nd * nd / 3.0;
        cq.flops -= pass1 * (1.0 - float_flop_scale);
      }
      if (cq.time(machine) < plan.predicted.time(machine)) {
        plan.algorithm = PlanAlgorithm::CholeskyQr2;
        plan.use_float = use_float;
        plan.max_condition =
            use_float ? core::kFastMaxCondition : core::kBalancedMaxCondition;
        plan.predicted = cq;
      }
    }
    return plan;
  });
}

std::vector<int> group_size_candidates(int P) {
  std::vector<int> gs;
  for (int g = 1; g < P; g *= 2) gs.push_back(g);
  gs.push_back(P);
  return gs;
}

GroupChoice choose_group_ranks(la::index_t m, la::index_t n, int jobs, int P,
                               const QrOptions& qr, PlanCache& cache, backend::Kind kind,
                               const sim::CostParams& machine, core::Accuracy accuracy,
                               double float_flop_scale) {
  QR3D_CHECK(jobs >= 1, "choose_group_ranks: need at least one job");
  QR3D_CHECK(P >= 1, "choose_group_ranks: need at least one rank");
  GroupChoice best;
  bool have_best = false;
  for (int g : group_size_candidates(P)) {
    const Plan plan = resolve_shape_plan(m, n, g, qr, cache, kind, machine, accuracy,
                                         float_flop_scale);
    const double t_job = plan.predicted.time(machine);
    const int groups = P / g;
    const double rounds = std::ceil(static_cast<double>(jobs) / static_cast<double>(groups));
    const double makespan = rounds * t_job;
    // Strictly better makespan wins; a makespan within 1% of the incumbent
    // (the model is asymptotic — hair-thin differences are noise) goes to
    // the larger group for its lower per-job latency.
    const bool better = !have_best || makespan < 0.99 * best.makespan_seconds ||
                        (makespan <= 1.01 * best.makespan_seconds && t_job < best.job_seconds);
    if (better) {
      best.group_ranks = g;
      best.job_seconds = t_job;
      best.makespan_seconds = makespan;
      have_best = true;
    }
  }
  return best;
}

SessionOutcome classify_session(bool threw, bool threw_rank_death, bool any_deaths,
                                bool timed_out, bool any_unfinished) {
  SessionOutcome out;
  // A rank death (fault::RankDeath, or the machine reporting deaths after a
  // run that otherwise ended cleanly) and a session timeout (fail-slow,
  // converted to fail-stop by the deadline) are both recoverable by
  // requeueing; anything else is final.
  out.recoverable = any_deaths || (threw && threw_rank_death) || timed_out;
  out.cause = timed_out ? RetryCause::Timeout : RetryCause::RankDeath;
  out.synthesize_death = !threw && !timed_out && any_unfinished && any_deaths;
  if (timed_out) {
    out.health = SessionOutcome::Health::QuarantineStalls;
  } else if (!threw && !any_deaths) {
    out.health = SessionOutcome::Health::CreditClean;
  }
  return out;
}

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

bool JobHandle::ready() const {
  QR3D_CHECK(valid(), "JobHandle: default-constructed handle");
  return job_->done.load(std::memory_order_acquire);
}

void JobHandle::wait() const {
  QR3D_CHECK(valid(), "JobHandle: default-constructed handle");
  if (job_->done.load(std::memory_order_acquire)) return;
  owner_->wait_for(job_);
}

const la::Matrix& JobHandle::get() const {
  wait();
  if (job_->error) std::rethrow_exception(job_->error);
  return job_->x;
}

const JobStats& JobHandle::stats() const {
  QR3D_CHECK(valid(), "JobHandle: default-constructed handle");
  QR3D_CHECK(job_->done.load(std::memory_order_acquire),
             "JobHandle::stats: job has not resolved yet (wait first)");
  if (job_->error) std::rethrow_exception(job_->error);
  return job_->stats;
}

// ---------------------------------------------------------------------------
// BatchSolver
// ---------------------------------------------------------------------------

BatchSolver::BatchSolver(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_shared<PlanCache>()),
      solver_(opts_.qr(), cache_),
      sched_(opts_.age_promote_after()),
      rank_health_(kQuarantineProbation) {
  // Construct, optionally profile, and (re)construct: tuning consults the
  // machine's params(), so the fitted profile must be baked into the machine
  // the jobs run on — that is the profile -> tune -> serve loop.
  machine_ = make_machine(opts_.qr(), opts_.ranks(), opts_.params());
  if (opts_.profile()) {
    profile_ = profile_machine(*machine_, opts_.profile_options());
    machine_ = make_machine(opts_.qr(), opts_.ranks(), profile_->fitted);
  }
  if (opts_.trace()) machine_->set_trace_sink(opts_.trace());
  if (opts_.async()) {
    executor_ = std::thread([this]() {
      executor_loop();
      executor_exited_.store(true, std::memory_order_release);
    });
  }
}

BatchSolver::~BatchSolver() { shutdown(); }

JobHandle BatchSolver::submit(la::Matrix A, la::Matrix b) {
  return submit(std::move(A), std::move(b), SubmitOptions{});
}

JobHandle BatchSolver::submit(la::Matrix A, la::Matrix b, const SubmitOptions& sopts) {
  auto job = std::make_shared<detail::Job>();
  job->A = std::move(A);
  job->b = std::move(b);
  job->submitted_at = Clock::now();
  job->priority = sopts.priority;
  job->stats.priority = sopts.priority;
  // The accuracy contract resolves at submit time: per-job override, else
  // the solver-wide QrOptions default.  Plan resolution keys on it.
  job->accuracy = sopts.accuracy.value_or(opts_.qr().accuracy());
  job->stats.accuracy = job->accuracy;
  if (sopts.deadline) {
    job->has_deadline = true;
    job->deadline = job->submitted_at + *sopts.deadline;
  }
  bool rejected = false;
  std::size_t depth = 0;
  double retry_after = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    QR3D_CHECK(!stop_, "BatchSolver: submit after shutdown/abort");
    m_.submitted->inc();
    job->seq = next_seq_++;
    depth = sched_.size();
    if (opts_.max_queue_depth() > 0 && depth >= opts_.max_queue_depth()) {
      // Fail-fast admission: the handle resolves with AdmissionError right
      // here (outside the lock, below) instead of the queue growing — the
      // caller can never hang on a rejected job.  The error carries a
      // retry-after hint: how long the backlog should take to drain at the
      // model-predicted per-job rate (0 until a round has been dispatched
      // and a prediction exists).
      rejected = true;
      m_.rejected->inc();
      retry_after = static_cast<double>(depth) * last_predicted_job_seconds_;
      m_.retry_after->set(retry_after);
    } else {
      sched_.push(job);
    }
  }
  if (const auto& tr = opts_.trace()) {
    const double t = obs::trace_seconds(job->submitted_at);
    trace_serving(*tr, kInstant, rejected ? "admission_reject" : "submit",
                  static_cast<int>(job->seq), job->seq, t, t);
  }
  if (rejected) {
    resolve_job(job, std::make_exception_ptr(
                         AdmissionError(depth, opts_.max_queue_depth(), retry_after)));
    return JobHandle(this, std::move(job));
  }
  if (opts_.async()) queue_cv_.notify_one();
  return JobHandle(this, std::move(job));
}

void BatchSolver::resolve_job(const std::shared_ptr<detail::Job>& job, std::exception_ptr error) {
  if (error) job->error = error;
  const double latency = seconds_since(job->submitted_at);
  job->stats.latency_seconds = latency;
  if (job->dispatched) {
    // queue_seconds was stamped at the first machine dispatch; the rest of
    // the latency (machine rounds, requeue waits) is execution.
    job->stats.exec_seconds = std::max(0.0, latency - job->stats.queue_seconds);
  } else {
    // Never entered the machine (validation reject, admission reject,
    // abort): the whole latency was spent queued.
    job->stats.queue_seconds = latency;
  }
  if (job->has_deadline && Clock::now() > job->deadline) job->stats.deadline_missed = true;
  job->done.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A popped-but-unresolved job lives in in_flight_ so flush() barriers
    // can see it; resolution retires it.
    in_flight_.erase(std::remove(in_flight_.begin(), in_flight_.end(), job), in_flight_.end());
    if (job->error) {
      m_.failed->inc();
    } else {
      m_.completed->inc();
      if (job->stats.recovered) m_.recovered->inc();
    }
    if (job->stats.deadline_missed) m_.deadline_misses->inc();
    m_.latency->record(latency);
    m_.queue_wait->record(job->stats.queue_seconds);
    m_.exec->record(job->stats.exec_seconds);
    // Drift detector: one sample per successfully completed job that has
    // both a measured in-machine time and a model prediction.  The ratio is
    // accumulated twice — since construction (surfaced in Stats) and since
    // the last profile (the with_reprofile_on_drift trigger).
    if (!job->error && job->stats.wall_seconds > 0.0 && job->stats.predicted_seconds > 0.0) {
      const double ratio = job->stats.wall_seconds / job->stats.predicted_seconds;
      m_.drift->record(ratio);
      m_.drift_since_profile->record(ratio);
    }
  }
  done_cv_.notify_all();
  if (const auto& tr = opts_.trace()) {
    // The job's terminal span: exec (dispatch -> resolution) once it entered
    // the machine, queued (submit -> resolution) when it never did.
    const char* name = job->dispatched ? (job->error ? "exec (failed)" : "exec")
                                       : (job->error ? "queued (failed)" : "queued");
    const double t0 = obs::trace_seconds(job->dispatched ? job->dispatched_at : job->submitted_at);
    trace_serving(*tr, kSpan, name, static_cast<int>(job->seq), job->seq, t0, obs::trace_now());
  }
}

bool BatchSolver::validate_job(const std::shared_ptr<detail::Job>& job) {
  try {
    QR3D_CHECK(!job->A.empty(), "BatchSolver: job matrix A is empty");
    QR3D_CHECK(!job->b.empty(), "BatchSolver: job right-hand side b is empty");
    QR3D_CHECK(job->b.rows() == job->A.rows(), "BatchSolver: b must have A's row count");
    // Shape/threshold validation; the rank count a job sees is its group
    // size, but validate() only needs P >= 1, which holds for any group.
    opts_.qr().validate(job->A.rows(), job->A.cols(), opts_.ranks());
    return true;
  } catch (...) {
    resolve_job(job, std::current_exception());
    return false;
  }
}

void BatchSolver::maybe_reprofile() {
  const double f = opts_.reprofile_on_drift();
  if (f <= 0.0) return;
  {
    // The drift *signal*: the median measured/predicted ratio of jobs
    // completed since the last profile.  Only a sustained departure from
    // [1/factor, factor] re-fits — p50, not max, so one noisy job cannot
    // thrash the profiler.
    std::lock_guard<std::mutex> lock(mu_);
    if (m_.drift_since_profile->count() < kDriftMinSamples) return;
    const double med = m_.drift_since_profile->quantile(0.5);
    if (!(med > f || med < 1.0 / f)) return;
  }
  try {
    MachineProfile fresh = profile_machine(*machine_, opts_.profile_options());
    auto machine = make_machine(opts_.qr(), opts_.ranks(), fresh.fitted);
    if (opts_.trace()) machine->set_trace_sink(opts_.trace());
    std::lock_guard<std::mutex> lock(mu_);
    machine_ = std::move(machine);
    profile_ = fresh;
    // New parameters mean new plan keys: clear the sized-shape set so every
    // shape re-sizes and re-tunes against the fresh fit (counted as misses).
    sized_shapes_.clear();
    // The drift trigger compares against the *new* fit from here on.
    m_.drift_since_profile->reset();
    m_.reprofiles->inc();
  } catch (...) {
    // Profiling interrupted (e.g. an abort() racing the micro-benchmarks):
    // keep the previous profile and machine; the next dispatch retries.
    return;
  }
  if (const auto& tr = opts_.trace()) {
    const double now = obs::trace_now();
    trace_serving(*tr, kInstant, "reprofile", -1, 0, now, now);
  }
}

std::vector<int> BatchSolver::usable_ranks_locked() const {
  const int P = opts_.ranks();
  std::vector<char> dead(static_cast<std::size_t>(P), 0);
  for (int r : dead_ranks_) dead[static_cast<std::size_t>(r)] = 1;
  std::vector<int> alive, usable;
  for (int r = 0; r < P; ++r) {
    if (dead[static_cast<std::size_t>(r)]) continue;
    alive.push_back(r);
    if (!rank_health_.is_quarantined(r)) usable.push_back(r);
  }
  // Capacity wins: quarantining every survivor would halt serving, so a
  // quarantine that empties the usable set is ignored for this session (the
  // suspects still serve their probation and reinstate on clean sessions).
  return usable.empty() ? alive : usable;
}

void BatchSolver::run_session(const Round& round) {
  // The machine view shrinks as ranks die or get quarantined: sessions group
  // only usable ranks (the rest split out with color -1 and idle), and the
  // group size is already clamped to what is left.
  const std::vector<int>& alive = round.ranks;
  QR3D_ASSERT(!alive.empty(), "BatchSolver: no surviving ranks to run a session on");
  const int ga = round.group_ranks, groups = round.groups;
  const JobList& jobs = round.jobs;
  // Every surviving rank joins its group's sub-communicator (ranks beyond
  // groups*ga idle out) and the groups round-robin the job list.  The
  // group's rank 0 stamps per-job wall times, writes the results, and
  // resolves the job — distinct jobs are written by distinct group roots, so
  // no record is shared, and resolve_job publishes each record with a
  // release store.
  machine_->run([&](backend::Comm& c) {
    const auto it = std::find(alive.begin(), alive.end(), c.rank());
    const int idx = it == alive.end() ? -1 : static_cast<int>(it - alive.begin());
    const int group = idx < 0 ? -1 : idx / ga;
    const bool active = group >= 0 && group < groups;
    backend::Comm gc = c.split(active ? group : -1, c.rank());
    if (!gc.valid()) return;
    for (std::size_t i = static_cast<std::size_t>(group); i < jobs.size();
         i += static_cast<std::size_t>(groups)) {
      auto& job = jobs[i];
      const auto t0 = Clock::now();
      DistMatrix Ad = DistMatrix::from_global(gc, job->A.view());
      DistMatrix bd = DistMatrix::from_global(gc, job->b.view());
      la::Matrix x;
      bool solved = false;
      if (job->plan.algorithm == PlanAlgorithm::CholeskyQr2) {
        // The accuracy-contract fast path: x = R^{-1} (Q^T b) over two
        // condition-guarded CholeskyQR passes on the local row blocks.
        // CholeskyQrUnstable is deterministic — the guard and the Cholesky
        // both act on the replicated Gram, so every rank of the group
        // throws together — which is what makes the in-place Householder
        // retry below collective-safe.
        core::CholeskyQr2Options cq;
        cq.factor_in_float = job->plan.use_float;
        cq.max_condition = job->plan.max_condition;
        try {
          x = core::cholesky_qr2_least_squares(gc, la::ConstMatrixView(Ad.local().view()),
                                               la::ConstMatrixView(bd.local().view()), cq);
          solved = true;
        } catch (const core::CholeskyQrUnstable&) {
          // Too ill-conditioned for the contract's working precision: fall
          // back to the tuned Householder fields of the same plan, in the
          // same session.  Only the group root writes the job record.
          if (gc.rank() == 0) {
            ++job->stats.cholesky_fallbacks;
            std::lock_guard<std::mutex> lock(mu_);
            m_.cholesky_fallbacks->inc();
          }
        }
      }
      if (!solved) {
        Factorization f = solver_.factor(Ad, job->plan);
        x = f.solve_least_squares(bd);
      }
      if (gc.rank() == 0) {
        job->x = std::move(x);
        job->stats.wall_seconds = seconds_since(t0);
        job->stats.group_ranks = gc.size();
        resolve_job(job, nullptr);
      }
    }
  });
}

bool BatchSolver::dispatch_round(std::exception_ptr* session_error, bool include_delayed) {
  std::optional<Round> round = plan_round(include_delayed);
  if (!round) return false;
  if (round->jobs.empty()) return true;  // every popped job resolved while planning
  const SessionResult run = run_round(*round);

  JobList unfinished;
  for (auto& job : round->jobs) {
    if (!job->done.load(std::memory_order_acquire)) unfinished.push_back(job);
  }
  bool threw_rank_death = false;
  if (run.error) {
    try {
      std::rethrow_exception(run.error);
    } catch (const fault::RankDeath&) {
      threw_rank_death = true;
    } catch (...) {
    }
  }
  QR3D_ASSERT(run.error || run.timed_out || unfinished.empty() || !run.deaths.empty(),
              "BatchSolver: machine session ended cleanly with an unfinished job");
  const SessionOutcome outcome = classify_session(
      run.error != nullptr, threw_rank_death, !run.deaths.empty(), run.timed_out,
      !unfinished.empty());
  apply_outcome(*round, run, outcome, unfinished, session_error);
  return true;
}

std::optional<BatchSolver::Round> BatchSolver::plan_round(bool include_delayed) {
  // --- Pop the best-ranked READY job (the scheduling decision) -------------
  std::shared_ptr<detail::Job> top;
  std::size_t shape_hint = 0;
  // Mixed-precision discount for fast-contract plans: how much cheaper a
  // float flop is than a double one on THIS machine (measured gamma_float /
  // gamma; 1 when unprofiled or float is no faster).
  double float_scale = 1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborting_) return std::nullopt;  // abort() drains and resolves the queue
    top = sched_.pop(Clock::now(), include_delayed);
    if (!top) return std::nullopt;
    // Popped jobs move to in_flight_ under the SAME lock: a flush barrier
    // snapshot (queue + in_flight_) must never catch a job in neither.
    in_flight_.push_back(top);
    // Sizing hint: how many same-shape jobs the batch could pipeline.
    shape_hint = sched_.count_shape(top->A.rows(), top->A.cols()) + 1;
    if (profile_ && profile_->gamma_float > 0.0 && profile_->fitted.gamma > 0.0)
      float_scale = std::min(1.0, profile_->gamma_float / profile_->fitted.gamma);
  }
  Round round;
  if (!validate_job(top)) return round;  // resolved (and retired) the job

  const la::index_t m = top->A.rows(), n = top->A.cols();
  const sim::CostParams mp = machine_->params();
  const backend::Kind kind = machine_->kind();
  const int P = opts_.ranks();
  const auto resolve = [&](int g, core::Accuracy acc) {
    return resolve_shape_plan(m, n, g, opts_.qr(), *cache_, kind, mp, acc, float_scale);
  };

  // --- Size the group and resolve the plan for the popped job's shape -----
  int g = opts_.group_ranks();
  try {
    if (g > 0) {
      g = std::min(g, P);
    } else {
      g = choose_group_ranks(m, n, static_cast<int>(shape_hint), P, opts_.qr(), *cache_, kind, mp,
                             top->accuracy, float_scale)
              .group_ranks;
    }
    top->plan = resolve(g, top->accuracy);
  } catch (...) {
    // Sizing/tuning failed for this shape (a degenerate fitted profile,
    // say): isolate the failure to this job, keep serving the queue.
    resolve_job(top, std::current_exception());
    return round;
  }

  // --- Fill the idle groups with same-shape riders -------------------------
  // The machine view shrinks as ranks die; the group size clamps to the
  // usable ranks (computed once here and handed to the session) and the
  // round carries one job per group.  Riders pipeline for free whatever
  // their class — preemption granularity stays one round either way.
  JobList riders;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round.ranks = usable_ranks_locked();
    const int alive = std::max(1, static_cast<int>(round.ranks.size()));
    round.group_ranks = std::min(g, alive);
    round.groups = std::max(1, alive / round.group_ranks);
    riders = sched_.pop_same_shape(m, n, static_cast<std::size_t>(round.groups - 1),
                                   Clock::now(), include_delayed);
    for (auto& r : riders) in_flight_.push_back(r);
  }
  round.jobs.push_back(top);
  for (auto& r : riders) {
    if (!validate_job(r)) continue;  // invalid riders resolve here
    // Riders keep their own accuracy contract: one whose contract differs
    // from the popped job's resolves its own plan (cached — same shape and
    // group size, a different accuracy key).  A resolution failure
    // downgrades the rider to the popped job's Householder fields instead
    // of failing it.
    r->plan = top->plan;
    if (r->accuracy != top->accuracy) {
      try {
        r->plan = resolve(g, r->accuracy);
      } catch (...) {
        r->plan.algorithm = PlanAlgorithm::Householder;
        r->plan.use_float = false;
        r->plan.max_condition = 0.0;
      }
    }
    round.jobs.push_back(r);
  }
  if (!account_round(round, mp)) {
    resolve_unfinished(round.jobs, abort_error());
    round.jobs.clear();
  }
  return round;
}

bool BatchSolver::account_round(Round& round, const sim::CostParams& mp) {
  // The admission retry-after hint and the session deadline both lean on
  // the model, through the slowest plan the round runs.
  double predicted_seconds = 0.0;
  for (const auto& job : round.jobs)
    predicted_seconds = std::max(predicted_seconds, job->plan.predicted.time(mp));
  const auto shape = std::make_pair(round.jobs.front()->A.rows(), round.jobs.front()->A.cols());
  bool first_sizing = false;
  double drift_scale = 1.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (aborting_) return false;
    // Remember this round's per-job prediction, and read the observed drift
    // p95 (how much slower than predicted real jobs run, at the tail) so the
    // deadline scales with the model's demonstrated error bars instead of
    // trusting the raw prediction.
    last_predicted_job_seconds_ = predicted_seconds;
    if (m_.drift->count() >= kDriftMinSamples)
      drift_scale = std::max(1.0, m_.drift->quantile(0.95));
    if (std::find(sized_shapes_.begin(), sized_shapes_.end(), shape) == sized_shapes_.end()) {
      sized_shapes_.push_back(shape);
      first_sizing = true;
    }
    // Hit/miss counters are per job on its FIRST dispatch only — a
    // fault-recovery requeue re-enters the round but not the counters.
    std::uint64_t fresh = 0, cq_jobs = 0;
    for (const auto& job : round.jobs) {
      if (!job->dispatched) ++fresh;
      if (job->plan.algorithm == PlanAlgorithm::CholeskyQr2) ++cq_jobs;
    }
    const std::uint64_t miss = first_sizing ? 1 : 0;
    m_.plan_misses->inc(miss);
    m_.plan_hits->inc(fresh >= miss ? fresh - miss : 0);
    m_.sessions->inc();
    m_.attempts->inc(round.jobs.size());
    m_.cholesky_jobs->inc(cq_jobs);
    round.number = m_.sessions->value();
  }
  for (std::size_t j = 0; j < round.jobs.size(); ++j) {
    auto& job = round.jobs[j];
    // Stamped every dispatch (the clamped group or a fresh profile can
    // change the prediction between attempts): what the cost model expects
    // this job to take, the denominator of its drift ratio.
    job->stats.predicted_seconds = job->plan.predicted.time(mp);
    if (!job->dispatched) {
      job->dispatched = true;
      job->dispatched_at = Clock::now();
      job->stats.queue_seconds = seconds_since(job->submitted_at);
      job->stats.plan_cache_hit = !(first_sizing && j == 0);
      if (const auto& tr = opts_.trace()) {
        // Close the job's queued span: submit -> first machine dispatch.
        trace_serving(*tr, kSpan, "queued", static_cast<int>(job->seq), job->seq,
                      obs::trace_seconds(job->submitted_at),
                      obs::trace_seconds(job->dispatched_at));
      }
    }
    ++job->stats.attempts;
    job->stats.recovered = job->stats.attempts > 1;
    job->stats.round = round.number;
  }

  // --- Size the session deadline (fail-slow watchdog) ----------------------
  // What the cost model says this session should take — the slowest plan's
  // per-job seconds times the jobs each group runs in series — scaled by
  // the observed drift p95 (the model's own demonstrated error bars) and
  // the user's factor, floored absolutely: a microsecond-scale prediction
  // must not arm a watchdog that scheduling noise trips.  Wall time on
  // threads leaves headroom for a loaded host; the simulator's virtual
  // clock has no noise to absorb.
  if (opts_.session_timeout_factor() > 0.0) {
    const double floor_seconds = machine_->kind() == backend::Kind::Thread ? 0.2 : 0.05;
    const double jobs_per_group =
        std::ceil(static_cast<double>(round.jobs.size()) / static_cast<double>(round.groups));
    round.deadline_seconds = std::max(floor_seconds, predicted_seconds * jobs_per_group *
                                                         drift_scale * opts_.session_timeout_factor());
  }
  return true;
}

BatchSolver::SessionResult BatchSolver::run_round(const Round& round) {
  // --- Arm the session deadline --------------------------------------------
  // A backend that enforces deadlines itself (the simulator, on its virtual
  // clock) just takes the number; otherwise a watchdog thread fires
  // request_abort() at the wall deadline.  The callback returns whether a
  // live run took the abort: the executor commits to a session slightly
  // before run() begins, and request_abort() while idle is deliberately
  // dropped — so the watchdog retries until the abort lands or disarm().
  bool machine_enforces = false;
  bool watchdog_armed = false;
  if (round.deadline_seconds > 0.0) {
    machine_enforces = machine_->set_session_deadline(round.deadline_seconds);
    if (!machine_enforces) {
      watchdog_.arm(round.deadline_seconds, [this]() { return machine_->request_abort(); });
      watchdog_armed = true;
    }
  }

  // --- Run exactly this round as one machine session -----------------------
  // A machine-level failure (an in-machine throw aborts every rank of the
  // session) is recorded in every job the session did not finish — jobs that
  // completed before the abort keep their solutions — and the machine resets
  // cleanly for the next round (see ThreadMachine), so the queue keeps
  // serving.
  SessionResult result;
  const double session_t0 = opts_.trace() ? obs::trace_now() : 0.0;
  try {
    run_session(round);
  } catch (...) {
    result.error = std::current_exception();
  }
  // Did the deadline fire?  The watchdog knows whether its abort landed
  // (disarm waits out an in-flight callback, so this cannot race the next
  // round); a self-enforcing backend reports it directly.  Classification
  // keys on THIS, never on the exception type — the lowest-ranked rethrow
  // can surface a generic abort error even when the root cause was the
  // deadline.
  if (watchdog_armed) result.timed_out = watchdog_.disarm();
  if (machine_enforces) result.timed_out = machine_->last_run_timed_out();
  if (const auto& tr = opts_.trace()) {
    // The machine-session span on the dispatcher lane: job exec spans and
    // the machine's own per-rank op events nest under it in wall time.
    trace_serving(*tr, kSpan, "session", -1, round.number, session_t0, obs::trace_now(),
                  round.group_ranks, static_cast<double>(round.jobs.size()));
    if (result.timed_out) {
      const double now = obs::trace_now();
      trace_serving(*tr, kInstant, "session_timeout", -1, round.number, now, now);
    }
  }
  result.deaths = machine_->last_run_deaths();
  result.stalls = machine_->last_run_stalls();
  return result;
}

void BatchSolver::apply_outcome(const Round& round, const SessionResult& run,
                                const SessionOutcome& outcome, const JobList& unfinished,
                                std::exception_ptr* session_error_out) {
  std::exception_ptr session_error = run.error;
  if (outcome.synthesize_death) {
    // Ranks died but no survivor tripped over them (they held no job the
    // survivors needed): the unfinished jobs were simply lost with their
    // group — synthesize the death error the survivors never saw.
    session_error = std::make_exception_ptr(fault::RankDeath(
        run.deaths.front(), "qr3d::serve: rank " + std::to_string(run.deaths.front()) +
                                " died; its group's jobs did not finish"));
  }
  // The error a job of this session keeps as its first-failure cause (and
  // resolves with when attempts run out).  On a timeout this is normalized
  // to the typed health::SessionTimeout — the raw session error is whichever
  // rank's exception won the lowest-rank rethrow (often the generic abort),
  // useless to a caller deciding whether to resubmit.
  std::exception_ptr cause_error = session_error;
  if (run.timed_out) {
    const int suspect = run.stalls.empty() ? -1 : run.stalls.front();
    cause_error = std::make_exception_ptr(health::SessionTimeout(
        round.deadline_seconds, suspect,
        "qr3d::serve: session " + std::to_string(round.number) +
            " exceeded its deadline of " + std::to_string(round.deadline_seconds) +
            " s (fail-slow watchdog; see ServeOptions::with_session_timeout_factor)"));
  }

  JobList exhausted, aborted_jobs;
  std::vector<std::uint64_t> requeued;  // sequence numbers, for the trace
  {
    std::lock_guard<std::mutex> lock(mu_);
    m_.serve_seconds->add(machine_->last_wall_seconds());
    for (int r : run.deaths) {
      if (std::find(dead_ranks_.begin(), dead_ranks_.end(), r) == dead_ranks_.end())
        dead_ranks_.push_back(r);
    }
    // Health bookkeeping: a timed-out session quarantines the ranks whose
    // stall implicates them (probation starts, or restarts for a repeat
    // offender); a clean session credits every quarantined rank one step and
    // reinstates those that served their probation.
    if (outcome.health == SessionOutcome::Health::QuarantineStalls) {
      m_.timeouts->inc();
      for (int r : run.stalls) {
        if (rank_health_.quarantine(r)) m_.quarantined->inc();
      }
    } else if (outcome.health == SessionOutcome::Health::CreditClean) {
      m_.reinstated->inc(rank_health_.record_clean_session().size());
    }
    m_.quarantined_now->set(static_cast<double>(rank_health_.quarantined_count()));
    if (outcome.recoverable) {
      for (auto& job : unfinished) {
        if (!job->original_error) job->original_error = cause_error;
        if (aborting_) {
          // abort() has drained the queue already: a requeue landing now
          // would strand the job forever (nothing dispatches after an
          // abort).  Hand it to the abort path instead.
          aborted_jobs.push_back(job);
        } else if (job->stats.attempts >= opts_.max_attempts()) {
          exhausted.push_back(job);  // resolved below, outside the lock
        } else {
          // Requeue on the survivors with the job's original seq, priority
          // and submit time — recovery does not reset its place in line (and
          // aging keeps crediting the full wait).  Atomic with the
          // in_flight_ erase so a flush barrier snapshot never misses the
          // job; bypasses admission (the job was already admitted).  The
          // deterministic backoff delays the next attempt: attempt k waits
          // jittered min(cap, base * 2^(k-1)) seconds keyed on (seed, seq,
          // attempt), so a fixed seed reproduces the schedule exactly.
          const double delay = opts_.retry_backoff().delay(job->stats.attempts, job->seq);
          job->ready_at = delay > 0.0
                              ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(delay))
                              : Clock::time_point{};
          job->stats.retries.push_back(RetryRecord{outcome.cause, delay});
          if (delay > 0.0) m_.backoff_delay->record(delay);
          (outcome.cause == RetryCause::Timeout ? m_.requeues_timeout : m_.requeues_rank_death)
              ->inc();
          in_flight_.erase(std::remove(in_flight_.begin(), in_flight_.end(), job),
                           in_flight_.end());
          sched_.push(job);
          requeued.push_back(job->seq);
        }
      }
    }
  }
  if (const auto& tr = opts_.trace()) {
    // Fault-recovery edges: one cause-tagged instant per job sent back.
    const double now = obs::trace_now();
    const char* name =
        outcome.cause == RetryCause::Timeout ? "requeue (timeout)" : "requeue (rank_death)";
    for (std::uint64_t seq : requeued)
      trace_serving(*tr, kInstant, name, static_cast<int>(seq), seq, now, now);
  }
  resolve_unfinished(aborted_jobs, abort_error());
  if (unfinished.empty()) return;
  if (!outcome.recoverable) {
    // Not recoverable by requeueing (an abort, a numerical failure): store
    // the session error in the handles.
    resolve_unfinished(unfinished, session_error);
    if (session_error_out && !*session_error_out) *session_error_out = session_error;
  } else {
    // Out of attempts: the ORIGINAL cause (fault::RankDeath or
    // health::SessionTimeout — not a wrapper, not the latest one) lands in
    // the handles, and blocking flush() rethrows it.
    for (auto& job : exhausted) resolve_job(job, job->original_error);
    if (!exhausted.empty() && session_error_out && !*session_error_out)
      *session_error_out = exhausted.front()->original_error;
  }
}

void BatchSolver::resolve_unfinished(const JobList& jobs, std::exception_ptr error) {
  for (auto& job : jobs) {
    if (!job->done.load(std::memory_order_acquire)) resolve_job(job, error);
  }
}

void BatchSolver::resolve_stranded(std::exception_ptr error, bool drain_queue) {
  JobList stranded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (drain_queue) stranded = sched_.drain();
    stranded.insert(stranded.end(), in_flight_.begin(), in_flight_.end());
  }
  resolve_unfinished(stranded, error);
}

void BatchSolver::begin_drain_cycle() {
  maybe_reprofile();
  // One drain cycle (idle -> busy transition) counts as one flush, counted
  // before any job of the cycle can resolve so a reader that observed a
  // resolved handle also observes its dispatch.
  std::lock_guard<std::mutex> lock(mu_);
  m_.flushes->inc();
}

void BatchSolver::executor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&]() { return stop_ || !sched_.empty(); });
    if (sched_.empty()) {
      if (stop_) return;
      continue;
    }
    // Backoff gate: when every queued job is still waiting out its retry
    // delay, sleep until the earliest ready_at (or a new submission / stop)
    // instead of busy-popping an all-delayed queue.  The shutdown drain
    // ignores delays — a backing-off job must still resolve before the
    // executor dies.
    if (!stop_ && !sched_.has_ready(Clock::now())) {
      const auto next = sched_.next_ready_at();
      if (next) {
        queue_cv_.wait_until(lock, *next);
        continue;
      }
    }
    const bool include_delayed = stop_;
    lock.unlock();
    begin_drain_cycle();
    // Round at a time until the queue drains: every iteration re-pops, so a
    // high-priority submission landing mid-cycle runs next round — that is
    // the preemption granularity.  Errors are resolved into the affected
    // handles by dispatch_round; the executor has no caller to rethrow to.
    // The catch is defensive: the executor must survive anything, so an
    // unexpected throw resolves the in-flight jobs instead of terminating
    // the process.
    try {
      while (dispatch_round(nullptr, include_delayed)) {
      }
    } catch (...) {
      resolve_stranded(std::current_exception(), /*drain_queue=*/false);
    }
    lock.lock();
  }
}

bool BatchSolver::flush_async(std::optional<Clock::time_point> deadline) {
  // Per-job barrier: snapshot every job submitted before this call that
  // has not resolved yet (still queued, or popped into a round), then wait
  // for exactly those.  A count-based wait ("completed + failed >=
  // submitted-at-entry") is WRONG under priority scheduling: jobs no
  // longer resolve in submission order, so later high-priority completions
  // can satisfy the count while an earlier low-priority job still waits.
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<detail::Job>> pending = sched_.snapshot();
  pending.insert(pending.end(), in_flight_.begin(), in_flight_.end());
  const auto all_done = [&]() {
    for (const auto& job : pending) {
      if (!job->done.load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  if (deadline) return done_cv_.wait_until(lock, *deadline, all_done);
  done_cv_.wait(lock, all_done);
  return true;
}

bool BatchSolver::flush_blocking(std::optional<Clock::time_point> deadline,
                                 bool include_delayed, std::exception_ptr* first_error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sched_.empty()) return true;  // nothing pending: not a dispatch
  }
  begin_drain_cycle();
  // Round at a time until the queue drains, sleeping out retry-backoff
  // delays in between.  The deadline is only checked BETWEEN rounds: an
  // individual session is never cut short by the flush budget (session
  // deadlines do that), so a bounded flush can overrun by one session.
  for (;;) {
    if (deadline && Clock::now() >= *deadline) break;
    if (dispatch_round(first_error, include_delayed)) continue;
    std::optional<Clock::time_point> next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (sched_.empty() || aborting_) break;
      next = sched_.next_ready_at();
    }
    if (!next) break;  // raced with a concurrent drain
    auto wake = *next;
    if (deadline && *deadline < wake) {
      // Sleeping out the backoff would blow the budget: stop at the budget
      // so the caller gets its answer on time.
      wake = *deadline;
    }
    std::this_thread::sleep_until(wake);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return sched_.empty();
}

void BatchSolver::flush() {
  if (opts_.async()) {
    flush_async(std::nullopt);
    return;
  }
  std::exception_ptr first_error;
  flush_blocking(std::nullopt, false, &first_error);
  if (first_error) std::rethrow_exception(first_error);
}

bool BatchSolver::flush_for(double timeout_seconds) {
  QR3D_CHECK(timeout_seconds >= 0.0, "BatchSolver::flush_for: timeout must be >= 0");
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_seconds));
  if (opts_.async()) return flush_async(deadline);
  // Bounded blocking flush: session errors stay in the affected handles
  // (unlike flush(), which rethrows) — the return value is the contract.
  return flush_blocking(deadline, false, nullptr);
}

void BatchSolver::wait_for(const std::shared_ptr<detail::Job>& job) {
  if (opts_.async()) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&]() { return job->done.load(std::memory_order_acquire); });
    return;
  }
  flush();
  QR3D_ASSERT(job->done.load(std::memory_order_acquire),
              "BatchSolver: job still pending after flush");
}

void BatchSolver::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !opts_.async()) return;
    stop_ = true;  // closes submissions; the async executor drains, then exits
  }
  if (opts_.async()) {
    queue_cv_.notify_all();
    std::lock_guard<std::mutex> join_lock(join_mu_);
    if (executor_.joinable()) executor_.join();
    return;
  }
  // Blocking mode: drain the queue inline, ignoring retry-backoff delays
  // (a backing-off job must resolve before the solver dies, not after its
  // jittered wait).  Machine-level session errors are already recorded in
  // the affected handles, and shutdown (called from the destructor) must
  // never throw — if an *unexpected* throw cut the drain short, whatever it
  // stranded is resolved with that error so no handle is left pending.
  try {
    flush_blocking(std::nullopt, true, nullptr);
  } catch (...) {
    resolve_stranded(std::current_exception(), /*drain_queue=*/true);
  }
}

void BatchSolver::abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    aborting_ = true;
    // Interrupt the session in flight, if any (best effort; a backend that
    // cannot abort finishes the session normally and the executor then
    // observes stop_).
    machine_->request_abort();
  }
  queue_cv_.notify_all();
  JobList queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued = sched_.drain();
  }
  resolve_unfinished(queued, abort_error());
  if (opts_.async()) {
    // One request is not enough in async mode: the executor commits to a
    // session (sessions/attempts counters) slightly before the machine run
    // begins, and request_abort() on a machine with no active run is
    // deliberately dropped — a single request landing in that window would
    // leave a stalled session un-aborted and the join below hung forever.
    // Retry until a live run takes the abort or the executor exits on its
    // own; aborting_ keeps new sessions from starting in between.
    for (;;) {
      if (executor_exited_.load(std::memory_order_acquire)) break;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (machine_->request_abort()) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (executor_.joinable()) executor_.join();
}

std::vector<la::Matrix> BatchSolver::solve_all(
    std::vector<std::pair<la::Matrix, la::Matrix>> problems) {
  std::vector<JobHandle> handles;
  handles.reserve(problems.size());
  for (auto& [A, b] : problems) handles.push_back(submit(std::move(A), std::move(b)));
  flush();
  std::vector<la::Matrix> xs;
  xs.reserve(handles.size());
  for (const auto& h : handles) xs.push_back(h.get());  // rethrows job errors
  return xs;
}

BatchSolver::Stats BatchSolver::stats() const {
  // Copied under mu_ — the same lock every mutation holds — so cross-counter
  // invariants (completed + failed <= submitted, recovered <= completed, ...)
  // are never observed torn.  See the Stats doc comment; pinned by the
  // stats-consistency test under TSan.
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.jobs_submitted = m_.submitted->value();
  s.jobs_completed = m_.completed->value();
  s.jobs_failed = m_.failed->value();
  s.jobs_rejected = m_.rejected->value();
  s.deadline_misses = m_.deadline_misses->value();
  s.flushes = m_.flushes->value();
  s.sessions = m_.sessions->value();
  s.reprofiles = m_.reprofiles->value();
  s.plan_cache_hits = m_.plan_hits->value();
  s.plan_cache_misses = m_.plan_misses->value();
  s.plan_cache_evictions = cache_->evictions();
  s.attempts = m_.attempts->value();
  s.recovered = m_.recovered->value();
  s.jobs_choleskyqr2 = m_.cholesky_jobs->value();
  s.cholesky_fallbacks = m_.cholesky_fallbacks->value();
  s.session_timeouts = m_.timeouts->value();
  s.requeues_timeout = m_.requeues_timeout->value();
  s.requeues_rank_death = m_.requeues_rank_death->value();
  s.ranks_quarantined = m_.quarantined->value();
  s.ranks_reinstated = m_.reinstated->value();
  s.quarantined_now = static_cast<std::uint64_t>(m_.quarantined_now->value());
  s.retry_after_seconds = m_.retry_after->value();
  s.serve_seconds = m_.serve_seconds->value();
  s.drift_samples = m_.drift->count();
  s.drift_p50 = m_.drift->quantile(0.5);
  s.drift_p95 = m_.drift->quantile(0.95);
  return s;
}

std::optional<MachineProfile> BatchSolver::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

sim::CostParams BatchSolver::machine_params() const {
  std::lock_guard<std::mutex> lock(mu_);
  return machine_->params();
}

}  // namespace qr3d::serve
