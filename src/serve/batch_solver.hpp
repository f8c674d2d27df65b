// qr3d::serve::BatchSolver — the throughput serving layer.
//
// The facade solves one problem per machine: every Solver::factor spins up
// ranks, (re-)tunes, factors, and tears everything down.  A serving process
// answering a stream of least-squares queries wants the opposite shape:
//
//   serve::BatchSolver srv(serve::ServeOptions{}.with_ranks(4).with_async());
//   auto h1 = srv.submit(A1, b1);           // returns immediately; the
//   auto h2 = srv.submit(A2, b2);           // executor thread runs the jobs
//   h1.wait();                              // JobHandle is a real future
//   la::Matrix x1 = h1.get();               // solution, or rethrows the error
//
// Five optimizations stack:
//   1. persistent machine — the worker threads are spawned once
//      (ThreadMachine parks them between runs) and every dispatch executes
//      a whole pending batch inside machine sessions, so a 64-job batch pays
//      a handful of dispatches, not 64 machine spawns;
//   2. job-group pipelining — the machine's P ranks are split into groups of
//      g ranks and jobs are round-robined across the P/g groups, running
//      concurrently.  A problem too small to profit from P-way parallelism
//      stops paying P-way collective latency, which is where small-problem
//      serving throughput really is;
//   3. adaptive group sizing — g is chosen *per problem shape* from the
//      plan cache's model-predicted costs under the machine's (alpha, beta,
//      gamma): big problems get big groups, small ones pipeline
//      (choose_group_ranks below; with_group_ranks pins g instead);
//   4. plan cache — tuned (delta, epsilon) per (m, n, group size, layout,
//      backend, machine profile) is resolved driver-side through a shared
//      serve::PlanCache, so repeated shapes skip the tuner entirely (hits
//      and misses are exposed and testable);
//   5. measured profile — with_profile() runs serve::profile_machine first
//      and feeds the fitted (alpha, beta, gamma) to machine construction, so
//      the tuner optimizes for the machine it actually runs on instead of a
//      declared profile; with_reprofile_on_drift() repeats the measurement
//      when completed jobs' measured/predicted ratio drifts, so the fit
//      tracks thermal/contention drift.
//
// Asynchrony: by default (blocking mode) nothing executes until flush() —
// submission is cheap, execution is explicit, and every counter is exactly
// reproducible.  with_async() starts an executor thread that owns the
// machine and drains a concurrent queue instead: submit() returns
// immediately, execution overlaps further submission, flush() is a barrier
// ("everything submitted before this call has resolved"), and JobHandle is
// a real future (ready / wait / get).  Clean shutdown is shutdown() or the
// destructor (both drain); abort() fails queued jobs and interrupts the
// in-flight machine session via backend::Machine::request_abort.
//
// Traffic shaping (serve/scheduler.hpp has the policy): jobs carry a
// Priority and an optional deadline (submit with SubmitOptions), the queue
// pop is EDF within priority classes with anti-starvation aging, and the
// queue depth is bounded by with_max_queue_depth — a submission beyond it
// resolves its handle with AdmissionError immediately (fail-fast
// backpressure) instead of growing the queue.  Preemption is at group-
// dispatch granularity: the dispatcher pops ONE job, sizes its group, fills
// the idle groups with queued same-shape jobs, and runs exactly that round
// as a machine session — so a big backlog yields a scheduling decision
// between every round and a newly arrived high-priority job waits at most
// one in-flight slice, never the whole backlog.  Requeued fault-recovery
// jobs keep their original sequence number, priority and submit time, so
// recovery does not reset their place in line.
//
// Accuracy contracts (docs/SERVING.md "Accuracy contracts"): every job
// carries fast | balanced | accurate — SubmitOptions::with_accuracy, or the
// solver-wide QrOptions::with_accuracy default.  Fast and balanced let the
// plan resolution dispatch a job to CholeskyQR2 (core/cholesky_qr2.hpp) —
// condition-guarded, and under fast with a float first pass — whenever the
// cost model predicts it beats the tuned Householder plan at the job's
// shape.  A tripped guard or a non-SPD Gram aborts only that fast path: the
// session retries the job with the Householder fallback plan in place,
// counted in JobStats::cholesky_fallbacks (and Stats::cholesky_fallbacks).
// Accurate never leaves the Householder path.
//
// Failure isolation: jobs are validated driver-side before entering the
// machine; an invalid job's std::invalid_argument is stored in its handle
// (rethrown from get()) and the rest of the batch is unaffected.  A
// machine-level failure aborts only the session it happened in: jobs that
// completed before the abort keep their solutions, unfinished jobs record
// the session error, and the machine stays usable.
//
// Self-healing: when a session loses ranks (fault::RankDeath — see
// backend::Machine::set_fault_plan and docs/SERVING.md), jobs that had
// already resolved keep their solutions and the unfinished ones are requeued
// on the surviving ranks — dead ranks are excluded from every later
// session's groups — up to ServeOptions::with_max_attempts total attempts,
// after which the ORIGINAL session error (fault::RankDeath, not a wrapper)
// is stored in the handles.  JobStats records attempts/recovered per job and
// Stats aggregates them.
//
// Fail-slow tolerance (src/health/ has the machinery): a rank that is slow
// instead of dead used to hold its session — and a blocking-mode solver —
// forever.  with_session_timeout_factor(f) arms a deadline per session:
// the cost model's predicted session makespan (of the slowest plan the
// round runs), scaled by the observed drift p95 (the model's own error
// bars) and by f, floored per backend (0.2 wall seconds on threads, 0.05
// virtual seconds on the simulator).  A backend that enforces deadlines itself
// (the simulator, on its virtual cost clock — bit-reproducible firing) just
// gets the number; otherwise a health::Watchdog thread fires
// request_abort() at the wall-clock deadline, converting fail-slow into
// fail-stop.  The timed-out session's unfinished jobs requeue through the
// self-healing path with deterministic exponential backoff + seeded jitter
// (with_retry_backoff), and the ranks whose injected stall caused the
// timeout are quarantined — excluded from later sessions' groups — until
// two consecutive clean sessions reinstate them (capacity wins: quarantine
// never empties the alive set).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "health/backoff.hpp"
#include "health/rank_health.hpp"
#include "health/watchdog.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/profile.hpp"
#include "serve/scheduler.hpp"

namespace qr3d::serve {

/// Options for a serving instance (validated builder, QrOptions-style).
class ServeOptions {
 public:
  ServeOptions() { qr_.with_tune_for_machine().with_backend(Backend::Thread); }

  /// Rank count of the owned machine.
  ServeOptions& with_ranks(int P);
  /// Execution backend of the owned machine (default: Thread — serving is a
  /// wall-clock workload; Simulated serves as the conformance oracle).
  ServeOptions& with_backend(Backend b) {
    qr_.with_backend(b);
    return *this;
  }
  /// QR options applied to every job.  This REPLACES the whole option set —
  /// including the serving defaults (tuning on, Backend::Thread) and any
  /// earlier with_backend() call — with exactly `q`, so set backend/tuning
  /// on `q` itself, or call with_qr() first and with_backend() after.
  ServeOptions& with_qr(QrOptions q) {
    qr_ = std::move(q);
    return *this;
  }
  /// Profile the machine at construction and tune on the fitted
  /// (alpha, beta, gamma) instead of the declared parameters.
  ServeOptions& with_profile(bool on = true) {
    profile_ = on;
    return *this;
  }
  /// Micro-benchmark sizes for profiling (and drift-triggered re-profiling).
  ServeOptions& with_profile_options(ProfileOptions po) {
    profile_options_ = po;
    return *this;
  }
  /// Declared machine parameters (ignored for tuning when with_profile()).
  ServeOptions& with_params(sim::CostParams p) {
    params_ = std::move(p);
    return *this;
  }
  /// Ranks per job group: each job runs as a collective over this many ranks
  /// and floor(ranks/group_ranks) jobs execute concurrently.  0 (default)
  /// sizes groups adaptively per problem shape from the plan cache's
  /// model-predicted costs (see choose_group_ranks); a nonzero value pins
  /// one size for every job.
  ServeOptions& with_group_ranks(int g);
  /// Run an executor thread that owns the machine and drains submissions as
  /// they arrive: submit() returns immediately, execution overlaps further
  /// submission, and JobHandle behaves as a real future.  Off by default
  /// (execution happens inside flush(), deterministically).
  ServeOptions& with_async(bool on = true) {
    async_ = on;
    return *this;
  }
  /// Drift-triggered re-profiling: re-profile when the median measured/
  /// predicted time ratio of jobs completed since the last profile leaves
  /// [1/factor, factor] (with at least a handful of samples — the fixed
  /// kDriftMinSamples floor on BatchSolver), then re-tune every shape on the
  /// fresh fit.  The machine re-fits when the cost model demonstrably
  /// stopped matching reality, and not before.  Implies with_profile().
  /// Must be > 1; 0 (default) disables.
  ServeOptions& with_reprofile_on_drift(double factor);
  /// Observability: install `sink` (see obs/trace.hpp) on the owned machine
  /// and the serving layer.  The machine emits per-rank comm-op events
  /// (wall clock on Thread, predicted cost-model clock on Simulated) and the
  /// serving layer emits per-job spans (submit -> queued -> exec, requeue
  /// instants, per-round session spans) into the same sink, so one Chrome
  /// trace shows the full path of every job.  Null (default) disables.
  ServeOptions& with_trace(std::shared_ptr<obs::TraceSink> sink) {
    trace_ = std::move(sink);
    return *this;
  }
  /// Maximum machine attempts per job when a session loses ranks
  /// (fault::RankDeath, see set_fault_plan): unfinished jobs of a session in
  /// which ranks died are requeued on the surviving ranks up to this many
  /// total attempts, then resolved with the original session error.  Must be
  /// >= 1; 1 disables the requeue (first fault fails the job).
  ServeOptions& with_max_attempts(int attempts);
  /// Admission cap: a submit() that would push the queue past this depth
  /// resolves its handle with AdmissionError immediately instead of
  /// queueing (fail-fast backpressure).  0 (default) = unbounded.
  /// Fault-recovery requeues bypass the cap — the job was already admitted.
  ServeOptions& with_max_queue_depth(std::size_t depth) {
    max_queue_depth_ = depth;
    return *this;
  }
  /// Anti-starvation aging: a queued job's effective priority class
  /// improves one step per this much waiting, so sustained high-priority
  /// load cannot starve the low classes forever.  Zero disables aging
  /// (strict classes).  Must be >= 0.  Default: 1 second.
  ServeOptions& with_age_promote_after(std::chrono::steady_clock::duration d);
  /// Fail-slow watchdog: arm a deadline on every machine session of
  /// predicted-makespan x observed-drift-p95 x `factor`, floored at 0.2 wall
  /// seconds on the thread backend and 0.05 virtual seconds on the
  /// simulator (a microsecond-scale prediction must not arm a watchdog that
  /// scheduling noise trips).  A session still running at the deadline is
  /// aborted (fail-slow converted to fail-stop), its unfinished jobs requeue
  /// through the self-healing path, and the ranks whose stall caused it sit
  /// out two clean sessions in quarantine.  Must be 0 (default, disabled)
  /// or >= 1 — a factor below 1 would time out sessions the model itself
  /// expects to run longer.
  ServeOptions& with_session_timeout_factor(double factor);
  /// Deterministic retry backoff for requeued jobs: attempt k waits
  /// min(cap, base * 2^(k-1)) seconds, equal-jittered into [raw/2, raw) by
  /// a seeded hash of (seed, job seq, attempt) — reproducible under a fixed
  /// seed, decorrelated across jobs.  base 0 (default) disables backoff
  /// (immediate requeue, the pre-backoff behavior).  base and cap must be
  /// >= 0; cap below base is raised to base.
  ServeOptions& with_retry_backoff(double base_seconds, double cap_seconds,
                                   std::uint64_t seed = health::Backoff::kDefaultSeed);

  /// Rank count of the owned machine.
  int ranks() const { return ranks_; }
  /// QR options applied to every job.
  const QrOptions& qr() const { return qr_; }
  /// Whether the machine is profiled at construction (explicitly requested,
  /// or implied by the drift trigger).
  bool profile() const { return profile_ || reprofile_on_drift_ > 0.0; }
  /// Micro-benchmark sizes used when profiling.
  const ProfileOptions& profile_options() const { return profile_options_; }
  /// Declared machine parameters.
  const sim::CostParams& params() const { return params_; }
  /// Pinned ranks per job group (0 = adaptive).
  int group_ranks() const { return group_ranks_; }
  /// Whether the executor thread drains submissions asynchronously.
  bool async() const { return async_; }
  /// Drift factor that triggers a re-profile (0 = disabled).
  double reprofile_on_drift() const { return reprofile_on_drift_; }
  /// The installed trace sink (null = tracing off).
  const std::shared_ptr<obs::TraceSink>& trace() const { return trace_; }
  /// Maximum machine attempts per job under rank deaths.
  int max_attempts() const { return max_attempts_; }
  /// Admission cap on the queue depth (0 = unbounded).
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  /// Waiting time that improves a queued job's class by one step (0 = off).
  std::chrono::steady_clock::duration age_promote_after() const { return age_promote_after_; }
  /// Session-deadline factor over the drift-scaled prediction (0 = off).
  double session_timeout_factor() const { return session_timeout_factor_; }
  /// Deterministic retry-backoff schedule (base 0 = immediate requeue).
  const health::Backoff& retry_backoff() const { return retry_backoff_; }

 private:
  int ranks_ = 4;
  QrOptions qr_;
  bool profile_ = false;
  ProfileOptions profile_options_;
  sim::CostParams params_;
  int group_ranks_ = 0;
  bool async_ = false;
  double reprofile_on_drift_ = 0.0;
  std::shared_ptr<obs::TraceSink> trace_;
  int max_attempts_ = 3;
  std::size_t max_queue_depth_ = 0;
  std::chrono::steady_clock::duration age_promote_after_ = std::chrono::seconds(1);
  double session_timeout_factor_ = 0.0;
  health::Backoff retry_backoff_;
};

class BatchSolver;

/// Future to a submitted job.  Copyable; all copies observe the same job.
/// ready() is non-blocking; wait() blocks until the job resolves (in
/// blocking mode it drives the owning BatchSolver's flush()); get() waits
/// and returns the replicated n x k solution or rethrows the job's error
/// (std::invalid_argument for jobs rejected at validation, the session's
/// error for jobs lost to a machine-level abort).
///
/// Lifetime: the job record is shared, so a handle on a *resolved* job
/// outlives its BatchSolver safely — and the BatchSolver destructor resolves
/// every job before returning.  Do not block in wait()/get() on one thread
/// while destroying the owning BatchSolver on another.
class JobHandle {
 public:
  JobHandle() = default;

  /// False only for default-constructed handles.
  bool valid() const { return job_ != nullptr; }
  /// Non-blocking: has the job resolved (solution or error)?
  bool ready() const;
  /// Block until the job resolves.  Async mode: sleeps on the owner's
  /// completion signal; blocking mode: drives owner->flush().
  void wait() const;
  /// wait(), then the solution — or rethrow the job's stored error.
  const la::Matrix& get() const;
  /// Valid once ready; throws the job's error if it failed.
  const JobStats& stats() const;

 private:
  friend class BatchSolver;
  JobHandle(BatchSolver* owner, std::shared_ptr<detail::Job> job)
      : owner_(owner), job_(std::move(job)) {}

  BatchSolver* owner_ = nullptr;
  std::shared_ptr<detail::Job> job_;
};

/// Outcome of adaptive group sizing for one problem shape (see
/// choose_group_ranks).
struct GroupChoice {
  int group_ranks = 1;            ///< chosen ranks per job group
  double job_seconds = 0.0;       ///< predicted per-job seconds at that size
  double makespan_seconds = 0.0;  ///< predicted batch makespan at that size
};

/// Candidate group sizes on a P-rank machine: the powers of two below P,
/// plus P itself (ascending).
std::vector<int> group_size_candidates(int P);

/// Resolve the execution plan for an (m, n) problem on a P-rank
/// (sub-)communicator through `cache`: algorithm dispatch plus machine
/// tuning when `qr.tune_for_machine()`, exactly what Solver::factor would
/// do — and the plan's `predicted` costs are always filled (from the tuner,
/// or from the closed-form model at the resolved parameters), so callers
/// can compare shapes and group sizes by predicted time.
///
/// `accuracy` is the job's accuracy/speed contract: under Fast or Balanced
/// the plan dispatches to CholeskyQR2 (PlanAlgorithm::CholeskyQr2, with the
/// matching condition guard, and under Fast a float first pass) whenever the
/// model predicts it beats the Householder plan at this shape — the tuned
/// Householder fields stay filled as the in-session fallback.  Accurate
/// never dispatches CholeskyQR2.  `float_flop_scale` discounts the float
/// first pass of Fast plans (gamma_float / gamma from a measured
/// MachineProfile; 1 = float no faster than double).
Plan resolve_shape_plan(la::index_t m, la::index_t n, int P, const QrOptions& qr,
                        PlanCache& cache, backend::Kind kind, const sim::CostParams& machine,
                        core::Accuracy accuracy = core::Accuracy::Balanced,
                        double float_flop_scale = 1.0);

/// Adaptive group sizing: pick ranks-per-group for `jobs` problems of shape
/// m x n on a P-rank machine, minimizing the model-predicted batch makespan
/// ceil(jobs / (P/g)) * predicted_job_seconds(g) over group_size_candidates.
/// Near-tied makespans (within 1%) prefer the larger group — lower per-job
/// latency at equal throughput.  Pure model arithmetic: candidate plans are
/// resolved through `cache`, so repeated calls for a known shape cost a map
/// lookup.  This is the policy behind ServeOptions auto grouping; it is
/// exposed so tests can pin its decisions and benches can report them.
GroupChoice choose_group_ranks(la::index_t m, la::index_t n, int jobs, int P,
                               const QrOptions& qr, PlanCache& cache, backend::Kind kind,
                               const sim::CostParams& machine,
                               core::Accuracy accuracy = core::Accuracy::Balanced,
                               double float_flop_scale = 1.0);

/// What a finished machine session means for its round (classify_session).
struct SessionOutcome {
  /// Rank-health bookkeeping the session calls for.
  enum class Health {
    None,              ///< no change (a fault or error without a timeout)
    QuarantineStalls,  ///< timed out: quarantine the ranks whose stall fired
    CreditClean,       ///< clean: one probation step for quarantined ranks
  };
  bool recoverable = false;  ///< unfinished jobs requeue instead of failing
  RetryCause cause = RetryCause::RankDeath;  ///< a timeout wins over a death
  /// Ranks died but no survivor saw it: the caller makes the RankDeath.
  bool synthesize_death = false;
  Health health = Health::None;
};

/// The dispatcher's recovery decision for one session, from plain facts:
/// did it throw (a fault::RankDeath?), did ranks die, did the deadline
/// fire, is any job of the round unfinished.  Rank deaths and timeouts are
/// recoverable by requeueing; anything else is final.  Pure: no lock,
/// machine or job is touched.
SessionOutcome classify_session(bool threw, bool threw_rank_death, bool any_deaths,
                                bool timed_out, bool any_unfinished);

/// The serving object.  submit() is safe to call from any number of driver
/// threads in both modes.  In blocking mode the execution entry points
/// (flush / solve_all / handle waits) are single-driver: one serving loop
/// per instance.  In async mode the executor thread is the only machine
/// driver, and every public method is safe to call concurrently.
class BatchSolver {
 public:
  explicit BatchSolver(ServeOptions opts = {});
  /// Clean shutdown: drains every submitted job (see shutdown()), so no
  /// handle is left pending.  Destroying with jobs in flight is safe.
  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// Enqueue min_x ||A x - b|| (A: m x n replicated driver-side, b: m x k).
  /// Blocking mode: nothing executes until flush() / get() / solve_all().
  /// Async mode: the executor picks the job up immediately.  Throws
  /// std::invalid_argument after shutdown()/abort().
  JobHandle submit(la::Matrix A, la::Matrix b);

  /// submit() with traffic-shaping directives: a priority class and an
  /// optional relative deadline (EDF within the class).  When the queue is
  /// at the admission cap (with_max_queue_depth) the returned handle is
  /// already resolved with AdmissionError — submit() itself never throws
  /// for admission, so a rejected job cannot hang a caller.
  JobHandle submit(la::Matrix A, la::Matrix b, const SubmitOptions& sopts);

  /// Barrier: every job submitted before this call has resolved when it
  /// returns.  Blocking mode executes the pending batch inline and rethrows
  /// a machine-level session error (after recording it in the affected
  /// handles); async mode only waits — errors stay in the handles, where
  /// per-job failure isolation puts them.
  void flush();

  /// Bounded-wait flush: like flush(), but gives up after `timeout_seconds`
  /// and returns whether the barrier completed (every job submitted before
  /// the call resolved).  False means jobs are still pending — queued,
  /// backing off, or held by a stalled session (arm
  /// with_session_timeout_factor to convert the latter into a retry).
  /// Async mode: a timed wait on the completion signal.  Blocking mode:
  /// dispatches rounds until the queue drains or the budget runs out
  /// between rounds — an individual machine session is never cut short by
  /// the flush budget (session deadlines do that), so the wait can overrun
  /// by up to one session.  Unlike flush(), never rethrows a session error
  /// (it stays in the affected handles).
  bool flush_for(double timeout_seconds);

  /// Bulk API: submit all problems, flush, return the solutions in order.
  /// Throws the first failed job's error (after all jobs ran).
  std::vector<la::Matrix> solve_all(std::vector<std::pair<la::Matrix, la::Matrix>> problems);

  /// Clean shutdown: drain every pending job, then stop the executor.
  /// Idempotent; called by the destructor.  After shutdown, submit()
  /// throws.  Blocking mode: equivalent to flush() + closing submissions.
  void shutdown();

  /// Abort: fail every queued-but-unstarted job with a shutdown error,
  /// interrupt the in-flight machine session (backend::Machine::
  /// request_abort — best effort; jobs that already completed keep their
  /// solutions), and stop the executor.  Every handle resolves: unfinished
  /// futures observe the abort as their error.  Idempotent with shutdown().
  void abort();

  /// Aggregate serving statistics.  stats() returns one mutex-held copy of
  /// registry-backed counters that are themselves only bumped under the same
  /// mutex, so the snapshot is consistent across fields — invariants like
  /// jobs_completed + jobs_failed <= jobs_submitted hold in every snapshot,
  /// never torn mid-update (pinned under TSan by test_obs.cpp).
  struct Stats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;  ///< solved successfully
    std::uint64_t jobs_failed = 0;     ///< rejected, errored, or aborted
    std::uint64_t jobs_rejected = 0;   ///< failed fast at admission (counted in jobs_failed)
    std::uint64_t deadline_misses = 0;  ///< jobs resolved after their deadline
    std::uint64_t flushes = 0;         ///< drain cycles (queue found non-empty, drained by rounds)
    std::uint64_t sessions = 0;        ///< machine sessions (one per dispatched round)
    std::uint64_t reprofiles = 0;      ///< drift-triggered re-profiles performed
    std::uint64_t plan_cache_hits = 0;    ///< jobs whose shape was already sized+tuned
    std::uint64_t plan_cache_misses = 0;  ///< jobs that triggered sizing+tuning
    std::uint64_t attempts = 0;   ///< job machine attempts (>= jobs entering sessions)
    std::uint64_t recovered = 0;  ///< jobs solved after a fault/timeout requeue
    /// Accuracy-contract dispatch (docs/SERVING.md "Accuracy contracts"):
    /// job dispatches whose plan attempted the CholeskyQR2 fast path, and how
    /// many of those abandoned it in-session (condition guard or non-SPD
    /// Gram) and fell back to the Householder plan.  Per-job detail is in
    /// JobStats::accuracy / JobStats::cholesky_fallbacks.
    std::uint64_t jobs_choleskyqr2 = 0;
    std::uint64_t cholesky_fallbacks = 0;
    std::uint64_t plan_cache_evictions = 0;  ///< LRU evictions in the owned PlanCache
    /// Fail-slow tolerance (all zero unless with_session_timeout_factor).
    std::uint64_t session_timeouts = 0;   ///< sessions ended by the watchdog deadline
    std::uint64_t requeues_timeout = 0;   ///< job requeues caused by a session timeout
    std::uint64_t requeues_rank_death = 0;  ///< job requeues caused by rank deaths
    std::uint64_t ranks_quarantined = 0;  ///< quarantine entries (cumulative)
    std::uint64_t ranks_reinstated = 0;   ///< quarantined ranks reinstated after probation
    std::uint64_t quarantined_now = 0;    ///< ranks currently quarantined
    /// Admission retry hint of the most recent rejection: queue depth at the
    /// cap times the predicted per-job execution seconds of the last
    /// dispatched round (0 until a rejection with a known prediction).  The
    /// same number lands in the rejected handle's AdmissionError.
    double retry_after_seconds = 0.0;
    double serve_seconds = 0.0;  ///< total machine-session time
    /// Cost-model drift: measured wall seconds / model-predicted seconds per
    /// completed job, aggregated in a log-scale histogram since
    /// construction.  A p50 near 1 means the fitted (alpha, beta, gamma)
    /// still describe the machine; sustained p50 far from 1 is the signal
    /// with_reprofile_on_drift acts on.
    std::uint64_t drift_samples = 0;  ///< completed jobs with a drift measurement
    double drift_p50 = 0.0;           ///< median wall/predicted ratio
    double drift_p95 = 0.0;           ///< tail wall/predicted ratio
    double problems_per_second() const {
      return serve_seconds > 0.0 ? static_cast<double>(jobs_completed) / serve_seconds : 0.0;
    }
  };
  Stats stats() const;

  /// The most recent measured profile (empty unless
  /// with_profile()/with_reprofile_on_drift()).  A value copy: re-profiling
  /// replaces the stored profile concurrently, so no reference into it can
  /// be handed out safely.
  std::optional<MachineProfile> profile() const;
  /// Parameters the owned machine (and therefore the tuner) runs under —
  /// the fitted profile when profiling, the declared one otherwise.
  sim::CostParams machine_params() const;
  /// The owned machine.  Driver-side use only while no jobs are in flight
  /// (the async executor owns it between submit and resolution).
  backend::Machine& machine() { return *machine_; }
  const std::shared_ptr<PlanCache>& plan_cache() const { return cache_; }
  const ServeOptions& options() const { return opts_; }
  /// The registry backing Stats: the same counters plus latency/queue/exec
  /// and drift histograms under "serve.*" names, snapshot-able wholesale
  /// (obs::Registry::snapshot) for export.
  const obs::Registry& metrics() const { return registry_; }

 private:
  /// Driver-side shape/option validation; returns false (with the error
  /// resolved into the job) when the job must not enter the machine.
  bool validate_job(const std::shared_ptr<detail::Job>& job);
  /// Mark a job resolved (error == nullptr: success fields already written),
  /// stamp latency (split into queue/exec), bump completion counters, wake
  /// waiters.  Called from the driver, the executor, or a machine group-root
  /// rank.
  void resolve_job(const std::shared_ptr<detail::Job>& job, std::exception_ptr error);
  using JobList = std::vector<std::shared_ptr<detail::Job>>;
  /// One scheduling round as plan_round built it.
  struct Round {
    JobList jobs;                   ///< empty: resolved while planning
    std::vector<int> ranks;         ///< usable ranks the session groups
    int group_ranks = 1;            ///< ranks per group, clamped to `ranks`
    int groups = 1;                 ///< groups the session runs concurrently
    std::uint64_t number = 0;       ///< 1-based round (the sessions count)
    double deadline_seconds = 0.0;  ///< session deadline (0 = none armed)
  };
  /// What the machine reported for one session (run_round's result).
  struct SessionResult {
    std::exception_ptr error;  ///< the session's rethrown exception, if any
    bool timed_out = false;    ///< the session deadline fired
    std::vector<int> deaths;   ///< ranks that died during the session
    std::vector<int> stalls;   ///< ranks whose injected stall fired
  };
  /// Dispatch one scheduling round — plan_round, run_round,
  /// classify_session, apply_outcome — as one machine session (the
  /// preemption slice).  Returns false when no job was ready (empty queue,
  /// or everything backing off unless `include_delayed`) or the solver is
  /// aborting.  A machine-level session error is recorded in the affected
  /// handles and, when `session_error` is non-null and empty, stored there
  /// too (blocking flush() rethrows it).
  bool dispatch_round(std::exception_ptr* session_error, bool include_delayed = false);
  /// Pop the top job and the same-shape riders that fill the idle groups,
  /// validate them, size the group and resolve each job's plan, then
  /// account_round.  nullopt when nothing was popped; no jobs when every
  /// popped job already resolved (invalid, unplannable, or aborted).
  std::optional<Round> plan_round(bool include_delayed);
  /// Counters, retry-after hint, dispatch stamps and session deadline;
  /// false (nothing counted) when the solver is aborting.
  bool account_round(Round& round, const sim::CostParams& mp);
  /// Arm the round's deadline, run its session, disarm, trace the session.
  SessionResult run_round(const Round& round);
  /// Act on a classified session: dead ranks, rank health, requeue with
  /// backoff, exhausted jobs, the abort hand-off, and resolution.
  void apply_outcome(const Round& round, const SessionResult& run, const SessionOutcome& outcome,
                     const JobList& unfinished, std::exception_ptr* session_error);
  /// One machine session: the round's jobs round-robined over groups of
  /// round.group_ranks drawn from round.ranks, the machine's *usable* ranks
  /// — dead ranks idle out permanently, quarantined ranks until reinstated
  /// — so a shrunken machine keeps serving.
  void run_session(const Round& round);
  /// Ranks a session may group (mu_ held): survivors minus quarantined —
  /// unless that would be empty, in which case capacity wins and the
  /// quarantine is ignored for this session.
  std::vector<int> usable_ranks_locked() const;
  /// Blocking-mode flush engine: dispatch rounds (sleeping out backoff
  /// delays) until the queue drains, `deadline` passes between rounds, or a
  /// non-recoverable session error occurs.  Returns whether the queue
  /// drained.  The first session error lands in *first_error when non-null.
  bool flush_blocking(std::optional<std::chrono::steady_clock::time_point> deadline,
                      bool include_delayed, std::exception_ptr* first_error);
  /// Async-mode flush barrier: wait (bounded when `deadline`) until every
  /// job pending at entry resolved; returns whether that happened.
  bool flush_async(std::optional<std::chrono::steady_clock::time_point> deadline);
  /// Start a drain cycle (blocking flush or executor wake-up): re-profile if
  /// drift calls for it, then count the cycle.
  void begin_drain_cycle();
  /// Drift-triggered re-profiling (called at the start of a drain cycle).
  void maybe_reprofile();
  /// Resolve every not-yet-done job in `jobs` with `error`.
  void resolve_unfinished(const JobList& jobs, std::exception_ptr error);
  /// Resolve what an unexpected throw out of a drain stranded: the
  /// in-flight jobs, plus every queued one when `drain_queue`.
  void resolve_stranded(std::exception_ptr error, bool drain_queue);
  /// Executor thread body (async mode).
  void executor_loop();
  void wait_for(const std::shared_ptr<detail::Job>& job);
  friend class JobHandle;

  ServeOptions opts_;
  std::unique_ptr<backend::Machine> machine_;
  std::shared_ptr<PlanCache> cache_;
  std::optional<MachineProfile> profile_;
  Solver solver_;

  /// mu_ guards: sched_, in_flight_, next_seq_, the serving metrics,
  /// sized_shapes_, stop_/aborting_, and swaps of machine_/profile_ during
  /// re-profiling.  Never held across a machine session.
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< executor wakes on submissions/stop
  std::condition_variable done_cv_;   ///< flush()/wait() completion signal
  /// The ready queue (traffic shaping policy lives in serve/scheduler.hpp).
  Scheduler sched_;
  /// Jobs of the round currently inside the machine: flush()'s barrier
  /// snapshot is sched_.snapshot() + in_flight_ (a popped-but-unresolved job
  /// is in neither the queue nor done).
  JobList in_flight_;
  std::uint64_t next_seq_ = 0;  ///< submission sequence (FIFO tiebreak)
  /// Shapes already sized+planned under the current profile: membership
  /// drives the per-job hit/miss counters, and re-profiling clears it so
  /// every shape re-tunes against the fresh fit.
  std::vector<std::pair<la::index_t, la::index_t>> sized_shapes_;
  bool stop_ = false;
  bool aborting_ = false;
  /// Ranks that died in an earlier session (fault::RankDeath self-healing):
  /// excluded from every subsequent session's groups.  Ascending, guarded by
  /// mu_; never cleared for the solver's lifetime.
  std::vector<int> dead_ranks_;
  /// Fail-slow machinery (src/health/; the retry backoff lives in opts_).
  /// rank_health_ is guarded by mu_ (externally synchronized, like sched_);
  /// watchdog_ is used only by the dispatching thread.
  health::RankHealth rank_health_;
  health::Watchdog watchdog_;
  /// Model-predicted per-job seconds of the slowest plan in the most recent
  /// dispatched round (guarded by mu_): the basis of the admission
  /// retry-after hint.
  double last_predicted_job_seconds_ = 0.0;
  /// Registry backing every serving metric (the old ad-hoc Stats fields
  /// migrated here).  Individual updates are relaxed atomics, but every bump
  /// happens under mu_ and stats() copies under mu_, so cross-counter
  /// invariants are never observed torn.
  obs::Registry registry_;
  /// Handles into registry_, each resolved once at construction (interning
  /// takes the registry mutex; these pointers make the hot path lock-free).
  struct Metrics {
    obs::Registry& r;
    obs::Counter* submitted = &r.counter("serve.jobs_submitted");
    obs::Counter* completed = &r.counter("serve.jobs_completed");
    obs::Counter* failed = &r.counter("serve.jobs_failed");
    obs::Counter* rejected = &r.counter("serve.jobs_rejected");
    obs::Counter* deadline_misses = &r.counter("serve.deadline_misses");
    obs::Counter* flushes = &r.counter("serve.flushes");
    obs::Counter* sessions = &r.counter("serve.sessions");
    obs::Counter* reprofiles = &r.counter("serve.reprofiles");
    obs::Counter* plan_hits = &r.counter("serve.plan_cache_hits");
    obs::Counter* plan_misses = &r.counter("serve.plan_cache_misses");
    obs::Counter* attempts = &r.counter("serve.attempts");
    obs::Counter* recovered = &r.counter("serve.recovered");
    obs::Counter* cholesky_jobs = &r.counter("serve.jobs_choleskyqr2");
    obs::Counter* cholesky_fallbacks = &r.counter("serve.cholesky_fallbacks");
    obs::Counter* timeouts = &r.counter("health.session_timeouts");
    obs::Counter* requeues_timeout = &r.counter("health.requeues_timeout");
    obs::Counter* requeues_rank_death = &r.counter("health.requeues_rank_death");
    obs::Counter* quarantined = &r.counter("health.ranks_quarantined");
    obs::Counter* reinstated = &r.counter("health.ranks_reinstated");
    obs::Gauge* quarantined_now = &r.gauge("health.quarantined_now");
    obs::Gauge* retry_after = &r.gauge("serve.retry_after_seconds");
    obs::Histogram* backoff_delay = &r.histogram("health.backoff_seconds");
    obs::Gauge* serve_seconds = &r.gauge("serve.serve_seconds");
    obs::Histogram* latency = &r.histogram("serve.latency_seconds");
    obs::Histogram* queue_wait = &r.histogram("serve.queue_seconds");
    obs::Histogram* exec = &r.histogram("serve.exec_seconds");
    obs::Histogram* drift = &r.histogram("serve.drift_ratio");
    obs::Histogram* drift_since_profile = &r.histogram("serve.drift_ratio_since_profile");
  };
  Metrics m_{registry_};
  /// Serializes executor_.join() across concurrent shutdown()/abort()/
  /// destructor calls (never held together with mu_; the executor never
  /// takes it).
  std::mutex join_mu_;
  /// Set when executor_loop() returns: abort()'s request_abort retry loop
  /// needs a lock-free "nothing left to interrupt" exit condition.
  std::atomic<bool> executor_exited_{false};
  std::thread executor_;
};

}  // namespace qr3d::serve
