// bench_suite — the repository benchmark: four named workloads over the
// serving layer and the paper's factorization, end-to-end metrics from
// untraced runs, and per-layer attribution from a traced run.
//
//   bench_suite --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//               [--trace-dir <dir>] [--json <file>] [--corrupt-reference]
//
// Workloads (README.md beside this file gives the reason for each):
//   ls_small       closed loop, 8 outstanding small least-squares jobs
//   ls_tall        closed loop, 2 outstanding tall-skinny jobs, mixed contracts
//   ls_mixed_open  open loop: Poisson small High jobs + big Low jobs
//   factor_square  one 1024x512 problem at a time through Solver on P ranks
//
// Every input matrix is generated from --seed before timing starts, and the
// program under test receives only those inputs.  A run is a 2 s untimed
// warm-up followed by a --seconds timed window on P = min(4, CPUs) thread
// ranks driven by one generator thread.  Every solution is checked when the
// generator collects it, after its latency is stamped.  The last stdout line
// is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  The exit code is nonzero when any check failed.
//
// --trace 1 runs the workload untraced and then with an obs::TraceBuffer
// installed (half the window each), and probes every layer from outside at
// the workload's shapes: it times calls into each layer's public functions
// and reads the counters the library exposes.  With --trace-dir it writes
// <dir>/<workload>.layers.json and <dir>/<workload>.trace.json (Chrome
// trace).  --json writes the result object with host facts to a file.
// --corrupt-reference perturbs one reference solution, so the run must fail.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la/flops.hpp"
#include "qr3d.hpp"

namespace backend = qr3d::backend;
namespace core = qr3d::core;
namespace cost = qr3d::cost;
namespace la = qr3d::la;
namespace mm = qr3d::mm;
namespace obs = qr3d::obs;
namespace serve = qr3d::serve;
namespace sim = qr3d::sim;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kWarmupSeconds = 2.0;
constexpr int kSetupConstructions = 15;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double pct(std::vector<double> xs, double q) { return obs::percentile(std::move(xs), q); }

double median(std::vector<double> xs) { return pct(std::move(xs), 0.5); }

/// Fastest of `reps` calls of `prepare(); f()`, timing only f.
template <class Prep, class F>
double best_seconds(int reps, Prep&& prepare, F&& f) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    prepare();
    const auto t0 = Clock::now();
    f();
    const double t = seconds_since(t0);
    if (r == 0 || t < best) best = t;
  }
  return best;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CPUs this process may run on (what `nproc` prints).
int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- Command line -------------------------------------------------------------

const std::vector<std::string> kWorkloads = {"ls_small", "ls_tall", "ls_mixed_open",
                                             "factor_square"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
  std::string json;
  bool corrupt_reference = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite --workload <ls_small|ls_tall|ls_mixed_open|factor_square>\n"
               "                   --seed <n> [--seconds <s>] [--trace 0|1] [--trace-dir <dir>]\n"
               "                   [--json <file>] [--corrupt-reference]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  if (v.empty() || v[0] == '-' || v[0] == '+') usage_error(flag + " expects a whole number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno == ERANGE || end == v.c_str() || *end != '\0')
    usage_error(flag + " expects a whole number, got '" + v + "'");
  return x;
}

double parse_seconds(const std::string& flag, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (errno == ERANGE || end == v.c_str() || *end != '\0' || !std::isfinite(x) || x < 1.0 ||
      x > 600.0)
    usage_error(flag + " expects seconds in [1, 600], got '" + v + "'");
  return x;
}

/// Flags take `--flag value` or `--flag=value`; anything unknown or
/// malformed exits with code 2.
Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    if (const auto eq = flag.find('='); flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    if (flag == "--corrupt-reference") {
      if (has_value) usage_error("--corrupt-reference takes no value");
      a.corrupt_reference = true;
      continue;
    }
    const bool known = flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
                       flag == "--trace" || flag == "--trace-dir" || flag == "--json";
    if (!known) usage_error("unknown argument '" + flag + "'");
    if (!has_value) {
      if (i + 1 >= argc) usage_error(flag + " expects a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      if (std::find(kWorkloads.begin(), kWorkloads.end(), value) == kWorkloads.end())
        usage_error("unknown workload '" + value + "'");
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_seconds(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      a.json = value;
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  return a;
}

// --- Inputs -------------------------------------------------------------------

struct Shape {
  la::index_t m, n;
  bool operator==(const Shape&) const = default;
};

const std::vector<Shape> kSmallShapes = {{64, 8},   {96, 24},  {128, 16},
                                         {200, 32}, {256, 24}, {512, 32}};
const std::vector<Shape> kTallShapes = {{8192, 64}, {16384, 32}, {4096, 128}};
constexpr Shape kBigShape{8192, 64};      // ls_mixed_open's Low class
constexpr Shape kSquareShape{1024, 512};  // factor_square (m/n < P: the 3D path)
constexpr int kSmallPerShape = 16;
constexpr int kTallWellPerShape = 3;
constexpr int kTallGradedPerShape = 2;
constexpr int kBigPerShape = 4;
/// ls_mixed_open's arrival rates.  250/s keeps the High class at about a
/// third of the machine: rounds rarely find same-shape riders, so at 500/s
/// the class ran near saturation and its queueing amplified every swing of
/// the shared host's speed.
constexpr double kHighRate = 250.0;
constexpr double kLowRate = 2.0;
constexpr double kGradedCondition = 1e8;
constexpr double kWellTolerance = 1e-8;
/// Forward-error envelope for the kappa = 1e8 graded problems: their
/// right-hand sides are consistent (b = A x), so both the served and the
/// serial reference solution sit within O(kappa * eps) of x.
constexpr double kGradedTolerance = 1e-5;
/// Normal-equations residual bound for factor_square.
constexpr double kResidualTolerance = 1e-10;

struct Problem {
  la::Matrix A, b;
  la::Matrix x_ref;       ///< serial reference solution
  double tol = kWellTolerance;
  bool big = false;       ///< the workload's largest job (serve.big_latency_p50_ms)
  bool residual = false;  ///< also check the normal-equations residual
};

/// min ||A x - b|| by the serial la QR: the reference every served solution
/// is compared against, and core.serial_ms's baseline.
la::Matrix serial_least_squares(const la::Matrix& A, const la::Matrix& b) {
  const la::index_t n = A.cols();
  la::QrFactors f = la::qr_factor<double>(A.view());
  la::Matrix c = la::copy<double>(b.view());
  la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::ConjTrans, c.view());
  la::Matrix x = la::copy<double>(c.view().top_rows(n));
  la::trsm<double>(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
                   f.R.view(), x.view());
  return x;
}

Problem make_problem(Shape s, std::uint64_t seed, bool graded, bool big) {
  Problem p;
  p.big = big;
  if (graded) {
    // Consistent right-hand side: the kappa^2 term of least-squares
    // sensitivity vanishes, so a forward-error check stays meaningful.
    p.A = la::graded_matrix(s.m, s.n, kGradedCondition, seed);
    const la::Matrix x = la::random_matrix(s.n, 1, splitmix64(seed + 1));
    p.b = la::multiply<double>(la::Op::NoTrans, p.A.view(), la::Op::NoTrans, x.view());
    p.tol = kGradedTolerance;
  } else {
    p.A = la::random_matrix(s.m, s.n, seed);
    p.b = la::random_matrix(s.m, 1, splitmix64(seed + 1));
  }
  p.x_ref = serial_least_squares(p.A, p.b);
  return p;
}

/// The problems jobs draw from: index lists per shape, graded ones apart.
struct Pool {
  std::vector<Problem> problems;
  std::vector<std::vector<std::uint32_t>> well, graded;  ///< by shape
  std::vector<std::uint32_t> big;                        ///< ls_mixed_open's Low pool

  std::uint32_t add(Problem p) {
    problems.push_back(std::move(p));
    return static_cast<std::uint32_t>(problems.size() - 1);
  }
};

void add_shape(Pool& pool, Shape s, int well, int graded, bool big, std::mt19937_64& rng) {
  pool.well.emplace_back();
  pool.graded.emplace_back();
  for (int i = 0; i < well; ++i)
    pool.well.back().push_back(pool.add(make_problem(s, rng(), false, big)));
  for (int i = 0; i < graded; ++i)
    pool.graded.back().push_back(pool.add(make_problem(s, rng(), true, big)));
}

Pool make_pool(const std::string& workload, std::uint64_t seed) {
  std::mt19937_64 rng(splitmix64(seed));
  Pool pool;
  if (workload == "ls_small" || workload == "ls_mixed_open") {
    const bool mixed = workload == "ls_mixed_open";
    for (const Shape& s : kSmallShapes)
      add_shape(pool, s, kSmallPerShape, 0, !mixed && s == kSmallShapes.back(), rng);
    if (mixed) {
      for (int i = 0; i < kBigPerShape; ++i)
        pool.big.push_back(pool.add(make_problem(kBigShape, rng(), false, true)));
    }
  } else if (workload == "ls_tall") {
    for (const Shape& s : kTallShapes)
      add_shape(pool, s, kTallWellPerShape, kTallGradedPerShape, s.n == 128, rng);
  } else {
    add_shape(pool, kSquareShape, kBigPerShape, 0, true, rng);
    for (auto& p : pool.problems) p.residual = true;
  }
  return pool;
}

// --- Runs ---------------------------------------------------------------------

/// A solution's check result as a share of its tolerance (<= 1 passes): the
/// relative error against the problem's serial reference and, for
/// factor_square, the normal-equations residual
/// ||A^T (A x - b)|| / (||A||^2 ||x||) as well.
double solution_error(const Problem& p, const la::Matrix& x) {
  if (x.rows() != p.A.cols() || x.cols() != 1) return INFINITY;
  const double err = la::diff_norm(x.view(), p.x_ref.view()) /
                     std::max(la::frobenius_norm(p.x_ref.view()), 1e-300) / p.tol;
  if (!p.residual) return err;
  la::Matrix r = la::copy<double>(p.b.view());
  la::gemm(1.0, la::Op::NoTrans, p.A.view(), la::Op::NoTrans, x.view(), -1.0, r.view());
  la::Matrix g(p.A.cols(), 1);
  la::gemm(1.0, la::Op::ConjTrans, p.A.view(), la::Op::NoTrans, r.view(), 0.0, g.view());
  const double na = la::frobenius_norm(p.A.view());
  const double res = la::frobenius_norm(g.view()) /
                     std::max(na * na * la::frobenius_norm(x.view()), 1e-300);
  return std::max(err, res / kResidualTolerance);
}

/// One job as the generator saw it.  Times are seconds since the run start.
/// The solution itself is checked on collection and not kept, so memory
/// does not grow with the number of jobs a run completes.
struct Sample {
  std::uint32_t problem = 0;
  bool low = false;          ///< ls_mixed_open's Low class
  bool big = false;          ///< the problem is the workload's largest job
  bool timed = false;        ///< submitted inside the timed window
  bool ok = false;           ///< resolved with a solution
  int group_ranks = 0;       ///< ranks the job ran on
  double due = 0.0;          ///< latency origin: scheduled send (open) or submit (closed)
  double lateness = 0.0;     ///< how late submit() started after the job was due
  double submit_at = 0.0;    ///< submit() call start
  double submit_s = 0.0;     ///< submit() duration
  double resolved_at = 0.0;  ///< submit_at + the job's own submit-to-resolution latency
  double queue_s = 0.0, exec_s = 0.0, wall_s = 0.0, predicted_s = 0.0;  ///< serve::JobStats
  double error = INFINITY;   ///< solution_error of the result

  double latency_s() const { return resolved_at - due; }
  bool correct() const { return ok && error <= 1.0; }
};

struct JobSpec {
  std::uint32_t problem = 0;
  bool low = false;
  serve::SubmitOptions opts;
};

struct Run {
  std::vector<Sample> samples;
  Clock::time_point t0;
  double window_start = kWarmupSeconds;
  double window_end = kWarmupSeconds;
  serve::BatchSolver::Stats stats;  ///< serving counters after the run
  sim::CostParams params;           ///< the machine's (fitted) parameters
};

void collect(const serve::JobHandle& h, const Pool& pool, Sample& s) {
  try {
    const serve::JobStats& st = h.stats();  // throws the job's error if it failed
    s.error = solution_error(pool.problems[s.problem], h.get());
    s.ok = true;
    s.resolved_at = s.submit_at + st.latency_seconds;
    s.queue_s = st.queue_seconds;
    s.exec_s = st.exec_seconds;
    s.wall_s = st.wall_seconds;
    s.predicted_s = st.predicted_seconds;
    s.group_ranks = st.group_ranks;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "job on problem %u failed: %s\n", s.problem, e.what());
  }
}

struct Pending {
  serve::JobHandle h;
  Sample s;
};

Pending submit(serve::BatchSolver& srv, const Pool& pool, const JobSpec& spec, const Run& run) {
  Pending pd;
  pd.s.problem = spec.problem;
  pd.s.low = spec.low;
  const Problem& p = pool.problems[spec.problem];
  pd.s.big = p.big;
  const auto c0 = Clock::now();
  pd.s.submit_at = std::chrono::duration<double>(c0 - run.t0).count();
  pd.h = srv.submit(p.A, p.b, spec.opts);
  pd.s.submit_s = seconds_since(c0);
  return pd;
}

/// Closed loop: keep `depth` jobs outstanding, refilling as the oldest
/// resolves.  Latency runs from the submit call; lateness is how long after
/// the slot freed the refill was submitted.
Run run_closed(serve::BatchSolver& srv, const Pool& pool, int depth, double window,
               const std::function<JobSpec()>& draw) {
  Run run;
  run.window_end = kWarmupSeconds + window;
  std::deque<Pending> pend;
  double freed_at = -1.0;
  run.t0 = Clock::now();
  for (;;) {
    while (static_cast<int>(pend.size()) < depth) {
      const double t = seconds_since(run.t0);
      if (t >= run.window_end) break;
      Pending pd = submit(srv, pool, draw(), run);
      pd.s.timed = t >= run.window_start;
      pd.s.due = pd.s.submit_at;
      pd.s.lateness = freed_at >= 0.0 ? std::max(0.0, pd.s.submit_at - freed_at) : 0.0;
      freed_at = -1.0;
      pend.push_back(std::move(pd));
    }
    if (pend.empty()) break;
    Pending& f = pend.front();
    f.h.wait();
    collect(f.h, pool, f.s);
    if (f.s.ok) freed_at = f.s.resolved_at;
    run.samples.push_back(std::move(f.s));
    pend.pop_front();
  }
  run.stats = srv.stats();
  run.params = srv.machine_params();
  return run;
}

struct Arrival {
  double t;  ///< scheduled send, seconds since the run start
  JobSpec spec;
};

/// Open loop: submit on the seeded schedule whatever the backlog.  Latency
/// runs from the scheduled send time, so generator lag counts against it.
Run run_open(serve::BatchSolver& srv, const Pool& pool, const std::vector<Arrival>& schedule,
             double window) {
  Run run;
  run.window_end = kWarmupSeconds + window;
  std::vector<Pending> pend;
  const auto reap = [&](bool block) {
    for (std::size_t i = 0; i < pend.size();) {
      if (!block && !pend[i].h.ready()) {
        ++i;
        continue;
      }
      pend[i].h.wait();
      collect(pend[i].h, pool, pend[i].s);
      run.samples.push_back(std::move(pend[i].s));
      pend[i] = std::move(pend.back());
      pend.pop_back();
    }
  };
  run.t0 = Clock::now();
  for (const Arrival& a : schedule) {
    reap(false);
    std::this_thread::sleep_until(run.t0 + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(a.t)));
    Pending pd = submit(srv, pool, a.spec, run);
    pd.s.timed = a.t >= run.window_start;
    pd.s.due = a.t;
    pd.s.lateness = std::max(0.0, pd.s.submit_at - a.t);
    pend.push_back(std::move(pd));
  }
  reap(true);
  run.stats = srv.stats();
  run.params = srv.machine_params();
  return run;
}

/// One factor_square problem per machine session: scatter, factor, solve.
Run run_factor(backend::Machine& machine, const qr3d::Solver& solver, const Pool& pool,
               double window, std::mt19937_64& rng) {
  Run run;
  run.window_end = kWarmupSeconds + window;
  const auto& ids = pool.well.front();
  run.t0 = Clock::now();
  for (;;) {
    const double t = seconds_since(run.t0);
    if (t >= run.window_end) break;
    Sample s;
    s.problem = ids[rng() % ids.size()];
    s.big = true;
    s.timed = t >= run.window_start;
    s.due = s.submit_at = t;
    const Problem& p = pool.problems[s.problem];
    la::Matrix x;
    try {
      machine.run([&](backend::Comm& c) {
        const qr3d::DistMatrix Ad = qr3d::DistMatrix::from_global(c, p.A.view());
        const qr3d::DistMatrix bd = qr3d::DistMatrix::from_global(c, p.b.view());
        la::Matrix xr = solver.factor(Ad).solve_least_squares(bd);
        if (c.rank() == 0) x = std::move(xr);
      });
      s.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "factor_square solve failed: %s\n", e.what());
    }
    s.resolved_at = seconds_since(run.t0);
    s.exec_s = s.resolved_at - s.submit_at;
    s.wall_s = machine.last_wall_seconds();
    s.group_ranks = machine.size();
    if (s.ok) s.error = solution_error(p, x);
    run.samples.push_back(s);
  }
  run.params = machine.params();
  return run;
}

// --- Workloads ------------------------------------------------------------------

std::uint32_t pick(std::mt19937_64& rng, const std::vector<std::uint32_t>& ids) {
  return ids[rng() % ids.size()];
}

struct Workload {
  std::string name;
  int P = 4;
  std::uint64_t seed = 1;
  Pool pool;
  std::mt19937_64 rng;

  bool serving() const { return name != "factor_square"; }
  bool open() const { return name == "ls_mixed_open"; }
  int depth() const { return name == "ls_small" ? 8 : 2; }

  /// The shape the layer probes run at: a middle ls_small shape, the tall
  /// panel both ls_tall and ls_mixed_open's Low class use, or the square.
  Shape probe_shape() const {
    if (name == "ls_small") return {256, 24};
    if (name == "factor_square") return kSquareShape;
    return kBigShape;
  }

  /// Next closed-loop job.
  JobSpec draw() {
    JobSpec s;
    const std::size_t shape = rng() % pool.well.size();
    if (name == "ls_tall") {
      const bool graded = rng() % 5 == 0;  // 20% kappa = 1e8
      s.problem = pick(rng, graded ? pool.graded[shape] : pool.well[shape]);
      s.opts.with_accuracy(rng() % 2 == 0 ? qr3d::Accuracy::Balanced : qr3d::Accuracy::Accurate);
    } else {
      s.problem = pick(rng, pool.well[shape]);
    }
    return s;
  }

  /// Seeded Poisson arrivals for ls_mixed_open over [0, horizon), in time
  /// order: small High jobs at kHighRate, and 8192x64 Low jobs at kLowRate.
  /// The Low stream is a Poisson process conditioned on its count (rate x
  /// horizon arrivals placed uniformly at random): with only ~2 per second,
  /// a free count would swing the head-of-line-blocked share of High jobs,
  /// and with it the High tail, from seed to seed.
  std::vector<Arrival> schedule(double horizon) {
    std::vector<Arrival> out;
    const auto add = [&](double t, bool low) {
      Arrival a{t, {}};
      a.spec.low = low;
      a.spec.problem = low ? pick(rng, pool.big) : pick(rng, pool.well[rng() % pool.well.size()]);
      a.spec.opts.with_priority(low ? serve::Priority::Low : serve::Priority::High);
      out.push_back(a);
    };
    std::exponential_distribution<double> gap(kHighRate);
    for (double t = gap(rng); t < horizon; t += gap(rng)) add(t, false);
    std::uniform_real_distribution<double> when(0.0, horizon);
    for (int i = 0; i < static_cast<int>(std::lround(kLowRate * horizon)); ++i)
      add(when(rng), true);
    std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
    return out;
  }
};

serve::ServeOptions serve_options(int P, std::shared_ptr<obs::TraceSink> trace = nullptr) {
  serve::ServeOptions o;
  o.with_ranks(P).with_profile().with_async();
  if (trace) o.with_trace(std::move(trace));
  return o;
}

qr3d::QrOptions tuned_thread_options() {
  return qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Thread);
}

/// factor_square's serving object: a thread machine rebuilt on its own
/// measured profile, as BatchSolver's with_profile() does.
std::unique_ptr<backend::Machine> make_profiled_machine(int P) {
  const qr3d::QrOptions qr = tuned_thread_options();
  auto machine = qr3d::make_machine(qr, P);
  const serve::MachineProfile prof = serve::profile_machine(*machine);
  return qr3d::make_machine(qr, P, prof.fitted);
}

/// Run the workload once (warm-up + `window`) on a fresh serving object.
Run run_workload(Workload& w, double window, std::shared_ptr<obs::TraceSink> trace) {
  if (!w.serving()) {
    auto machine = make_profiled_machine(w.P);
    if (trace) machine->set_trace_sink(trace);
    const qr3d::Solver solver(tuned_thread_options());
    return run_factor(*machine, solver, w.pool, window, w.rng);
  }
  serve::BatchSolver srv(serve_options(w.P, std::move(trace)));
  if (w.open()) return run_open(srv, w.pool, w.schedule(kWarmupSeconds + window), window);
  return run_closed(srv, w.pool, w.depth(), window, [&w] { return w.draw(); });
}

/// setup_s: median construction time of the workload's serving object.
double measure_setup(const Workload& w) {
  std::vector<double> ts;
  for (int i = 0; i < kSetupConstructions; ++i) {
    const auto t0 = Clock::now();
    if (w.serving()) {
      const serve::BatchSolver srv(serve_options(w.P));
      ts.push_back(seconds_since(t0));
    } else {
      const auto machine = make_profiled_machine(w.P);
      ts.push_back(seconds_since(t0));
    }
  }
  return median(std::move(ts));
}

// --- Checks -------------------------------------------------------------------

/// Jobs that failed or returned a solution outside its tolerance.
std::size_t count_failures(const std::vector<Sample>& samples) {
  std::size_t failed = 0;
  double worst = 0.0;
  for (const Sample& s : samples) {
    if (!s.correct()) ++failed;
    if (s.ok) worst = std::max(worst, s.error);
  }
  std::printf("checked %zu solutions: %zu wrong or failed (worst error %.3g of its tolerance)\n",
              samples.size(), failed, worst);
  return failed;
}

// --- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
  std::size_t samples = 1;  ///< sample count behind the value
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

std::vector<double> timed_ok(const Run& run, const std::function<bool(const Sample&)>& keep,
                             const std::function<double(const Sample&)>& value) {
  std::vector<double> out;
  for (const Sample& s : run.samples)
    if (s.timed && s.ok && keep(s)) out.push_back(value(s));
  return out;
}

/// The percentile latency_tail_ms reports: p99 on the workloads that
/// complete thousands of jobs a run, p90 on those that complete a few a
/// second, so that at least ten samples lie beyond it.
double tail_quantile(const std::string& workload) {
  return workload == "ls_tall" || workload == "factor_square" ? 0.90 : 0.99;
}

/// The values `value` gives the timed, successful samples `keep` selects,
/// grouped into `k` equal sub-windows of the timed window by due time.
std::vector<std::vector<double>> by_subwindow(const Run& run, std::size_t k,
                                              const std::function<bool(const Sample&)>& keep,
                                              const std::function<double(const Sample&)>& value) {
  std::vector<std::vector<double>> parts(k);
  const double width = (run.window_end - run.window_start) / static_cast<double>(k);
  for (const Sample& s : run.samples) {
    if (!s.timed || !s.ok || !keep(s)) continue;
    const auto i = static_cast<std::size_t>(std::max(0.0, (s.due - run.window_start) / width));
    parts[std::min(i, k - 1)].push_back(value(s));
  }
  return parts;
}

/// Sub-windows to cut a window into so that each holds `per` of `n` samples
/// (at least 1, at most 10).  A median over sub-windows keeps a few seconds
/// of host stall from moving a whole run's number.
std::size_t subwindows(std::size_t n, double per) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(static_cast<double>(n) / per), 1, 10);
}

/// Completed jobs per second: the median over sub-windows of at least 100
/// jobs of (jobs - 1) / (last due - first due).  In a closed loop a job is
/// due when a slot frees, so this is the completion rate.
double throughput_per_s(const Run& run) {
  const auto all = [](const Sample&) { return true; };
  const auto due = [](const Sample& s) { return s.due; };
  const std::size_t jobs = timed_ok(run, all, due).size();
  std::vector<double> rates;
  for (auto& part : by_subwindow(run, subwindows(jobs, 100.0), all, due)) {
    if (part.size() < 2) continue;
    const auto [lo, hi] = std::minmax_element(part.begin(), part.end());
    if (*hi > *lo) rates.push_back(static_cast<double>(part.size() - 1) / (*hi - *lo));
  }
  return median(std::move(rates));
}

std::vector<Metric> end_to_end_metrics(const Run& run, const std::string& workload,
                                       double setup_s) {
  // On ls_mixed_open the latency metrics are the High class's: it is the
  // latency-sensitive traffic, and its tail shows head-of-line blocking.
  const auto high = [](const Sample& s) { return !s.low; };
  const auto ms = [](const Sample& s) { return s.latency_s() * 1e3; };
  const auto lat = timed_ok(run, high, ms);
  const std::size_t n = lat.size();
  const std::size_t jobs = timed_ok(run, [](const Sample&) { return true; }, ms).size();

  // Tail: the median over sub-windows that each hold at least ten samples
  // beyond the percentile.
  const double q = tail_quantile(workload);
  std::vector<double> tails;
  for (auto& part : by_subwindow(run, subwindows(n, 10.0 / (1.0 - q)), high, ms))
    if (!part.empty()) tails.push_back(pct(std::move(part), q));

  return {
      {"setup_s", "s", setup_s, kSetupConstructions},
      {"throughput_per_s", "jobs/s", throughput_per_s(run), jobs},
      {"latency_p50_ms", "ms", pct(lat, 0.50), n},
      {"latency_tail_ms", "ms", median(std::move(tails)), n},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1},
  };
}

/// serve.*: per-job JobStats and the solver's Stats counters of a run.
void serve_layer_metrics(const Run& run, std::vector<Metric>& out) {
  const auto all = [](const Sample&) { return true; };
  const auto q = timed_ok(run, all, [](const Sample& s) { return s.queue_s * 1e3; });
  const auto ex = timed_ok(run, all, [](const Sample& s) { return s.exec_s * 1e3; });
  const auto wall = timed_ok(run, all, [](const Sample& s) { return s.wall_s * 1e3; });
  const auto over = timed_ok(run, all, [](const Sample& s) { return (s.exec_s - s.wall_s) * 1e6; });
  const auto groups =
      timed_ok(run, all, [](const Sample& s) { return static_cast<double>(s.group_ranks); });
  const auto drift = timed_ok(run, [](const Sample& s) { return s.predicted_s > 0.0; },
                              [](const Sample& s) { return s.wall_s / s.predicted_s; });
  const auto submit = timed_ok(run, all, [](const Sample& s) { return s.submit_s * 1e6; });
  const auto late = timed_ok(run, all, [](const Sample& s) { return s.lateness * 1e3; });
  const auto big = timed_ok(run, [](const Sample& s) { return s.big; },
                            [](const Sample& s) { return s.latency_s() * 1e3; });
  const serve::BatchSolver::Stats& st = run.stats;
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const std::size_t n = q.size();
  out.push_back({"serve.queue_p50_ms", "ms", pct(q, 0.50), n});
  out.push_back({"serve.queue_p99_ms", "ms", pct(q, 0.99), n});
  out.push_back({"serve.exec_p50_ms", "ms", pct(ex, 0.50), n});
  out.push_back({"serve.machine_p50_ms", "ms", pct(wall, 0.50), n});
  out.push_back({"serve.overhead_p50_us", "us", pct(over, 0.50), n});
  out.push_back({"serve.jobs_per_session", "count", ratio(st.jobs_completed, st.sessions),
                 st.sessions});
  out.push_back({"serve.plan_hit_ratio", "ratio",
                 ratio(st.plan_cache_hits, st.plan_cache_hits + st.plan_cache_misses),
                 st.plan_cache_hits + st.plan_cache_misses});
  out.push_back({"serve.group_ranks_p50", "count", pct(groups, 0.50), n});
  out.push_back({"serve.choleskyqr2_frac", "ratio", ratio(st.jobs_choleskyqr2, st.attempts),
                 st.attempts});
  out.push_back({"serve.cholesky_fallback_frac", "ratio",
                 ratio(st.cholesky_fallbacks, st.jobs_choleskyqr2), st.jobs_choleskyqr2});
  out.push_back({"serve.drift_p50", "ratio", pct(drift, 0.50), drift.size()});
  out.push_back({"serve.drift_p95", "ratio", pct(drift, 0.95), drift.size()});
  out.push_back({"serve.submit_p99_us", "us", pct(submit, 0.99), n});
  out.push_back({"serve.gen_lateness_p99_ms", "ms", pct(late, 0.99), n});
  out.push_back({"serve.big_latency_p50_ms", "ms", pct(big, 0.50), big.size()});
}

// --- Layer probes ---------------------------------------------------------------

/// Seconds per call of the op `make_op(comm)` returns, repeated `reps` times
/// inside one session on every rank and timed on rank 0; the median over
/// `sessions` sessions (after an untimed one).
double per_op_seconds(backend::Machine& machine, int sessions, int reps,
                      const std::function<std::function<void()>(backend::Comm&)>& make_op) {
  std::vector<double> ts;
  for (int s = 0; s <= sessions; ++s) {
    double t = 0.0;
    machine.run([&](backend::Comm& c) {
      const std::function<void()> op = make_op(c);
      op();  // lazy ring allocation and first touch stay out of the timing
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) op();
      if (c.rank() == 0) t = seconds_since(t0) / reps;
    });
    if (s > 0) ts.push_back(t);
  }
  return median(std::move(ts));
}

double gflops(double flops, double seconds) { return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0; }

/// la: single-threaded kernels, best of 5, at the per-rank shapes the
/// workloads run.
void la_metrics(std::vector<Metric>& out) {
  {
    const la::Matrix A = la::random_matrix(512, 512, 11), B = la::random_matrix(512, 512, 12);
    la::Matrix C(512, 512);
    const double t = best_seconds(5, [] {}, [&] {
      la::gemm(1.0, la::Op::NoTrans, A.view(), la::Op::NoTrans, B.view(), 0.0, C.view());
    });
    out.push_back({"la.gemm512_gflops", "GF/s", gflops(la::flops::gemm(512, 512, 512), t), 5});
  }
  // The per-rank panel of an 8192x64 ls_tall job on 4 ranks.
  const la::index_t m = 2048, n = 64;
  const la::Matrix panel = la::random_matrix(m, n, 13);
  {
    la::Matrix G(n, n);
    const double t = best_seconds(5, [] {}, [&] {
      la::gemm(1.0, la::Op::ConjTrans, panel.view(), la::Op::NoTrans, panel.view(), 0.0, G.view());
    });
    out.push_back({"la.gemm_gram_gflops", "GF/s", gflops(la::flops::gemm(n, n, m), t), 5});
  }
  {
    la::Matrix W, T(n, n);
    const double t = best_seconds(5, [&] { W = la::copy<double>(panel.view()); },
                                  [&] { la::geqrt(W.view(), T.view()); });
    out.push_back({"la.geqrt_leaf_gflops", "GF/s", gflops(la::flops::geqrt(m, n), t), 5});
  }
  const la::QrFactors f = la::qr_factor<double>(panel.view());
  {
    la::Matrix B;
    const double t = best_seconds(5, [&] { B = la::copy<double>(panel.view()); }, [&] {
      la::trsm<double>(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
                       f.R.view(), B.view());
    });
    out.push_back({"la.trsm_right_gflops", "GF/s", gflops(la::flops::trsm(n, m), t), 5});
  }
  {
    const la::Matrix C0 = la::random_matrix(m, n, 14);
    la::Matrix C;
    const double t = best_seconds(5, [&] { C = la::copy<double>(C0.view()); }, [&] {
      la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::ConjTrans, C.view());
    });
    out.push_back({"la.larfb_gflops", "GF/s", gflops(la::flops::larfb(m, n, n), t), 5});
  }
  {
    // ls_small's 96x24 job, 256 factorizations per timing.
    const la::Matrix S = la::random_matrix(96, 24, 15);
    std::vector<la::Matrix> copies(256);
    la::Matrix T(24, 24);
    const double t = best_seconds(
        5, [&] { for (auto& c : copies) c = la::copy<double>(S.view()); },
        [&] { for (auto& c : copies) la::geqrt(c.view(), T.view()); });
    out.push_back({"la.geqrt_small_gflops", "GF/s",
                   gflops(la::flops::geqrt(96, 24) * static_cast<double>(copies.size()), t), 5});
  }
}

/// backend: session, latency and bandwidth probes on a P-rank machine, and
/// messages/bytes per job counted from the traced run's send events.
void backend_metrics(int P, const Run& traced, const std::vector<obs::TraceEvent>& events,
                     std::vector<Metric>& out) {
  backend::ThreadMachine machine(P);
  std::vector<double> sessions;
  for (int i = 0; i <= 1000; ++i) {
    const auto t0 = Clock::now();
    machine.run([](backend::Comm&) {});
    if (i > 0) sessions.push_back(seconds_since(t0) * 1e6);
  }
  out.push_back({"backend.session_p50_us", "us", median(sessions), sessions.size()});
  // Round trips between ranks 0 and 1 with copied payloads, halved.
  const auto oneway = [&](std::size_t words, int reps) {
    if (P < 2) return 0.0;
    return per_op_seconds(machine, 5, reps, [words](backend::Comm& c) -> std::function<void()> {
      if (c.rank() >= 2) return [] {};
      return [&c, words] {
        const int peer = 1 - c.rank();
        std::vector<double> ball(words, 1.0);
        if (c.rank() == 0) {
          c.send_copy(peer, ball, 7);
          ball = c.recv(peer, 7);
        } else {
          ball = c.recv(peer, 7);
          c.send_copy(peer, ball, 7);
        }
      };
    }) / 2.0;
  };
  out.push_back({"backend.pingpong_oneway_us", "us", oneway(1, 1000) * 1e6, 5});
  const std::size_t words = 131072;  // 1 MiB: an ls_tall per-rank panel
  const double t = oneway(words, 20);
  out.push_back({"backend.stream_gbps", "GB/s",
                 t > 0.0 ? static_cast<double>(words) * 8.0 / t * 1e-9 : 0.0, 5});

  const double window_start = obs::trace_seconds(traced.t0) + traced.window_start;
  double msgs = 0.0, bytes = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEvent::Kind::Send || e.track != 0 || e.t0 < window_start) continue;
    msgs += 1.0;
    bytes += 8.0 * e.words;
  }
  std::size_t jobs = 0;
  for (const Sample& s : traced.samples) jobs += s.timed ? 1 : 0;
  const double per = jobs > 0 ? 1.0 / static_cast<double>(jobs) : 0.0;
  out.push_back({"backend.msgs_per_job", "count", msgs * per, jobs});
  out.push_back({"backend.bytes_per_job", "B", bytes * per, jobs});
}

/// coll: the Gram all-reduce (n = 64) of ls_tall and the all-to-all block of
/// factor_square's redistributions, each next to its alpha-beta prediction.
void coll_metrics(int P, const sim::CostParams& fitted, std::vector<Metric>& out) {
  backend::ThreadMachine machine(P, fitted);
  const std::size_t gram_words = 64 * 65 / 2;
  const double ar = per_op_seconds(machine, 5, 200, [gram_words](backend::Comm& c) {
    return std::function<void()>([&c, gram_words] {
      std::vector<double> d(gram_words, 1.0);
      qr3d::coll::all_reduce(c, d);
    });
  });
  const double ar_pred = cost::all_reduce(static_cast<double>(gram_words), P).time(fitted);
  out.push_back({"coll.allreduce_gram_us", "us", ar * 1e6, 5});
  out.push_back({"coll.allreduce_gram_ratio", "ratio", ar_pred > 0.0 ? ar / ar_pred : 0.0, 5});

  // Each rank holds m*n/P words of the square matrix and sends 1/P of it to
  // every rank.  Outgoing blocks are built before the timed loop.
  const std::size_t block = static_cast<std::size_t>(kSquareShape.m * kSquareShape.n) /
                            static_cast<std::size_t>(P * P);
  constexpr int kReps = 10;
  std::vector<double> ts;
  for (int s = 0; s <= 5; ++s) {
    double t = 0.0;
    machine.run([&](backend::Comm& c) {
      std::vector<std::vector<std::vector<double>>> sets(
          kReps + 1, std::vector<std::vector<double>>(static_cast<std::size_t>(c.size()),
                                                      std::vector<double>(block, 1.0)));
      qr3d::coll::all_to_all(c, std::move(sets[kReps]));
      const auto t0 = Clock::now();
      for (int r = 0; r < kReps; ++r) qr3d::coll::all_to_all(c, std::move(sets[r]));
      if (c.rank() == 0) t = seconds_since(t0) / kReps;
    });
    if (s > 0) ts.push_back(t);
  }
  const double a2a = median(ts);
  const double a2a_pred =
      cost::all_to_all(static_cast<double>(block), static_cast<double>(block) * P, P).time(fitted);
  out.push_back({"coll.alltoall_us", "us", a2a * 1e6, 5});
  out.push_back({"coll.alltoall_ratio", "ratio", a2a_pred > 0.0 ? a2a / a2a_pred : 0.0, 5});
}

/// mm: the Lemma 4 multiplication at factor_square's top-level multiply
/// shape (n/2 x n/2 x m) on Grid3::choose's grid.
void mm_metrics(int P, const sim::CostParams& fitted, std::vector<Metric>& out) {
  backend::ThreadMachine machine(P, fitted);
  const la::index_t I = kSquareShape.n / 2, J = kSquareShape.n / 2, K = kSquareShape.m;
  const mm::Grid3 grid = mm::Grid3::choose(I, J, K, P);
  const double t = per_op_seconds(machine, 5, 1, [&](backend::Comm& c) {
    const mm::DmmLayout layout_a(mm::DmmOperand::A, I, J, K, grid, c.size());
    const mm::DmmLayout layout_b(mm::DmmOperand::B, I, J, K, grid, c.size());
    std::vector<double> a(static_cast<std::size_t>(layout_a.local_count(c.rank())), 0.5);
    std::vector<double> b(static_cast<std::size_t>(layout_b.local_count(c.rank())), 0.25);
    return std::function<void()>([&c, I, J, K, grid, a = std::move(a), b = std::move(b)] {
      mm::mm_3d_core(c, I, J, K, grid, a, b);
    });
  });
  out.push_back({"mm.mm3d_ms", "ms", t * 1e3, 5});
  out.push_back({"mm.mm3d_gflops", "GF/s", gflops(la::flops::gemm(I, J, K), t), 5});
}

/// core: one job of the probe shape on a g-rank machine, split into phases,
/// next to the model's prediction and the simulator's exact counts; TSQR and
/// CholeskyQR2 at the 8192x64 ls_tall shape; and the serial baseline.
void core_metrics(const Workload& w, int g, const sim::CostParams& fitted,
                  std::vector<Metric>& out) {
  const Shape s = w.probe_shape();
  const std::uint64_t seed = splitmix64(w.seed ^ 0xc0feULL);
  const la::Matrix A = la::random_matrix(s.m, s.n, seed), b = la::random_matrix(s.m, 1, seed + 1);
  const qr3d::Solver solver(tuned_thread_options());
  std::vector<double> scatter, factor, solve;
  const auto body = [&](backend::Comm& c, bool timed) {
    const auto t0 = Clock::now();
    const qr3d::DistMatrix Ad = qr3d::DistMatrix::from_global(c, A.view());
    const qr3d::DistMatrix bd = qr3d::DistMatrix::from_global(c, b.view());
    const auto t1 = Clock::now();
    const qr3d::Factorization f = solver.factor(Ad);
    const auto t2 = Clock::now();
    f.solve_least_squares(bd);
    if (timed && c.rank() == 0) {
      const auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      scatter.push_back(ms(t0, t1));
      factor.push_back(ms(t1, t2));
      solve.push_back(ms(t2, Clock::now()));
    }
  };
  {
    backend::ThreadMachine machine(g, fitted);
    for (int r = 0; r <= 5; ++r) machine.run([&](backend::Comm& c) { body(c, r > 0); });
  }
  serve::PlanCache cache;
  const serve::Plan plan = serve::resolve_shape_plan(s.m, s.n, g, tuned_thread_options(), cache,
                                                     backend::Kind::Thread, fitted,
                                                     qr3d::Accuracy::Accurate);
  const double pred_ms = plan.predicted.time(fitted) * 1e3;
  const double factor_ms = median(factor);
  out.push_back({"core.from_global_ms", "ms", median(scatter), scatter.size()});
  out.push_back({"core.factor_ms", "ms", factor_ms, factor.size()});
  out.push_back({"core.solve_ms", "ms", median(solve), solve.size()});
  out.push_back({"core.factor_pred_ms", "ms", pred_ms, 1});
  out.push_back({"core.factor_drift", "ratio", pred_ms > 0.0 ? factor_ms / pred_ms : 0.0, 5});

  const la::Matrix tall = la::random_matrix(kBigShape.m, kBigShape.n, seed + 2);
  backend::ThreadMachine machine(w.P, fitted);
  const auto tall_op = [&](bool cholesky) {
    return per_op_seconds(machine, 5, 1, [&tall, cholesky](backend::Comm& c) {
      la::Matrix local = qr3d::DistMatrix::local_of(c, tall.view(), qr3d::Dist::BlockRows);
      return std::function<void()>([&c, cholesky, local = std::move(local)] {
        if (cholesky) core::cholesky_qr2(c, local.view());
        else core::tsqr(c, local.view());
      });
    });
  };
  out.push_back({"core.tsqr_ms", "ms", tall_op(false) * 1e3, 5});
  out.push_back({"core.choleskyqr2_ms", "ms", tall_op(true) * 1e3, 5});

  sim::Machine simulated(g, fitted);
  simulated.run([&](backend::Comm& c) { body(c, false); });
  const sim::CostClock cp = simulated.critical_path();
  out.push_back({"core.flops", "count", cp.flops, 1});
  out.push_back({"core.words", "count", cp.words, 1});
  out.push_back({"core.msgs", "count", cp.msgs, 1});

  std::vector<double> serial;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    serial_least_squares(A, b);
    serial.push_back(seconds_since(t0) * 1e3);
  }
  out.push_back({"core.serial_ms", "ms", median(serial), serial.size()});
}

/// cost: machine profiling (what every serving object pays at set-up) and a
/// cold plan resolution at the probe shape.  Returns the fitted parameters
/// the other probes predict with.
sim::CostParams cost_metrics(const Workload& w, int g, std::vector<Metric>& out) {
  backend::ThreadMachine machine(w.P);
  std::vector<double> ts;
  serve::MachineProfile prof;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    prof = serve::profile_machine(machine);
    ts.push_back(seconds_since(t0) * 1e3);
  }
  out.push_back({"cost.profile_ms", "ms", median(ts), ts.size()});
  const Shape s = w.probe_shape();
  std::vector<double> resolve;
  for (int r = 0; r < 20; ++r) {
    serve::PlanCache cold;
    const auto t0 = Clock::now();
    serve::resolve_shape_plan(s.m, s.n, g, tuned_thread_options(), cold, backend::Kind::Thread,
                              prof.fitted);
    resolve.push_back(seconds_since(t0) * 1e6);
  }
  out.push_back({"cost.plan_resolve_us", "us", median(resolve), resolve.size()});
  return prof.fitted;
}

/// Ranks the serving layer gave jobs of the probe shape (P without a
/// serving layer, or when no such job ran).
int probe_group_ranks(const Workload& w, const Run& traced) {
  if (!w.serving()) return w.P;
  const Shape s = w.probe_shape();
  const auto g = timed_ok(traced, [&](const Sample& x) {
    const la::Matrix& A = w.pool.problems[x.problem].A;
    return A.rows() == s.m && A.cols() == s.n;
  }, [](const Sample& x) { return static_cast<double>(x.group_ranks); });
  return g.empty() ? w.P : std::max(1, static_cast<int>(pct(g, 0.5)));
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-30s %14.6g %-7s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    Workload w;
    w.name = args.workload;
    w.P = std::min(4, allowed_cpus());
    w.seed = args.seed;
    w.pool = make_pool(w.name, args.seed);
    w.rng.seed(splitmix64(args.seed ^ 0x5eedULL));
    if (args.corrupt_reference) w.pool.problems.front().x_ref(0, 0) += 1.0;
    std::printf("bench_suite workload=%s seed=%llu seconds=%g trace=%d P=%d kernel=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, w.P, la::active_kernel_name());

    std::vector<Run> runs;  // every run, for the checks
    runs.reserve(3);        // `traced` below refers into it
    std::vector<Metric> metrics;
    if (!args.trace) {
      const double setup = measure_setup(w);
      runs.push_back(run_workload(w, args.seconds, nullptr));
      metrics = end_to_end_metrics(runs.back(), w.name, setup);
    } else {
      const double half = args.seconds / 2.0;
      runs.push_back(run_workload(w, half, nullptr));
      const double untraced = throughput_per_s(runs.back());
      auto buffer = std::make_shared<obs::TraceBuffer>();
      runs.push_back(run_workload(w, half, buffer));
      const Run& traced = runs.back();
      const std::vector<obs::TraceEvent> events = buffer->events();
      if (w.serving()) {
        serve_layer_metrics(traced, metrics);
      } else {
        // No serving layer in this workload: serve.* come from serving its
        // problems one at a time through a BatchSolver.
        serve::BatchSolver srv(serve_options(w.P));
        const auto& ids = w.pool.well.front();
        runs.push_back(run_closed(srv, w.pool, 1, half / 2.0, [&] {
          JobSpec s;
          s.problem = pick(w.rng, ids);
          return s;
        }));
        serve_layer_metrics(runs.back(), metrics);
      }
      const int g = probe_group_ranks(w, traced);
      const sim::CostParams fitted = cost_metrics(w, g, metrics);
      backend_metrics(w.P, traced, events, metrics);
      coll_metrics(w.P, fitted, metrics);
      mm_metrics(w.P, fitted, metrics);
      la_metrics(metrics);
      core_metrics(w, g, fitted, metrics);
      metrics.push_back({"obs.trace_overhead_frac", "ratio",
                         untraced > 0.0 ? 1.0 - throughput_per_s(traced) / untraced : 0.0, 2});
      if (!args.trace_dir.empty()) {
        std::filesystem::create_directories(args.trace_dir);
        const std::string base = args.trace_dir + "/" + w.name;
        // The Chrome trace keeps the first events of the timed window: enough
        // to follow many jobs, small enough for a trace viewer.
        constexpr std::size_t kMaxTraceEvents = 100000;
        std::vector<obs::TraceEvent> window;
        const double start = obs::trace_seconds(traced.t0) + traced.window_start;
        for (const obs::TraceEvent& e : events)
          if (e.t0 >= start && window.size() < kMaxTraceEvents) window.push_back(e);
        if (!obs::write_chrome_trace(window, base + ".trace.json") ||
            !write_text(base + ".layers.json",
                        "{\"workload\": " + json_string(w.name) + ", \"seed\": " +
                            std::to_string(args.seed) + ", \"P\": " + std::to_string(w.P) +
                            ", \"metrics\": " + metrics_json(metrics) + "}")) {
          std::fprintf(stderr, "bench_suite: cannot write to %s\n", args.trace_dir.c_str());
          return 1;
        }
        std::printf("wrote %s.layers.json and %s.trace.json (%zu events)\n", base.c_str(),
                    base.c_str(), window.size());
      }
    }

    std::size_t attempted = 0, failed = 0;
    for (const Run& r : runs) {
      attempted += r.samples.size();
      failed += count_failures(r.samples);
    }
    print_metrics(metrics);
    const bool correct = failed == 0 && attempted > 0;
    const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(attempted) +
                               ", \"failed\": " + std::to_string(failed) +
                               ", \"metrics\": " + metrics_json(metrics) + "}";
    if (!args.json.empty()) {
      const sim::CostParams& fp = runs.front().params;
      const std::string host = "{\"nproc\": " + std::to_string(allowed_cpus()) +
                               ", \"P\": " + std::to_string(w.P) + ", \"kernel\": " +
                               json_string(la::active_kernel_name()) +
                               ", \"alpha\": " + json_number(fp.alpha) +
                               ", \"beta\": " + json_number(fp.beta) +
                               ", \"gamma\": " + json_number(fp.gamma) + "}";
      const std::string doc = "{\"workload\": " + json_string(w.name) +
                              ", \"seed\": " + std::to_string(args.seed) +
                              ", \"seconds\": " + json_number(args.seconds) +
                              ", \"trace\": " + (args.trace ? "1" : "0") +
                              ", \"host\": " + host + ", \"result\": " + result + "}";
      if (!write_text(args.json, doc)) {
        std::fprintf(stderr, "bench_suite: cannot write %s\n", args.json.c_str());
        return 1;
      }
    }
    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
