// The observability subsystem (src/obs/): metrics registry semantics,
// percentile edge hardening, trace collection, Chrome export, and the two
// headline contracts:
//
//   * Oracle replay — the sim backend's trace IS the cost model's predicted
//     timeline: replaying the traced op sequence through the alpha-beta-gamma
//     charges reproduces every rank's clock bit-exactly.
//   * Serving spans — BatchSolver's traced job lifecycle (submit -> queued ->
//     exec, session spans, drift statistics) and the stats() consistency
//     contract (run in the TSan CI job, so the snapshot claim is a data-race
//     claim too).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "qr3d.hpp"

#include "../bench/bench_util.hpp"  // bench_util::percentile delegation check

namespace backend = qr3d::backend;
namespace core = qr3d::core;
namespace la = qr3d::la;
namespace obs = qr3d::obs;
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

/// Count events of `kind` named `name` (empty name matches any).
int count_events(const std::vector<obs::TraceEvent>& events, obs::TraceEvent::Kind kind,
                 const std::string& name = "") {
  int n = 0;
  for (const auto& e : events)
    if (e.kind == kind && (name.empty() || e.name == name)) ++n;
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// obs::percentile — the hardened shared implementation
// ---------------------------------------------------------------------------

TEST(Percentile, EmptyInputReturnsZero) {
  EXPECT_EQ(obs::percentile({}, 0.5), 0.0);
  EXPECT_EQ(obs::percentile({}, 0.0), 0.0);
  EXPECT_EQ(obs::percentile({}, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  for (double q : {-1.0, 0.0, 0.5, 0.99, 1.0, 2.0}) {
    EXPECT_EQ(obs::percentile({3.25}, q), 3.25) << "q=" << q;
  }
}

TEST(Percentile, NearestRankOnKnownSamples) {
  const std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 3.0};  // sorted: 1..5
  EXPECT_EQ(obs::percentile(xs, 0.0), 1.0);
  EXPECT_EQ(obs::percentile(xs, 0.5), 3.0);
  EXPECT_EQ(obs::percentile(xs, 1.0), 5.0);
  EXPECT_EQ(obs::percentile(xs, 0.25), 2.0);
  EXPECT_EQ(obs::percentile(xs, 0.75), 4.0);
}

TEST(Percentile, OutOfRangeQClampsInsteadOfUnderflowing) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  // q < 0 used to compute a negative index that wrapped to SIZE_MAX and
  // returned the maximum; the hardened version clamps to the minimum.
  EXPECT_EQ(obs::percentile(xs, -0.5), 1.0);
  EXPECT_EQ(obs::percentile(xs, 1.5), 3.0);
  EXPECT_EQ(obs::percentile(xs, std::numeric_limits<double>::quiet_NaN()), 1.0);
}

TEST(Percentile, BenchUtilDelegates) {
  // bench_util::percentile routes through the same implementation; pin the
  // previously-buggy edge through the bench-facing entry point.
  EXPECT_EQ(qr3d::bench::percentile({1.0, 2.0, 3.0}, -1.0), 1.0);
  EXPECT_EQ(qr3d::bench::percentile({}, 0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Registry: counters, gauges, histograms
// ---------------------------------------------------------------------------

TEST(Registry, CountersAndGaugesInternByName) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("a");
  a.inc();
  a.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(&reg.counter("a"), &a);  // stable handle
  EXPECT_NE(&reg.counter("b"), &a);

  obs::Gauge& g = reg.gauge("g");
  g.set(2.5);
  g.add(0.5);
  EXPECT_EQ(g.value(), 3.0);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a"), 5u);
  EXPECT_EQ(snap.counters.at("b"), 0u);
  EXPECT_EQ(snap.gauges.at("g"), 3.0);
}

TEST(Registry, DisabledRegistryHandsOutCheapDeadMetrics) {
  obs::Registry reg(false);
  EXPECT_FALSE(reg.enabled());
  // Every name resolves to the same shared dead metric, and mutation no-ops.
  EXPECT_EQ(&reg.counter("x"), &reg.counter("y"));
  EXPECT_EQ(&reg.gauge("x"), &reg.gauge("y"));
  EXPECT_EQ(&reg.histogram("x"), &reg.histogram("y"));
  reg.counter("x").inc(100);
  reg.gauge("x").set(5.0);
  reg.histogram("x").record(1.0);
  EXPECT_EQ(reg.counter("x").value(), 0u);
  EXPECT_EQ(reg.gauge("x").value(), 0.0);
  EXPECT_EQ(reg.histogram("x").count(), 0u);
  EXPECT_TRUE(reg.snapshot().counters.empty());
}

TEST(Histogram, SummaryStatsAreExactQuantilesApproximate) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i) * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 5.050, 1e-12);
  EXPECT_EQ(h.min(), 1e-3);
  EXPECT_EQ(h.max(), 0.1);
  // Log-bucketed nearest-rank: within one bucket width (~12% relative).
  EXPECT_NEAR(h.quantile(0.5), 0.050, 0.15 * 0.050);
  EXPECT_NEAR(h.quantile(0.95), 0.095, 0.15 * 0.095);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_GT(s.p95, s.p50);
  EXPECT_GE(s.p99, s.p95);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleValueReportsItselfAtEveryQuantile) {
  obs::Histogram h;
  h.record(0.037);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    // The bucket midpoint is clamped to the observed [min, max] == {v}.
    EXPECT_EQ(h.quantile(q), 0.037) << "q=" << q;
  }
}

TEST(Histogram, OutOfRangeValuesLandInOverflowBucketsAndStayClamped) {
  obs::Histogram h(obs::HistogramOptions{1e-3, 1e3, 60});
  h.record(1e-9);  // underflow
  h.record(1e9);   // overflow
  h.record(std::numeric_limits<double>::quiet_NaN());  // counted as 0
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1e9);
  // Quantiles stay inside the observed range even for the edge buckets.
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 1e9);
}

// ---------------------------------------------------------------------------
// Trace collection and Chrome export
// ---------------------------------------------------------------------------

TEST(Trace, BufferStampsArrivalOrderAndClears) {
  obs::TraceBuffer buf;
  for (int i = 0; i < 5; ++i) {
    obs::TraceEvent e;
    e.kind = obs::TraceEvent::Kind::Instant;
    e.rank = i;  // different ranks -> different stripes
    e.name = "ev" + std::to_string(i);
    buf.record(std::move(e));
  }
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].name, "ev" + std::to_string(i));
  }
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}

TEST(Trace, ChromeExportShapesEventsAndEscapesNames) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent send;
  send.kind = obs::TraceEvent::Kind::Send;
  send.rank = 0;
  send.peer = 1;
  send.tag = 7;
  send.words = 12;
  send.t0 = 1e-3;
  send.t1 = 2e-3;
  events.push_back(send);
  obs::TraceEvent inst;
  inst.kind = obs::TraceEvent::Kind::Instant;
  inst.track = 1;
  inst.name = "weird \"name\"\n";
  events.push_back(inst);

  const std::string json = obs::chrome_trace_json(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("process_name"), std::string::npos);  // track metadata
  EXPECT_NE(json.find("\"machine\""), std::string::npos);
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  EXPECT_NE(json.find("send to 1"), std::string::npos);
  EXPECT_NE(json.find("weird \\\"name\\\"\\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Oracle replay: the sim trace IS the cost model's predicted timeline
// ---------------------------------------------------------------------------

TEST(SimTrace, TsqrTraceReplaysCostModelBitExactly) {
  // Pinned TSQR run on the simulator.  Replaying the traced op sequence
  // through the alpha-beta-gamma charges — same expressions, same order —
  // must reproduce every rank's CostClock bit-exactly (EXPECT_EQ on
  // doubles, no tolerance): the trace is the predicted timeline.
  const int P = 8;
  const index_t n = 6, m_local = 24;
  const sim::CostParams cp;  // default alpha/beta/gamma
  sim::Machine machine(P, cp);
  auto trace = std::make_shared<obs::TraceBuffer>();
  machine.set_trace_sink(trace);
  machine.run([&](backend::Comm& c) {
    la::Matrix Al = la::random_matrix(m_local, n, 42 + static_cast<std::uint64_t>(c.rank()));
    core::tsqr(c, la::ConstMatrixView(Al.view()));
  });

  const auto events = trace->events();
  ASSERT_GT(events.size(), 0u);

  std::vector<sim::CostClock> clk(static_cast<std::size_t>(P));
  // FIFO per (src, dst, tag): the send-before-visible ordering contract
  // guarantees the k-th recv pairs with the k-th send in seq order.
  std::map<std::tuple<int, int, int>, std::deque<sim::CostClock>> inflight;
  double send_words = 0.0, flops_total = 0.0;
  int sends = 0, recvs = 0;

  for (const auto& e : events) {
    ASSERT_GE(e.rank, 0);
    ASSERT_LT(e.rank, P);
    sim::CostClock& k = clk[static_cast<std::size_t>(e.rank)];
    switch (e.kind) {
      case obs::TraceEvent::Kind::Send: {
        ASSERT_EQ(e.t0, k.time) << "send out of order on rank " << e.rank;
        k.msgs += 1;
        k.words += e.words;
        k.time += cp.alpha + cp.beta * e.words;
        ASSERT_EQ(e.t1, k.time);
        inflight[{e.rank, e.peer, e.tag}].push_back(k);
        send_words += e.words;
        ++sends;
        break;
      }
      case obs::TraceEvent::Kind::Recv: {
        ASSERT_EQ(e.t0, k.time) << "recv out of order on rank " << e.rank;
        auto& q = inflight[{e.peer, e.rank, e.tag}];
        ASSERT_FALSE(q.empty()) << "recv with no earlier matching send (seq " << e.seq << ")";
        const sim::CostClock sender = q.front();
        q.pop_front();
        k.merge(sender);
        k.msgs += 1;
        k.words += e.words;
        k.time += cp.alpha + cp.beta * e.words;
        ASSERT_EQ(e.t1, k.time);
        ++recvs;
        break;
      }
      case obs::TraceEvent::Kind::Flops: {
        ASSERT_EQ(e.t0, k.time) << "flops out of order on rank " << e.rank;
        k.flops += e.words;
        k.time += e.words * cp.gamma;
        ASSERT_EQ(e.t1, k.time);
        flops_total += e.words;
        break;
      }
      default:
        FAIL() << "unexpected event kind in a machine-only trace";
    }
  }

  // Every rank's replayed clock equals the machine's — all four metrics.
  sim::CostClock replayed_cp;
  for (int p = 0; p < P; ++p) {
    const sim::CostClock& mc = machine.rank_clock(p);
    const sim::CostClock& rc = clk[static_cast<std::size_t>(p)];
    EXPECT_EQ(rc.time, mc.time) << "rank " << p;
    EXPECT_EQ(rc.flops, mc.flops) << "rank " << p;
    EXPECT_EQ(rc.words, mc.words) << "rank " << p;
    EXPECT_EQ(rc.msgs, mc.msgs) << "rank " << p;
    replayed_cp.merge(rc);
  }
  EXPECT_EQ(replayed_cp.time, machine.critical_path().time);

  // Every send was received (TSQR has no dangling messages), and the traced
  // volumes equal the machine's aggregate totals.
  EXPECT_EQ(sends, recvs);
  for (const auto& [key, q] : inflight) EXPECT_TRUE(q.empty());
  const sim::CostTotals totals = machine.totals();
  EXPECT_EQ(static_cast<double>(sends), totals.msgs_sent);
  EXPECT_EQ(send_words, totals.words_sent);
  EXPECT_EQ(flops_total, totals.flops);
}

TEST(SimTrace, ConsecutiveRunsStayMonotonic) {
  // trace_base_ accumulates the critical path across run() sessions, so a
  // multi-session trace never goes backwards in time.
  sim::Machine machine(2);
  auto trace = std::make_shared<obs::TraceBuffer>();
  machine.set_trace_sink(trace);
  auto body = [](backend::Comm& c) {
    if (c.rank() == 0)
      c.send(1, {1.0, 2.0}, 3);
    else
      c.recv(0, 3);
  };
  machine.run(body);
  const std::size_t first_run_events = trace->size();
  double max_t1_run1 = 0.0;
  for (const auto& e : trace->events()) max_t1_run1 = std::max(max_t1_run1, e.t1);
  machine.run(body);
  const auto events = trace->events();
  ASSERT_GT(events.size(), first_run_events);
  for (std::size_t i = first_run_events; i < events.size(); ++i) {
    EXPECT_GE(events[i].t0, max_t1_run1) << "event " << i << " went backwards";
  }
}

// ---------------------------------------------------------------------------
// Thread backend: wall-clock trace with the same pairing contract
// ---------------------------------------------------------------------------

TEST(ThreadTrace, RingTracePairsSendsWithRecvs) {
  const int P = 4;
  backend::ThreadMachine machine(P);
  auto trace = std::make_shared<obs::TraceBuffer>();
  machine.set_trace_sink(trace);
  machine.run([&](backend::Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.send(next, {1.0, 2.0, 3.0}, 5);
    c.recv(prev, 5);
  });

  const auto events = trace->events();
  std::map<std::tuple<int, int, int>, std::deque<double>> inflight;  // -> words
  int sends = 0, recvs = 0;
  for (const auto& e : events) {
    if (e.kind == obs::TraceEvent::Kind::Send) {
      EXPECT_EQ(e.words, 3.0);
      EXPECT_GE(e.t0, 0.0);
      inflight[{e.rank, e.peer, e.tag}].push_back(e.words);
      ++sends;
    } else if (e.kind == obs::TraceEvent::Kind::Recv) {
      auto& q = inflight[{e.peer, e.rank, e.tag}];
      ASSERT_FALSE(q.empty()) << "recv traced before its send (seq " << e.seq << ")";
      EXPECT_EQ(q.front(), e.words);
      q.pop_front();
      EXPECT_GE(e.t1, e.t0);  // the recv interval covers the wait
      ++recvs;
    }
  }
  EXPECT_EQ(sends, P);
  EXPECT_EQ(recvs, P);
  EXPECT_EQ(count_events(events, obs::TraceEvent::Kind::Instant, "rank_death"), 0);
}

TEST(ThreadTrace, BaseMachineRejectsSinkSimAndThreadAccept) {
  // The default backend::Machine contract: only nullptr accepted.  Both real
  // backends override and accept (and clearing with nullptr is always fine).
  sim::Machine s(2);
  backend::ThreadMachine t(2);
  auto trace = std::make_shared<obs::TraceBuffer>();
  EXPECT_NO_THROW(s.set_trace_sink(trace));
  EXPECT_NO_THROW(t.set_trace_sink(trace));
  EXPECT_NO_THROW(s.set_trace_sink(nullptr));
  EXPECT_NO_THROW(t.set_trace_sink(nullptr));
}

// ---------------------------------------------------------------------------
// Serving spans and drift statistics
// ---------------------------------------------------------------------------

TEST(ServeTrace, JobLifecycleSpansAndDriftStats) {
  const int kJobs = 4;
  auto trace = std::make_shared<obs::TraceBuffer>();
  serve::ServeOptions opts;
  opts.with_ranks(4).with_group_ranks(2).with_trace(trace).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);

  std::vector<Planted> problems;
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < kJobs; ++j) {
    problems.push_back(planted_problem(48, 8, 9000 + 2 * static_cast<std::uint64_t>(j)));
    handles.push_back(srv.submit(problems.back().A, problems.back().b));
  }
  srv.flush();
  for (auto& h : handles) {
    EXPECT_NO_THROW(h.get());
    // Drift denominator: the model's predicted time for the job's plan.
    EXPECT_GT(h.stats().predicted_seconds, 0.0);
  }

  const auto events = trace->events();
  EXPECT_EQ(count_events(events, obs::TraceEvent::Kind::Instant, "submit"), kJobs);
  EXPECT_EQ(count_events(events, obs::TraceEvent::Kind::Span, "queued"), kJobs);
  EXPECT_EQ(count_events(events, obs::TraceEvent::Kind::Span, "exec"), kJobs);
  EXPECT_GE(count_events(events, obs::TraceEvent::Kind::Span, "session"), 1);
  // group_ranks=2 means real comm: machine ops share the same trace.
  EXPECT_GT(count_events(events, obs::TraceEvent::Kind::Send), 0);
  for (const auto& e : events) {
    if (e.kind == obs::TraceEvent::Kind::Span) {
      EXPECT_GE(e.t1, e.t0) << e.name;
    }
  }

  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.drift_samples, static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(st.drift_p50, 0.0);
  EXPECT_GE(st.drift_p95, st.drift_p50);
  // The full registry is exposed too, under "serve.*" names.
  const auto snap = srv.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.jobs_completed"), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(snap.histograms.at("serve.drift_ratio").count, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(snap.histograms.at("serve.latency_seconds").count, static_cast<std::uint64_t>(kJobs));
}

TEST(ServeTrace, RejectedJobTracesAnAdmissionInstant) {
  auto trace = std::make_shared<obs::TraceBuffer>();
  serve::ServeOptions opts;
  opts.with_ranks(2).with_max_queue_depth(1).with_trace(trace).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  Planted p = planted_problem(32, 8, 777);
  serve::JobHandle ok = srv.submit(p.A, p.b);
  serve::JobHandle rejected = srv.submit(p.A, p.b);  // over the cap
  EXPECT_THROW(rejected.get(), serve::AdmissionError);
  srv.flush();
  EXPECT_NO_THROW(ok.get());
  const auto events = trace->events();
  EXPECT_EQ(count_events(events, obs::TraceEvent::Kind::Instant, "submit"), 1);
  EXPECT_EQ(count_events(events, obs::TraceEvent::Kind::Instant, "admission_reject"), 1);
}

TEST(ServeDrift, MedianDriftTriggersReprofile) {
  // with_reprofile_on_drift: once the since-profile median wall/predicted
  // ratio leaves [1/f, f] with enough samples, the next dispatch re-profiles.
  // f just above 1 makes any real measurement noise trip the detector, so
  // the trigger path is exercised deterministically.
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_reprofile_on_drift(1.0000001).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);
  ASSERT_TRUE(srv.options().profile());

  std::vector<serve::JobHandle> handles;
  Planted p = planted_problem(32, 8, 555);
  // First flush collects >= 8 drift samples; the second flush's dispatch
  // sees them and re-profiles.
  for (int j = 0; j < 8; ++j) handles.push_back(srv.submit(p.A, p.b));
  srv.flush();
  EXPECT_EQ(srv.stats().reprofiles, 0u);
  handles.push_back(srv.submit(p.A, p.b));
  srv.flush();
  for (auto& h : handles) EXPECT_NO_THROW(h.get());

  const auto st = srv.stats();
  EXPECT_GE(st.reprofiles, 1u);
  // The re-profile swapped in a fresh fit, so the shape sized and tuned
  // again: a second plan-cache miss.
  EXPECT_EQ(st.plan_cache_misses, 2u);
  // The since-profile histogram was reset at the reprofile; the cumulative
  // one keeps every sample.
  EXPECT_EQ(st.drift_samples, 9u);
  const auto snap = srv.metrics().snapshot();
  EXPECT_LT(snap.histograms.at("serve.drift_ratio_since_profile").count, 9u);
}

TEST(ServeDrift, InvalidDriftFactorRejected) {
  serve::ServeOptions opts;
  EXPECT_THROW(opts.with_reprofile_on_drift(0.5), std::exception);
  EXPECT_THROW(opts.with_reprofile_on_drift(1.0), std::exception);
  EXPECT_NO_THROW(opts.with_reprofile_on_drift(0.0));  // disabled
  EXPECT_NO_THROW(opts.with_reprofile_on_drift(4.0));
}

// ---------------------------------------------------------------------------
// stats() consistency under the async executor (a TSan claim)
// ---------------------------------------------------------------------------

TEST(ServeStats, SnapshotInvariantsHoldUnderConcurrentReads) {
  // Every counter bump and the stats() copy share BatchSolver's mutex, so a
  // reader can never observe torn cross-counter state.  Hammer stats() from
  // a second thread while jobs stream through the async executor; the
  // invariants below must hold on every single snapshot.  TSan runs this.
  const int kJobs = 32;
  serve::ServeOptions opts;
  opts.with_ranks(2).with_group_ranks(2).with_async(true).with_qr(
      qr3d::QrOptions().with_tune_for_machine().with_backend(qr3d::Backend::Simulated));
  serve::BatchSolver srv(opts);

  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto st = srv.stats();
      ASSERT_LE(st.jobs_completed + st.jobs_failed, st.jobs_submitted);
      ASSERT_LE(st.recovered, st.jobs_completed);
      ASSERT_LE(st.jobs_rejected, st.jobs_failed);
      ASSERT_LE(st.plan_cache_hits + st.plan_cache_misses, st.jobs_submitted);
      ASSERT_EQ(st.drift_samples == 0, st.drift_p50 == 0.0);
    }
  });

  Planted p = planted_problem(32, 8, 321);
  std::vector<serve::JobHandle> handles;
  for (int j = 0; j < kJobs; ++j) handles.push_back(srv.submit(p.A, p.b));
  srv.flush();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  for (auto& h : handles) EXPECT_NO_THROW(h.get());
  const auto st = srv.stats();
  EXPECT_EQ(st.jobs_submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.jobs_completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(st.drift_samples, static_cast<std::uint64_t>(kJobs));
}
