// Simulated distributed-memory machine: P processors with private memories
// exchanging asynchronous point-to-point messages (the model of Section 3).
//
// Each simulated processor runs as one OS thread executing the same SPMD
// body, mirroring MPI semantics: matched send/recv on (source, communicator,
// tag) with FIFO ordering per triple.  It stands in for an MPI cluster
// because the paper's claims are statements about the alpha-beta-gamma cost
// model, which this machine implements exactly and instruments (see
// sim/clock.hpp); README.md ("The oracle-testing pattern") explains how it
// also serves as the oracle for the real thread backend.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "backend/machine.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"

namespace qr3d::sim {

class SimComm;

namespace detail {

struct Envelope {
  int src_global = -1;
  std::uint64_t context = 0;
  int tag = 0;
  std::vector<double> payload;
  CostClock clock;
};

class Mailbox {
 public:
  void push(Envelope e);
  /// Block until a message from (src, context, tag) arrives, then return the
  /// first such message (FIFO per key).  Throws if the machine aborts, or
  /// fault::RankDeath once `src_dead` reports the sender killed and no
  /// already-delivered message matches (messages sent before the death are
  /// still received in order — death is detected, not retroactive).
  Envelope pop_match(int src_global, std::uint64_t context, int tag,
                     const std::function<bool()>& aborted,
                     const std::function<bool()>& src_dead);
  void notify_abort();
  void clear();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Envelope> q_;
};

/// Shared per-communicator state used to coordinate split() without
/// messages (communicator construction is bookkeeping, not communication).
struct GroupShared {
  std::uint64_t context = 0;
  std::vector<int> members;  // global ranks, indexed by local rank

  // split() coordination.
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int picked_up = 0;
  bool ready = false;
  std::vector<int> colors, keys;  // indexed by local rank
  // Result per local rank: the new group and the local rank within it.
  std::vector<std::shared_ptr<GroupShared>> out_group;
  std::vector<int> out_rank;
};

}  // namespace detail

/// The simulated machine.  Construct with the processor count and cost
/// parameters, then call run() with an SPMD body; afterwards query the
/// measured critical-path costs.
class Machine : public backend::Machine {
 public:
  explicit Machine(int P, CostParams params = {});

  backend::Kind kind() const override { return backend::Kind::Simulated; }
  int size() const override { return P_; }
  const CostParams& params() const override { return params_; }

  /// Execute `body` on all P simulated processors (one thread each) and wait
  /// for completion.  Cost clocks and mailboxes are reset first.  If any rank
  /// throws, all ranks are aborted and the lowest-ranked exception rethrown.
  void run(const std::function<void(backend::Comm&)>& body) override;

  /// Wall-clock seconds of the last run() — the *host's* time running the
  /// simulation, unrelated to the simulated clocks below.
  double last_wall_seconds() const override { return wall_seconds_; }

  /// Critical-path costs of the last run: per-metric maxima over processors.
  CostClock critical_path() const;

  /// Clock of an individual rank after the last run.
  const CostClock& rank_clock(int p) const;

  /// Aggregate volume counters of the last run (summed over processors).
  CostTotals totals() const;

  /// Machine::request_abort — interrupt the run in flight, if any: sets the
  /// abort flag every blocked mailbox wait (and every injected stall) polls
  /// and wakes all receivers, so the run unwinds with the abort error and
  /// the machine stays reusable.  Returns false while idle (the request is
  /// dropped, matching ThreadMachine's contract).
  bool request_abort() override;

  /// Deterministic fault injection (see fault/plan.hpp): the simulator is
  /// the oracle the thread backend's fault behavior conforms to.
  void set_fault_plan(fault::Plan plan) override { injector_.install(std::move(plan), P_); }
  std::vector<int> last_run_deaths() const override { return injector_.deaths(); }
  std::vector<int> last_run_stalls() const override { return injector_.stalls(); }

  /// Virtual-clock session deadline (`seconds` of simulated time per run; 0
  /// clears): a rank whose cost clock crosses it throws
  /// health::SessionTimeout, and an injected Stall advances the stalling
  /// rank's clock to EXACTLY the deadline and throws — no wall time passes,
  /// and the firing point is a deterministic function of the cost model, so
  /// tests pin it bitwise (the simulator is the fail-slow oracle).  Enforced
  /// by this backend: returns true.
  bool set_session_deadline(double seconds) override {
    session_deadline_ = seconds;
    return true;
  }
  bool last_run_timed_out() const override {
    return timed_out_.load(std::memory_order_acquire);
  }

  /// Event tracing on the *predicted* clock: every send/recv/flop charge
  /// emits a TraceEvent whose t0/t1 are the rank's cost-model time before
  /// and after the charge, offset by the accumulated critical path of
  /// earlier runs so a multi-session trace stays monotonic.  The sim trace
  /// is the expected timeline (oracle) the thread backend's wall-clock
  /// trace is compared against.
  void set_trace_sink(std::shared_ptr<obs::TraceSink> sink) override {
    trace_ = std::move(sink);
  }

 private:
  friend class SimComm;

  std::uint64_t new_context() { return next_context_++; }
  bool aborted() const { return aborted_; }
  /// Deadline check at every cost-charge point (called on the rank's own
  /// thread after its clock advanced): past the deadline, record the timeout
  /// and throw health::SessionTimeout.
  void check_deadline(const CostClock& clock, int rank);

  int P_;
  CostParams params_;
  std::vector<detail::Mailbox> mailboxes_;
  std::vector<CostClock> clocks_;
  std::vector<CostTotals> totals_;
  std::atomic<std::uint64_t> next_context_{1};
  std::atomic<bool> aborted_{false};
  // Serializes request_abort() against run()'s reset/spawn and join windows:
  // an abort request while idle must be dropped, never leak into (or be
  // erased by) the next run's reset.
  std::mutex run_mu_;
  bool run_active_ = false;
  fault::Injector injector_;
  /// Session deadline in simulated seconds (0 = off).  Written driver-side
  /// while idle; read by worker threads (ordered by spawn/join).
  double session_deadline_ = 0.0;
  /// Set (release) by the rank that crossed the deadline; reset per run.
  std::atomic<bool> timed_out_{false};
  double wall_seconds_ = 0.0;
  std::shared_ptr<obs::TraceSink> trace_;
  // Sum of earlier runs' critical-path times: the trace-time offset that
  // keeps consecutive sessions' predicted timelines monotonic.
  double trace_base_ = 0.0;
};

}  // namespace qr3d::sim
