// Per-shape plan cache for the serving layer.
//
// Tuning (delta, epsilon) for a problem shape is a pure function of
// (m, n, P) and the machine's (alpha, beta, gamma) — a 33x33 grid search
// over the closed-form cost model (cost/tuner.hpp).  That is cheap next to
// one factorization but not next to *thousands*: a serving process seeing
// the same shapes over and over should tune each shape exactly once.
//
// PlanCache memoizes the tuner keyed by (m, n, P, layout, backend, machine
// parameters); the machine parameters are part of the key so a re-profiled
// machine (serve::profile_machine) transparently re-tunes instead of serving
// stale plans.  It is shared infrastructure: qr3d::Solver consults one for
// its with_tune_for_machine() path (each Solver owns a private cache unless
// given a shared one), and serve::BatchSolver shares a single cache between
// its driver-side plan resolution and its internal Solver.
//
// Capacity: a long-running service sees an unbounded stream of distinct
// keys (every new shape, group size, or re-profiled machine parameter set
// is one), so memoizing forever is a slow memory leak.  The cache is LRU-
// bounded: every lookup/insert freshens its key, and an insert past
// `capacity()` evicts the least-recently-used plan (counted in
// `evictions()`).  An evicted key simply re-tunes on its next lookup — a
// re-miss, never an error.  The default capacity is generous (kDefault-
// Capacity plans of a few hundred bytes each); 0 means unbounded.
//
// Thread safety: all methods are safe to call concurrently (one mutex); a
// miss runs the tuner inside the lock so concurrent lookups of the same key
// tune exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <tuple>

#include "backend/comm.hpp"
#include "core/api.hpp"
#include "core/dist_matrix.hpp"
#include "cost/tuner.hpp"
#include "la/matrix.hpp"

namespace qr3d::serve {

/// Cache key: problem shape + execution context + machine parameters +
/// accuracy contract (fast and accurate jobs of the same shape resolve to
/// different algorithms, so they must not share a cache line).
struct PlanKey {
  la::index_t m = 0;  ///< problem rows
  la::index_t n = 0;  ///< problem columns
  int P = 0;          ///< ranks of the (sub-)communicator the plan targets
  Dist layout = Dist::CyclicRows;                  ///< input distribution
  backend::Kind backend = backend::Kind::Simulated;  ///< executing backend
  double alpha = 0.0;  ///< machine seconds per message
  double beta = 0.0;   ///< machine seconds per word
  double gamma = 0.0;  ///< machine seconds per flop
  core::Accuracy accuracy = core::Accuracy::Balanced;  ///< accuracy/speed contract

  /// Lexicographic order over every field (std::map key requirement).
  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    auto tie = [](const PlanKey& k) {
      return std::tuple(k.m, k.n, k.P, static_cast<int>(k.layout), static_cast<int>(k.backend),
                        k.alpha, k.beta, k.gamma, static_cast<int>(k.accuracy));
    };
    return tie(a) < tie(b);
  }
};

/// Which algorithm a resolved plan executes.
enum class PlanAlgorithm {
  Householder,  ///< TSQR / 1D / 3D-CAQR-EG via Solver::factor
  CholeskyQr2,  ///< the gemm-dominant fast path (core/cholesky_qr2.hpp)
};

/// A tuned execution plan: the recursion parameters Solver::factor needs,
/// plus the model-predicted costs the tuner chose them by.  For CholeskyQR2
/// plans the recursion parameters are unused; `use_float` selects the mixed-
/// precision first pass and the Householder fields double as the fallback
/// plan when the condition guard trips in-session.
struct Plan {
  double delta = 2.0 / 3.0;  ///< Theorem 1 bandwidth/latency tradeoff
  double epsilon = 1.0;      ///< Theorem 2 base-case tradeoff
  la::index_t b = 0;       ///< recursion threshold (0 = derive from delta)
  la::index_t b_star = 0;  ///< base-case threshold (0 = derive from epsilon)
  cost::Costs predicted;   ///< model costs under the key's machine parameters
  PlanAlgorithm algorithm = PlanAlgorithm::Householder;  ///< dispatch choice
  bool use_float = false;  ///< CholeskyQR2 only: float first pass (fast mode)
  /// CholeskyQR2 only: the condition guard the session enforces
  /// (core::kFastMaxCondition / kBalancedMaxCondition; 0 = no guard).
  double max_condition = 0.0;
};

class PlanCache {
 public:
  /// Default LRU capacity: generous for any realistic shape mix, bounded
  /// for a service that never restarts.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// `capacity` = maximum cached plans before LRU eviction (0 = unbounded).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  /// The cached plan for `key`, tuning (cost::tune_3d under `machine`) on a
  /// miss.  `machine` must carry the same (alpha, beta, gamma) as the key.
  Plan lookup_or_tune(const PlanKey& key, const sim::CostParams& machine);

  /// Generic memoization: the cached plan for `key`, or `compute()` stored
  /// and returned on a miss.  The serving layer uses this to cache *fully
  /// resolved* plans (including pinned-b tall-skinny dispatches and
  /// 1D-epsilon tuning), not just the 3D grid search.
  Plan lookup_or_compute(const PlanKey& key, const std::function<Plan()>& compute);

  /// True if `key` is cached; does not tune and does not touch the counters.
  bool contains(const PlanKey& key) const;

  /// Lookups served from the cache so far.
  std::uint64_t hits() const;
  /// Lookups that had to tune/compute so far.
  std::uint64_t misses() const;
  /// Plans dropped by LRU eviction so far.
  std::uint64_t evictions() const;
  /// Number of cached plans (<= capacity() when bounded).
  std::size_t size() const;
  /// Maximum cached plans before eviction (0 = unbounded).
  std::size_t capacity() const;
  /// Change the capacity; shrinking evicts (and counts) LRU plans at once.
  void set_capacity(std::size_t capacity);
  /// Drop every plan and zero the counters (evictions included).
  void clear();

 private:
  /// Entry: the plan plus its position in the recency list.
  struct Entry {
    Plan plan;
    std::list<PlanKey>::iterator lru;
  };

  /// Move `it`'s key to the most-recent end; requires mu_ held.
  void touch(std::map<PlanKey, Entry>::iterator it);
  /// Evict LRU plans until size() <= capacity_; requires mu_ held.
  void enforce_capacity();

  mutable std::mutex mu_;
  std::map<PlanKey, Entry> plans_;
  std::list<PlanKey> lru_;  ///< front = most recently used
  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The key Solver::factor uses for a problem it is about to factor.
/// `accuracy` defaults to Balanced — the serving layer passes the per-job
/// contract so modes resolve (and cache) independently.
PlanKey make_plan_key(la::index_t m, la::index_t n, int P, Dist layout, backend::Kind backend,
                      const sim::CostParams& machine,
                      core::Accuracy accuracy = core::Accuracy::Balanced);

}  // namespace qr3d::serve
