// qr3d::Solver — the object-level public API over 3D-CAQR-EG.
//
//   QrOptions opts = qr3d::QrOptions().with_delta(0.6).with_tune_for_machine();
//   qr3d::Solver solver(opts);
//   qr3d::Factorization f = solver.factor(A);      // A: DistMatrix, collective
//   DistMatrix y = f.apply_q(B, la::Op::ConjTrans);
//   la::Matrix x = f.solve_least_squares(b);       // min ||Ax - b||, replicated
//
// QrOptions is a validated builder: parameter ranges (Theorem 1's
// delta in [1/2, 2/3], Theorem 2's epsilon in [0, 1]) and layout/shape
// compatibility are checked with QR3D_CHECK at this API boundary, so misuse
// surfaces as std::invalid_argument here instead of deep inside the
// recursion.  The Solver caches machine-tuned (delta, epsilon) per problem
// shape, and each Factorization lazily caches the Section 2.3 rebuilt kernel.
#pragma once

#include <memory>

#include "backend/machine.hpp"
#include "core/api.hpp"
#include "core/dist_matrix.hpp"
#include "la/blas.hpp"

namespace qr3d {

namespace serve {
struct Plan;
class PlanCache;
}  // namespace serve

/// Algorithm choice (Auto / CaqrEg3d / BaseCase) — the same dispatch the
/// low-level core::qr driver takes, re-exported at the facade.
using Algorithm = core::Algorithm;

/// Execution backend selector (Simulated / Thread), re-exported at the
/// facade.  See make_machine() below.
using Backend = backend::Kind;

/// Per-job accuracy/speed contract (fast | balanced | accurate), re-exported
/// at the facade.  Consulted by the serving layer's plan resolution (and
/// overridable per job via serve::SubmitOptions::with_accuracy).
using Accuracy = core::Accuracy;

/// Validated options builder.  Setters check ranges immediately and return
/// *this for chaining; problem-dependent checks run in Solver::factor.
class QrOptions {
 public:
  QrOptions() = default;

  /// Algorithm dispatch (default Auto: the Section 1 aspect-ratio rule).
  QrOptions& with_algorithm(Algorithm a) {
    algorithm_ = a;
    return *this;
  }
  /// Theorem 1 bandwidth/latency tradeoff; the analyzed range is [1/2, 2/3].
  QrOptions& with_delta(double d);
  /// Theorem 2 tradeoff for the base case; the analyzed range is [0, 1].
  QrOptions& with_epsilon(double e);
  /// Recursion threshold override; 0 derives b from delta (Eq. 12).
  QrOptions& with_block_size(la::index_t b);
  /// Base-case threshold override; 0 derives b* from epsilon (Eq. 12).
  QrOptions& with_base_block_size(la::index_t b_star);
  /// Pick (delta, epsilon) for the machine's (alpha, beta, gamma) instead of
  /// the Theorem 1 defaults.  The Solver caches the tuning per shape.
  QrOptions& with_tune_for_machine(bool on = true) {
    tune_for_machine_ = on;
    return *this;
  }
  /// Execution backend for machines built via qr3d::make_machine(opts, ...).
  /// The Solver itself is backend-agnostic — it factors on whatever
  /// communicator the DistMatrix lives on.
  QrOptions& with_backend(Backend b) {
    backend_ = b;
    return *this;
  }
  /// Accuracy/speed contract (default Balanced).  Solver::factor itself
  /// always returns the backward-stable Householder factorization; the
  /// contract steers the *serving layer's* per-shape dispatch between
  /// CholeskyQR2 (fast/balanced, condition-guarded, TSQR fallback) and the
  /// Householder path (accurate) — see docs/TUNING.md.
  QrOptions& with_accuracy(Accuracy a) {
    accuracy_ = a;
    return *this;
  }

  Algorithm algorithm() const { return algorithm_; }          ///< dispatch choice
  double delta() const { return delta_; }                     ///< Theorem 1 tradeoff
  double epsilon() const { return epsilon_; }                 ///< Theorem 2 tradeoff
  la::index_t block_size() const { return b_; }               ///< pinned b (0 = derive)
  la::index_t base_block_size() const { return b_star_; }     ///< pinned b* (0 = derive)
  bool tune_for_machine() const { return tune_for_machine_; } ///< machine tuning on?
  Backend backend() const { return backend_; }                ///< machine factory kind
  Accuracy accuracy() const { return accuracy_; }             ///< accuracy/speed contract

  /// Problem-dependent validation: shape (m >= n >= 1, P >= 1) and threshold
  /// ordering (b <= n, b* <= n, b* <= b when both are pinned).  Called by
  /// Solver::factor; throws std::invalid_argument.
  void validate(la::index_t m, la::index_t n, int P) const;

 private:
  Algorithm algorithm_ = Algorithm::Auto;
  double delta_ = 2.0 / 3.0;
  double epsilon_ = 1.0;
  la::index_t b_ = 0;
  la::index_t b_star_ = 0;
  bool tune_for_machine_ = false;
  Backend backend_ = Backend::Simulated;
  Accuracy accuracy_ = Accuracy::Balanced;
};

/// Handle to a computed factorization A = Q [R; 0] with Q = I - V T V^H in
/// Householder representation.  V is distributed like A (CyclicRows); T and
/// R like A's top n rows.  All collective methods must be called by every
/// rank of the factoring communicator.  Like DistMatrix, a Factorization
/// references the rank's Comm and must not outlive the Machine::run body it
/// was created in (gather what you need before the body returns).
class Factorization {
 public:
  la::index_t rows() const { return m_; }            ///< m of the factored matrix
  la::index_t cols() const { return n_; }            ///< n of the factored matrix
  backend::Comm& comm() const { return v_.comm(); }  ///< the factoring communicator

  /// The m x n Householder basis (unit lower trapezoidal), row-cyclic.
  const DistMatrix& v() const { return v_; }
  /// The n x n kernel T, row-cyclic.
  const DistMatrix& t() const { return t_; }
  /// The n x n upper-triangular R factor, row-cyclic.
  const DistMatrix& r() const { return r_; }

  /// Q * X (NoTrans) or Q^H * X (ConjTrans) with Lemma 3's 1D products
  /// (core::apply_q_cyclic): local gemms against this rank's rows of V and T
  /// plus two n x k all-reduces, so the m x n basis never moves.  Lemma 4's
  /// 3D product would move fewer words only once k nears n at large P.
  /// Collective; X must be m x k CyclicRows on the same communicator
  /// (BlockRows inputs are redistributed first).
  DistMatrix apply_q(const DistMatrix& X, la::Op op = la::Op::NoTrans) const;

  /// First n columns of Q, materialized as an m x n CyclicRows matrix.
  /// Collective.
  DistMatrix explicit_q() const;

  /// Section 2.3: rebuild T = (triu(V^H V) + diag(V^H V)/2)^{-1} from the
  /// distributed basis (the variant that never stores T).  Collective; the
  /// result is computed once and cached.
  const DistMatrix& rebuild_kernel() const;

  /// First-class least-squares driver: solve min_x ||A x - B||_F column-wise
  /// for an overdetermined A (m >= n).  B is m x k on the same communicator.
  /// Collective; returns the n x k solution replicated on every rank.
  la::Matrix solve_least_squares(const DistMatrix& B) const;

 private:
  friend class Solver;
  Factorization(la::index_t m, la::index_t n, DistMatrix v, DistMatrix t, DistMatrix r)
      : m_(m), n_(n), v_(std::move(v)), t_(std::move(t)), r_(std::move(r)) {}

  la::index_t m_ = 0;
  la::index_t n_ = 0;
  DistMatrix v_, t_, r_;
  /// Lazily cached Section 2.3 rebuilt kernel (shared so the handle stays
  /// copyable while the cache is filled at most once per factorization).
  std::shared_ptr<DistMatrix> rebuilt_t_ = std::make_shared<DistMatrix>();
};

/// Factory for Factorizations.  Holds validated options and memoizes
/// machine-tuned parameters across factor() calls with the same shape in a
/// serve::PlanCache — private by default, or shared (second constructor
/// argument) so a serving layer and its Solver see one cache with one set of
/// hit/miss counters.  A Solver may be shared by all ranks of a machine (the
/// cache is mutex-guarded and tuning is a pure model computation charging no
/// simulated cost), or constructed per rank — both are safe.
class Solver {
 public:
  explicit Solver(QrOptions opts = {}, std::shared_ptr<serve::PlanCache> cache = nullptr);

  /// The validated options this Solver factors with.
  const QrOptions& options() const { return opts_; }

  /// The per-shape tuning cache (never null).  Hit/miss counters on it
  /// reflect every with_tune_for_machine() factor() through this Solver.
  const std::shared_ptr<serve::PlanCache>& plan_cache() const { return cache_; }

  /// Factor A (collective).  A must be CyclicRows (BlockRows inputs are
  /// redistributed first); options are validated against (m, n, P) here.
  Factorization factor(const DistMatrix& A) const;

  /// Factor A with a pre-resolved execution plan (collective).  Skips the
  /// tuner entirely — the serving layer resolves plans driver-side through
  /// the shared cache and pins them here, so repeated shapes never re-tune.
  Factorization factor(const DistMatrix& A, const serve::Plan& plan) const;

  /// One-shot overload with per-call options.
  Factorization factor(const DistMatrix& A, const QrOptions& opts) const {
    return Solver(opts).factor(A);
  }

 private:
  Factorization factor_resolved(const DistMatrix& A, const core::CaqrEg3dOptions& params) const;

  QrOptions opts_;
  std::shared_ptr<serve::PlanCache> cache_;
};

/// Machine-agnostic entry point: build the execution backend selected by
/// `opts.backend()` — the cost-model simulator or the real threaded machine.
/// Every algorithm (and the whole Solver API) runs unchanged on either:
///
///   auto machine = qr3d::make_machine(QrOptions().with_backend(Backend::Thread), P);
///   machine->run([&](qr3d::backend::Comm& c) { ... Solver().factor(A) ... });
///
/// `params` drives cost accounting on the simulator; on the thread backend it
/// still steers Alg::Auto collective selection and machine tuning, so both
/// backends make identical algorithmic choices (a prerequisite for the
/// conformance suite's bitwise comparisons).
std::unique_ptr<backend::Machine> make_machine(const QrOptions& opts, int P,
                                               sim::CostParams params = {});

/// Convenience free functions over a default Solver.
Factorization factor(const DistMatrix& A, const QrOptions& opts = {});

/// min_x ||A x - B||_F in one call: factor + apply Q^H + triangular solve.
/// Returns the n x k solution replicated on every rank.  Collective.
la::Matrix solve_least_squares(const DistMatrix& A, const DistMatrix& B,
                               const QrOptions& opts = {});

}  // namespace qr3d
