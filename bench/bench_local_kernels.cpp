// E10 — local-kernel throughput: reference vs blocked (vs BLAS when built
// in) for gemm/trmm/trsm/geqrt/larfb, wall-clock GFLOP/s.
//
// This is the substrate the thread backend's gamma term is made of: the
// paper's communication-avoiding wins only show up off-simulator when these
// run at near-BLAS3 speed (cf. arXiv:0809.2407).  The bench doubles as the
// perf regression gate: `--smoke` exits nonzero unless the blocked gemm
// beats the reference nest by >= 3x at 256^3 and the blocked right-side
// trsm (TSQR's V = W U^{-1}) beats it by >= 2x at 2048 x 64 (CI runs this
// on every push),
// and `--json` emits qr3d-bench/1 records so the GFLOP/s trajectory is
// machine-readable PR over PR.
//
// Usage: bench_local_kernels [--json out.json] [--smoke] [--reps N]
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

namespace b = qr3d::bench;
namespace la = qr3d::la;
namespace backend = qr3d::backend;

namespace {

double seconds_of(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  return best;
}

struct Record {
  const char* kernel;
  const char* variant;
  la::index_t m, n, k;
  double gflops;
  double seconds;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = b::has_flag(argc, argv, "--smoke");
  const char* json_path = b::parse_flag(argc, argv, "--json");
  const int reps = static_cast<int>(b::parse_long_flag(argc, argv, "--reps", 3));
  b::banner("E10", "Local kernels: reference vs blocked vs BLAS (wall clock)");

  std::vector<Record> records;
  auto run = [&](const char* kernel, const char* variant, la::index_t m, la::index_t n,
                 la::index_t k, double flops, const std::function<void()>& fn) {
    const double s = seconds_of(fn, reps);
    records.push_back({kernel, variant, m, n, k, flops / s * 1e-9, s});
  };

  // gemm: C = A*B, square sweeps.  The 256 row is the smoke gate.
  for (la::index_t n : {64, 128, 256, 512}) {
    la::Matrix A = la::random_matrix(n, n, 1);
    la::Matrix B = la::random_matrix(n, n, 2);
    la::Matrix C(n, n);
    const double fl = 2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);
    run("gemm", "reference", n, n, n, fl, [&]() {
      la::gemm_reference(1.0, la::Op::NoTrans, la::ConstMatrixView(A.view()), la::Op::NoTrans,
                         la::ConstMatrixView(B.view()), 0.0, C.view());
    });
    run("gemm", "blocked", n, n, n, fl, [&]() {
      la::detail::gemm_blocked(1.0, la::Op::NoTrans, la::ConstMatrixView(A.view()),
                               la::Op::NoTrans, la::ConstMatrixView(B.view()), 0.0, C.view());
    });
#ifdef QR3D_WITH_BLAS
    run("gemm", "blas", n, n, n, fl, [&]() {
      la::detail::gemm_blas(1.0, la::Op::NoTrans, la::ConstMatrixView(A.view()), la::Op::NoTrans,
                            la::ConstMatrixView(B.view()), 0.0, C.view());
    });
#endif
  }

  // trmm / trsm: n x n triangle applied to an n x n panel.
  {
    const la::index_t n = 256;
    la::Matrix T = la::random_matrix(n, n, 3);
    la::make_triangular(la::Uplo::Upper, T.view());
    for (la::index_t i = 0; i < n; ++i) T(i, i) = 4.0 + static_cast<double>(i) * 0.01;
    la::Matrix B0 = la::random_matrix(n, n, 4);
    const double fl = static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n);
    la::Matrix B = la::copy<double>(B0.view());
    run("trmm", "reference", n, n, n, fl, [&]() {
      la::assign<double>(B.view(), B0.view());
      la::trmm_reference(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
                         la::ConstMatrixView(T.view()), B.view());
    });
    run("trmm", "blocked", n, n, n, fl, [&]() {
      la::assign<double>(B.view(), B0.view());
      la::detail::trmm_blocked(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit,
                               1.0, la::ConstMatrixView(T.view()), B.view());
    });
    run("trsm", "reference", n, n, n, fl, [&]() {
      la::assign<double>(B.view(), B0.view());
      la::trsm_reference(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit, 1.0,
                         la::ConstMatrixView(T.view()), B.view());
    });
    run("trsm", "blocked", n, n, n, fl, [&]() {
      la::assign<double>(B.view(), B0.view());
      la::detail::trsm_blocked(la::Side::Left, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit,
                               1.0, la::ConstMatrixView(T.view()), B.view());
    });
  }

  // TSQR's Householder reconstruction V = W U^{-1} (and CholeskyQR2's
  // Q = A R^{-1}): a right-side upper solve with a narrow triangle.  The
  // smoke gate's second row.
  {
    const la::index_t m = 2048, n = 64;
    la::Matrix U = la::random_matrix(n, n, 7);
    la::make_triangular(la::Uplo::Upper, U.view());
    for (la::index_t i = 0; i < n; ++i) U(i, i) = 4.0 + static_cast<double>(i) * 0.01;
    la::Matrix W0 = la::random_matrix(m, n, 8);
    la::Matrix W = la::copy<double>(W0.view());
    const double fl = static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(m);
    run("trsm_right", "reference", m, n, 0, fl, [&]() {
      la::assign<double>(W.view(), W0.view());
      la::trsm_reference(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans, la::Diag::NonUnit,
                         1.0, la::ConstMatrixView(U.view()), W.view());
    });
    run("trsm_right", "blocked", m, n, 0, fl, [&]() {
      la::assign<double>(W.view(), W0.view());
      la::detail::trsm_blocked(la::Side::Right, la::Uplo::Upper, la::Op::NoTrans,
                               la::Diag::NonUnit, 1.0, la::ConstMatrixView(U.view()), W.view());
    });
  }

  // geqrt + larfb (apply_q): tall panel factorization, the per-rank unit of
  // every distributed algorithm here.  The kernel mode steers the internal
  // gemm/trmm calls, so flip it per measurement.
  {
    const la::index_t m = 1024, n = 128;
    la::Matrix A = la::random_matrix(m, n, 5);
    const double fl = 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(n);
    const la::KernelMode before = la::kernel_mode();
    for (la::KernelMode mode : {la::KernelMode::Reference, la::KernelMode::Blocked}) {
      la::set_kernel_mode(mode);
      run("geqrt", la::kernel_mode_name(mode), m, n, 0, fl, [&]() {
        la::Matrix F = la::copy<double>(A.view());
        la::Matrix T(n, n);
        la::geqrt(F.view(), T.view());
      });
    }
    la::set_kernel_mode(la::KernelMode::Blocked);
    la::QrFactors f = la::qr_factor<double>(A.view());
    la::Matrix C0 = la::random_matrix(m, n, 6);
    for (la::KernelMode mode : {la::KernelMode::Reference, la::KernelMode::Blocked}) {
      la::set_kernel_mode(mode);
      run("larfb", la::kernel_mode_name(mode), m, n, 0, 2.0 * fl, [&]() {
        la::Matrix C = la::copy<double>(C0.view());
        la::apply_q<double>(f.V.view(), f.T_.view(), la::Op::ConjTrans, C.view());
      });
    }
    la::set_kernel_mode(before);
  }

  b::Table t({"kernel", "variant", "m", "n", "k", "GFLOP/s", "time"});
  for (const auto& r : records)
    t.row({r.kernel, r.variant, std::to_string(r.m), std::to_string(r.n), std::to_string(r.k),
           b::num(r.gflops), b::secs(r.seconds)});
  t.print();

  // The smoke gate: blocked gemm >= 3x reference at 256^3, and blocked
  // right-side trsm >= 2x reference at 2048 x 64.
  auto blocked_speedup = [&](const char* kernel, la::index_t m) {
    double ref = 0.0, blk = 0.0;
    for (const auto& r : records) {
      if (std::string(r.kernel) != kernel || r.m != m) continue;
      if (std::string(r.variant) == "reference") ref = r.gflops;
      if (std::string(r.variant) == "blocked") blk = r.gflops;
    }
    return ref > 0.0 ? blk / ref : 0.0;
  };
  const double speedup = blocked_speedup("gemm", 256);
  const double trsm_speedup = blocked_speedup("trsm_right", 2048);
  std::printf("blocked gemm speedup at 256^3: %.2fx (gate: >= 3x)\n", speedup);
  std::printf("blocked right-side trsm speedup at 2048x64: %.2fx (gate: >= 2x)\n", trsm_speedup);

  if (json_path) {
    b::JsonWriter json;
    b::begin_bench_json(json, "local_kernels", "local");
    json.key("reps").value(reps);
    json.key("gemm256_blocked_speedup").value(speedup);
    json.key("trsm_right_2048x64_blocked_speedup").value(trsm_speedup);
    json.key("rows").begin_array();
    for (const auto& r : records) {
      json.begin_object();
      json.key("kernel").value(r.kernel);
      json.key("variant").value(r.variant);
      json.key("m").value(static_cast<long>(r.m));
      json.key("n").value(static_cast<long>(r.n));
      json.key("k").value(static_cast<long>(r.k));
      json.key("gflops").value(r.gflops);
      json.key("seconds").value(r.seconds);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!json.write_file(json_path)) return 3;
    std::printf("wrote %s\n", json_path);
  }

  if (smoke && speedup < 3.0) {
    std::fprintf(stderr, "SMOKE FAIL: blocked gemm %.2fx reference at 256^3 (need >= 3x)\n",
                 speedup);
    return 1;
  }
  if (smoke && trsm_speedup < 2.0) {
    std::fprintf(stderr,
                 "SMOKE FAIL: blocked right-side trsm %.2fx reference at 2048x64 (need >= 2x)\n",
                 trsm_speedup);
    return 1;
  }
  return 0;
}
