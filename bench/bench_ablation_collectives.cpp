// E8 — Ablations of the collective-algorithm choices the paper's analysis
// rests on:
//
// (a) bidirectional exchange vs binomial tree for broadcast/reduce across
//     block sizes (Appendix A.2's large-block saving);
// (b) two-phase vs single-phase index all-to-all under block-size skew
//     ([HBJ96]'s load balancing, the Section 8.4 discussion);
// (c) 1D-CAQR-EG with its inductive-case collectives forced binomial — the
//     bandwidth saving of Theorem 2 disappears, demonstrating that the
//     bidirectional-exchange reduce/broadcast is exactly where the win lives.
#include "bench_util.hpp"

namespace b = qr3d::bench;
namespace coll = qr3d::coll;
namespace core = qr3d::core;
namespace la = qr3d::la;
namespace backend = qr3d::backend;
namespace sim = qr3d::sim;
using coll::Alg;

int main() {
  b::banner("E8", "Ablations: collective algorithm choices");

  std::printf("(a) broadcast: binomial vs bidirectional exchange (P = 64)\n");
  {
    b::Table t({"B", "binomial words", "bidir words", "binomial msgs", "bidir msgs",
                "auto picked"});
    for (std::size_t B : {std::size_t{4}, std::size_t{64}, std::size_t{1024}, std::size_t{16384}}) {
      auto run = [&](Alg alg) {
        return b::measure(64, [&](backend::Comm& c) {
          std::vector<double> data(B, 1.0);
          coll::broadcast(c, 0, data, alg);
        });
      };
      const auto bin = run(Alg::Binomial);
      const auto bid = run(Alg::BidirExchange);
      const auto aut = run(Alg::Auto);
      // Auto follows the Table 1 envelope: binomial for small blocks (fewer
      // messages, words within a constant), bidirectional once B log P
      // dominates B + P.
      const char* picked = (aut.msgs == bin.msgs && aut.words == bin.words) ? "binomial"
                           : (aut.msgs == bid.msgs && aut.words == bid.words) ? "bidirectional"
                                                                              : "?";
      t.row({std::to_string(B), b::num(bin.words), b::num(bid.words), b::num(bin.msgs),
             b::num(bid.msgs), picked});
    }
    t.print();
  }

  std::printf("(b) all-to-all under skew: one P*B block vs uniform (P = 16)\n");
  {
    b::Table t({"pattern", "index words", "two-phase words", "index msgs", "two-phase msgs"});
    auto run = [&](Alg alg, bool skewed) {
      const std::size_t big = 8192;
      return b::measure(16, [&](backend::Comm& c) {
        std::vector<std::vector<double>> out(c.size());
        if (skewed) {
          if (c.rank() == 0) out[c.size() - 1].assign(big, 1.0);
        } else {
          for (auto& blk : out) blk.assign(big / 16, 1.0);
        }
        coll::all_to_all(c, std::move(out), alg);
      });
    };
    for (bool skewed : {false, true}) {
      const auto idx = run(Alg::Index, skewed);
      const auto two = run(Alg::TwoPhase, skewed);
      t.row({skewed ? "skewed (one big block)" : "uniform", b::num(idx.words), b::num(two.words),
             b::num(idx.msgs), b::num(two.msgs)});
    }
    t.print();
  }

  std::printf("(c) 1D-CAQR-EG with forced-binomial inductive collectives (P = 64)\n");
  {
    const la::index_t n = 64;
    const int P = 64;
    const la::index_t m = static_cast<la::index_t>(P) * n;
    la::Matrix A = la::random_matrix(m, n, 888);
    b::Table t({"collectives", "words(meas)", "words/n^2", "msgs(meas)"});
    for (bool forced : {false, true}) {
      core::CaqrEg1dOptions opts;
      opts.epsilon = 1.0;
      if (forced) {
        opts.reduce_alg = Alg::Binomial;
        opts.bcast_alg = Alg::Binomial;
      }
      const auto cp = b::measure(P, [&](backend::Comm& c) {
        la::Matrix Al = b::block_local(c, A);
        core::caqr_eg_1d(c, la::ConstMatrixView(Al.view()), opts);
      });
      t.row({forced ? "binomial (ablated)" : "auto (bidirectional)", b::num(cp.words),
             b::num(cp.words / (static_cast<double>(n) * n)), b::num(cp.msgs)});
    }
    t.print();
    std::printf("expected: ablated words/n^2 reverts toward the TSQR-like log P factor.\n");
  }
  return 0;
}
