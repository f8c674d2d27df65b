#include "core/caqr_eg_3d.hpp"

#include <algorithm>

#include "core/caqr_eg_1d.hpp"
#include "core/params.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/packing.hpp"
#include "mm/layout.hpp"
#include "mm/mm_3d.hpp"
#include "mm/redistribute.hpp"

namespace qr3d::core {

using la::index_t;

namespace detail {

BaseConversionPlan BaseConversionPlan::make(index_t m, index_t n, int P) {
  QR3D_CHECK(m >= n && n >= 1 && P >= 1, "BaseConversionPlan: need m >= n >= 1");
  BaseConversionPlan plan;
  plan.P = P;
  plan.Pprime = static_cast<int>(std::min<index_t>(m, P));

  // P* = min(P, floor(m/n)), decremented until every group holds >= n rows.
  // (The paper asserts floor(m/P*) >= n rows per representative, but the
  // processor dealing can leave a group short by rounding; shrinking P*
  // restores the invariant and changes the costs by at most a constant.)
  for (plan.Pstar = static_cast<int>(std::max<index_t>(1, std::min<index_t>(P, m / n)));;
       --plan.Pstar) {
    plan.group_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
    for (index_t r = 0; r < m; ++r) {
      const int q = static_cast<int>(r % P);
      plan.group_rows[static_cast<std::size_t>(q % plan.Pstar)].push_back(r);
    }
    index_t min_rows = m;
    for (const auto& g : plan.group_rows) min_rows = std::min<index_t>(min_rows, g.size());
    if (min_rows >= n || plan.Pstar == 1) break;
  }
  QR3D_ASSERT(static_cast<index_t>(plan.group_rows[0].size()) >= n,
              "BaseConversionPlan: representative 0 short of rows");
  plan.Pdd = static_cast<int>(std::min<index_t>(plan.Pstar, n));

  // Phase 2: top rows (r < n) move to rep 0; rep 0 hands back an equal
  // number of its rows >= n, lowest-index first, round-robin by rep.
  plan.top_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
  plan.given_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
  for (int g = 1; g < plan.Pstar; ++g)
    for (index_t r : plan.group_rows[static_cast<std::size_t>(g)])
      if (r < n) plan.top_rows[static_cast<std::size_t>(g)].push_back(r);

  std::vector<index_t> candidates;  // rep 0's rows >= n, ascending
  for (index_t r : plan.group_rows[0])
    if (r >= n) candidates.push_back(r);
  std::size_t next = 0;
  for (int g = 1; g < plan.Pstar; ++g) {
    for (std::size_t k = 0; k < plan.top_rows[static_cast<std::size_t>(g)].size(); ++k) {
      QR3D_ASSERT(next < candidates.size(), "BaseConversionPlan: rep 0 cannot rebalance");
      plan.given_rows[static_cast<std::size_t>(g)].push_back(candidates[next++]);
    }
  }

  plan.final_rows.assign(static_cast<std::size_t>(plan.Pstar), {});
  for (index_t r = 0; r < n; ++r) plan.final_rows[0].push_back(r);
  for (std::size_t k = next; k < candidates.size(); ++k) plan.final_rows[0].push_back(candidates[k]);
  for (int g = 1; g < plan.Pstar; ++g) {
    auto& fr = plan.final_rows[static_cast<std::size_t>(g)];
    for (index_t r : plan.group_rows[static_cast<std::size_t>(g)])
      if (r >= n) fr.push_back(r);
    for (index_t r : plan.given_rows[static_cast<std::size_t>(g)]) fr.push_back(r);
    std::sort(fr.begin(), fr.end());
    QR3D_ASSERT(static_cast<index_t>(fr.size()) >= n, "BaseConversionPlan: rep short of rows");
  }
  return plan;
}

}  // namespace detail

namespace {

/// Dense position map of an ordered row list: pos[r] is r's index in `rows`,
/// or -1 when row r is not in it.
std::vector<index_t> positions(const std::vector<index_t>& rows, index_t m) {
  std::vector<index_t> pos(static_cast<std::size_t>(m), -1);
  for (std::size_t k = 0; k < rows.size(); ++k)
    pos[static_cast<std::size_t>(rows[k])] = static_cast<index_t>(k);
  return pos;
}

/// The rows `wanted` of `src`, whose row r sits at src row pos[r], as the
/// column-major words la::to_vector gives.
std::vector<double> pick_rows(la::ConstMatrixView src, const std::vector<index_t>& pos,
                              const std::vector<index_t>& wanted) {
  std::vector<double> out(wanted.size() * static_cast<std::size_t>(src.cols()));
  double* dst = out.data();
  for (index_t j = 0; j < src.cols(); ++j)
    for (index_t r : wanted) *dst++ = src(pos[static_cast<std::size_t>(r)], j);
  return out;
}

/// Inverse of pick_rows: row k of the column-major |rows| x dst.cols() block
/// `words` goes to dst row pos[rows[k]].
void put_rows(la::MatrixView dst, const std::vector<index_t>& pos, const std::vector<index_t>& rows,
              const std::vector<double>& words) {
  QR3D_ASSERT(words.size() == rows.size() * static_cast<std::size_t>(dst.cols()),
              "base_case: misrouted rows");
  const double* src = words.data();
  for (index_t j = 0; j < dst.cols(); ++j)
    for (index_t r : rows) dst(pos[static_cast<std::size_t>(r)], j) = *src++;
}

/// Scatter an n x cols matrix from rcomm rank 0 into CyclicRows(n, cols, P, 0)
/// local blocks.
la::Matrix scatter_cyclic(backend::Comm& rcomm, const la::Matrix& full_on_root, index_t n,
                          index_t cols) {
  const int P = rcomm.size();
  mm::CyclicRows layout(n, cols, P, 0);
  std::vector<std::size_t> counts(static_cast<std::size_t>(P));
  for (int q = 0; q < P; ++q)
    counts[static_cast<std::size_t>(q)] = static_cast<std::size_t>(layout.local_count(q));
  std::vector<std::vector<double>> blocks;
  if (rcomm.rank() == 0) {
    blocks.resize(static_cast<std::size_t>(P));
    for (int q = 0; q < P; ++q) {
      auto& b = blocks[static_cast<std::size_t>(q)];
      b.reserve(counts[static_cast<std::size_t>(q)]);
      for (index_t j = 0; j < cols; ++j)
        for (index_t li = 0; li < layout.local_rows(q); ++li)
          b.push_back(full_on_root(layout.global_row(q, li), j));
    }
  }
  auto mine = coll::scatter(rcomm, 0, blocks, counts);
  return la::from_vector(layout.local_rows(rcomm.rank()), cols, mine);
}

/// Base case (Section 7.1): layout conversion + 1D-CAQR-EG + reversal.  The
/// conversion only moves rows: which rows go where, and in what order, is
/// BaseConversionPlan's, and every copy streams columns.
CyclicQr base_case(backend::Comm& comm, la::ConstMatrixView A_local, index_t m, index_t n, int shift,
                   index_t bstar) {
  const int P = comm.size();
  // Normalize the shift away: renumber ranks so the owner of row 0 becomes
  // relative rank 0; all layout math below is in relative ranks (r mod P).
  const int rr = ((comm.rank() - shift) % P + P) % P;
  backend::Comm rcomm = comm.split(0, rr);
  QR3D_ASSERT(rcomm.rank() == rr, "base_case: rank renumbering failed");

  const auto plan = detail::BaseConversionPlan::make(m, n, P);
  const mm::CyclicRows cyc(m, n, P, 0);  // layout w.r.t. relative ranks

  // --- Phase 1: gather rows within each group to its representative. -------
  // Member i of group g is relative rank g + i P*, and its local row l is
  // global row g + i P* + l P.  Every P consecutive rows hold one row of each
  // member, in member order, so that row sits at l G + i of the group's
  // ascending list (G = group size).  A one-member group (G = 1, every group
  // when P* = P) already holds its rows in that order and moves nothing.
  const bool owns_rows = rr < plan.Pprime;
  const int g = owns_rows ? rr % plan.Pstar : -1;
  backend::Comm gcomm = rcomm.split(g, rr);
  const bool is_rep = owns_rows && rr == g;
  const int G = owns_rows ? gcomm.size() : 0;
  std::vector<std::size_t> member_counts(static_cast<std::size_t>(G));
  for (int i = 0; i < G; ++i)
    member_counts[static_cast<std::size_t>(i)] =
        static_cast<std::size_t>(cyc.local_count(g + i * plan.Pstar));

  la::Matrix gathered_rows;
  la::ConstMatrixView grouped = A_local;  // rep's rows, ordered by plan.group_rows[g]
  if (G > 1) {
    auto blocks = coll::gather(gcomm, 0, la::to_vector(A_local), member_counts);
    if (is_rep) {
      const auto& rows_g = plan.group_rows[static_cast<std::size_t>(g)];
      gathered_rows = la::Matrix(static_cast<index_t>(rows_g.size()), n);
      for (int i = 0; i < G; ++i) {
        const double* b = blocks[static_cast<std::size_t>(i)].data();
        const index_t nloc = cyc.local_rows(g + i * plan.Pstar);
        for (index_t j = 0; j < n; ++j)
          for (index_t l = 0; l < nloc; ++l) gathered_rows(l * G + i, j) = *b++;
      }
      grouped = gathered_rows.view();
    }
  }

  // --- Phase 2: move the top n rows to rep 0, rebalancing with a scatter. --
  // When P* = P this exchange is the whole conversion: rep g > 0 swaps its
  // rows below n for as many of rep 0's rows.
  backend::Comm repcomm = rcomm.split(is_rep ? 0 : -1, rr);
  std::vector<std::size_t> top_counts(static_cast<std::size_t>(plan.Pstar));
  std::vector<std::size_t> given_counts(static_cast<std::size_t>(plan.Pstar));
  for (int h = 0; h < plan.Pstar; ++h) {
    top_counts[static_cast<std::size_t>(h)] =
        plan.top_rows[static_cast<std::size_t>(h)].size() * static_cast<std::size_t>(n);
    given_counts[static_cast<std::size_t>(h)] =
        plan.given_rows[static_cast<std::size_t>(h)].size() * static_cast<std::size_t>(n);
  }

  std::vector<index_t> group_pos, final_pos;  // positions() of group_rows[g], final_rows[g]
  std::vector<index_t> kept;  // kept[k]: final position of group row k, -1 if it moves
  la::Matrix converted;       // rows ordered by plan.final_rows[g]
  if (is_rep) {
    const auto& rows_g = plan.group_rows[static_cast<std::size_t>(g)];
    const auto& fin = plan.final_rows[static_cast<std::size_t>(g)];
    group_pos = positions(rows_g, m);
    final_pos = positions(fin, m);
    auto gathered = coll::gather(
        repcomm, 0, pick_rows(grouped, group_pos, plan.top_rows[static_cast<std::size_t>(g)]),
        top_counts);

    std::vector<std::vector<double>> give_blocks;
    if (g == 0) {
      give_blocks.resize(static_cast<std::size_t>(plan.Pstar));
      for (int h = 1; h < plan.Pstar; ++h)
        give_blocks[static_cast<std::size_t>(h)] =
            pick_rows(grouped, group_pos, plan.given_rows[static_cast<std::size_t>(h)]);
    }
    auto received = coll::scatter(repcomm, 0, give_blocks, top_counts);

    // Kept rows, plus (rep 0) all gathered top rows or (rep > 0) the
    // rebalancing rows.
    kept.resize(rows_g.size());
    for (std::size_t k = 0; k < rows_g.size(); ++k)
      kept[k] = final_pos[static_cast<std::size_t>(rows_g[k])];
    converted = la::Matrix(static_cast<index_t>(fin.size()), n);
    for (index_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < kept.size(); ++k)
        if (kept[k] >= 0) converted(kept[k], j) = grouped(static_cast<index_t>(k), j);
    if (g == 0) {
      for (int h = 1; h < plan.Pstar; ++h)
        put_rows(converted.view(), final_pos, plan.top_rows[static_cast<std::size_t>(h)],
                 gathered[static_cast<std::size_t>(h)]);
    } else {
      put_rows(converted.view(), final_pos, plan.given_rows[static_cast<std::size_t>(g)], received);
    }
  }

  // --- Inner 1D-CAQR-EG over the representatives. ---------------------------
  DistributedQr r1d;
  if (is_rep) {
    CaqrEg1dOptions inner;
    inner.b = bstar;
    r1d = caqr_eg_1d(repcomm, converted.view(), inner);
  }

  // --- Reverse phase 2 for V. ----------------------------------------------
  la::Matrix v_grouped;  // V rows ordered by plan.group_rows[g]
  if (is_rep) {
    std::vector<std::vector<double>> back_blocks;
    if (g == 0) {
      back_blocks.resize(static_cast<std::size_t>(plan.Pstar));
      for (int h = 1; h < plan.Pstar; ++h)
        back_blocks[static_cast<std::size_t>(h)] =
            pick_rows(r1d.V.view(), final_pos, plan.top_rows[static_cast<std::size_t>(h)]);
    }
    auto top_back = coll::scatter(repcomm, 0, back_blocks, top_counts);
    auto given_back = coll::gather(
        repcomm, 0,
        pick_rows(r1d.V.view(), final_pos, plan.given_rows[static_cast<std::size_t>(g)]),
        given_counts);

    v_grouped = la::Matrix(static_cast<index_t>(kept.size()), n);
    for (index_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < kept.size(); ++k)
        if (kept[k] >= 0) v_grouped(static_cast<index_t>(k), j) = r1d.V(kept[k], j);
    if (g == 0) {
      // Rows given away in phase 2 come back via the gather.
      for (int h = 1; h < plan.Pstar; ++h)
        put_rows(v_grouped.view(), group_pos, plan.given_rows[static_cast<std::size_t>(h)],
                 given_back[static_cast<std::size_t>(h)]);
    } else {
      put_rows(v_grouped.view(), group_pos, plan.top_rows[static_cast<std::size_t>(g)], top_back);
    }
  }

  // --- Reverse phase 1: scatter V rows back to the group members. ----------
  CyclicQr out;
  if (G > 1) {
    std::vector<std::vector<double>> blocks;
    if (is_rep) {
      blocks.resize(static_cast<std::size_t>(G));
      for (int i = 0; i < G; ++i) {
        auto& b = blocks[static_cast<std::size_t>(i)];
        const index_t nloc = cyc.local_rows(g + i * plan.Pstar);
        b.reserve(member_counts[static_cast<std::size_t>(i)]);
        for (index_t j = 0; j < n; ++j)
          for (index_t l = 0; l < nloc; ++l) b.push_back(v_grouped(l * G + i, j));
      }
    }
    auto mine = coll::scatter(gcomm, 0, blocks, member_counts);
    out.V = la::from_vector(cyc.local_rows(rr), n, mine);
  } else if (G == 1) {
    out.V = std::move(v_grouped);
  } else {
    out.V = la::Matrix(0, n);
  }

  // --- T and R: scatter from rep 0 (= rcomm rank 0) to row-cyclic. ---------
  out.T = scatter_cyclic(rcomm, r1d.T, n, n);
  out.R = scatter_cyclic(rcomm, r1d.R, n, n);
  return out;
}

/// The qr-eg recursion (Section 7.2).  `shift` tracks how the current
/// submatrix's rows map to ranks: global row r lives on (r + shift) mod P.
CyclicQr recurse(backend::Comm& comm, const CaqrEg3dOptions& opts, la::ConstMatrixView A_local,
                 index_t m, index_t n, int shift, index_t b, index_t bstar) {
  const int P = comm.size();
  if (n <= b) {
    return base_case(comm, A_local, m, n, shift, bstar);
  }
  const int me = comm.rank();
  const index_t n1 = n / 2;
  const index_t n2 = n - n1;
  const index_t mp = A_local.rows();

  // Line 5: left recursion on the first n1 columns (same layout).
  CyclicQr left = recurse(comm, opts, A_local.left_cols(n1), m, n1, shift, b, bstar);

  const mm::CyclicRows lay_m_n1(m, n1, P, shift);
  const mm::CyclicRows lay_m_n2(m, n2, P, shift);
  const mm::CyclicRows lay_n1_n1(n1, n1, P, shift);
  const mm::CyclicRows lay_n1_n2(n1, n2, P, shift);
  const mm::CyclicCols lay_vlh(n1, m, P, shift);  // V_L^H

  // Line 6: M1 = V_L^H * [A12; A22]  (I = n1, J = n2, K = m).
  auto m1_buf = mm::mm_3d(comm, n1, n2, m, lay_vlh, la::to_vector_rowmajor(left.V.view()), lay_m_n2,
                          la::to_vector(A_local.right_cols(n2)), lay_n1_n2, opts.alltoall_alg);

  // Line 7: M2 = T_L^H * M1  (I = n1, J = n2, K = n1).
  const mm::CyclicCols lay_tlh(n1, n1, P, shift);
  auto m2_buf = mm::mm_3d(comm, n1, n2, n1, lay_tlh, la::to_vector_rowmajor(left.T.view()), lay_n1_n2, m1_buf,
                          lay_n1_n2, opts.alltoall_alg);

  // Line 8: [B12; B22] = [A12; A22] - V_L * M2  (I = m, J = n2, K = n1).
  auto vm2_buf = mm::mm_3d(comm, m, n2, n1, lay_m_n1, la::to_vector(left.V.view()), lay_n1_n2,
                           m2_buf, lay_m_n2, opts.alltoall_alg);
  la::Matrix B = mm::unpack_rows(lay_m_n2, me, vm2_buf);
  la::scale(-1.0, B.view());
  la::add(1.0, A_local.right_cols(n2), B.view());
  comm.charge_flops(la::flops::add(mp, n2));

  // Line 9: right recursion on B22 = B's rows n1..m, which is row-cyclic
  // with shift advanced by n1.
  const index_t rows_above = mm::CyclicRows(n1, 1, P, shift).local_rows(me);
  CyclicQr right = recurse(comm, opts,
                           la::ConstMatrixView(B.view()).block(rows_above, 0, mp - rows_above, n2),
                           m - n1, n2, shift + static_cast<int>(n1), b, bstar);

  // Line 10: V = [V_L, [0; V_R]] — purely local thanks to the shift match.
  CyclicQr out;
  out.V = la::Matrix(mp, n);
  la::assign<double>(out.V.block(0, 0, mp, n1), left.V.view());
  la::assign<double>(out.V.block(rows_above, n1, mp - rows_above, n2), right.V.view());

  // Line 11: M3 = V_L^H [0; V_R] = (V_L's rows >= n1)^H * V_R
  // (I = n1, J = n2, K = m - n1), all under shift + n1.
  const mm::CyclicCols lay_vlbh(n1, m - n1, P, shift + static_cast<int>(n1));
  const mm::CyclicRows lay_vr(m - n1, n2, P, shift + static_cast<int>(n1));
  auto m3_buf = mm::mm_3d(
      comm, n1, n2, m - n1, lay_vlbh,
      la::to_vector_rowmajor(la::ConstMatrixView(left.V.view()).block(rows_above, 0, mp - rows_above, n1)),
      lay_vr, la::to_vector(right.V.view()), lay_n1_n2, opts.alltoall_alg);

  // Line 12: M4 = M3 * T_R  (I = n1, J = n2, K = n2).
  const mm::CyclicRows lay_tr(n2, n2, P, shift + static_cast<int>(n1));
  auto m4_buf = mm::mm_3d(comm, n1, n2, n2, lay_n1_n2, m3_buf, lay_tr,
                          la::to_vector(right.T.view()), lay_n1_n2, opts.alltoall_alg);

  // Line 13: T12 = -T_L * M4  (I = n1, J = n2, K = n1).
  auto t12_buf = mm::mm_3d(comm, n1, n2, n1, lay_n1_n1, la::to_vector(left.T.view()), lay_n1_n2,
                           m4_buf, lay_n1_n2, opts.alltoall_alg);

  // Assemble T = [[T_L, -T_L M4], [0, T_R]] and R = [[R_L, B12], [0, R_R]]
  // locally: rows < n1 of T/R live where T_L/R_L rows live; rows >= n1 where
  // T_R/R_R rows live (the shifts line up by construction).
  const mm::CyclicRows lay_t(n, n, P, shift);
  const index_t t_rows = lay_t.local_rows(me);
  const index_t t_above = mm::CyclicRows(n1, 1, P, shift).local_rows(me);
  la::Matrix T12 = mm::unpack_rows(lay_n1_n2, me, t12_buf);
  la::scale(-1.0, T12.view());

  out.T = la::Matrix(t_rows, n);
  la::assign<double>(out.T.block(0, 0, t_above, n1), left.T.view());
  la::assign<double>(out.T.block(0, n1, t_above, n2), la::ConstMatrixView(T12.view()));
  la::assign<double>(out.T.block(t_above, n1, t_rows - t_above, n2), right.T.view());

  out.R = la::Matrix(t_rows, n);
  la::assign<double>(out.R.block(0, 0, t_above, n1), left.R.view());
  la::assign<double>(out.R.block(0, n1, t_above, n2),
                     la::ConstMatrixView(B.view()).top_rows(t_above));
  la::assign<double>(out.R.block(t_above, n1, t_rows - t_above, n2), right.R.view());
  return out;
}

}  // namespace

CyclicQr caqr_eg_3d(backend::Comm& comm, la::ConstMatrixView A_local, index_t m, index_t n,
                    CaqrEg3dOptions opts) {
  const int P = comm.size();
  QR3D_CHECK(m >= n && n >= 1, "caqr_eg_3d: need m >= n >= 1");
  QR3D_CHECK(A_local.cols() == n, "caqr_eg_3d: local column count");
  QR3D_CHECK(A_local.rows() == mm::CyclicRows(m, n, P, 0).local_rows(comm.rank()),
             "caqr_eg_3d: local row count must match the row-cyclic layout");

  const index_t b = opts.b > 0 ? std::min(opts.b, n) : block_size_3d(m, n, P, opts.delta);
  const index_t bstar =
      opts.b_star > 0 ? std::min(opts.b_star, b) : base_block_size_3d(b, P, opts.epsilon);
  return recurse(comm, opts, A_local, m, n, /*shift=*/0, b, bstar);
}

}  // namespace qr3d::core
