#include "design/lower_bounds.hpp"

#include <algorithm>
#include <numeric>

#include "design/gadget.hpp"
#include "field/primes.hpp"
#include "util/math.hpp"
#include "util/require.hpp"

namespace osp {

AdaptiveAdversaryResult run_theorem3_adversary(OnlineAlgorithm& alg,
                                               std::size_t sigma,
                                               std::size_t k) {
  OSP_REQUIRE(sigma >= 2);
  OSP_REQUIRE(k >= 1);
  const std::size_t m = checked_pow(sigma, static_cast<unsigned>(k));
  OSP_REQUIRE_MSG(m <= 1'000'000, "sigma^k too large");

  std::vector<SetMeta> metas(m, SetMeta{1.0, k});
  GameEngine engine(metas, alg);
  InstanceBuilder builder;
  builder.add_sets(m, 1.0);

  std::vector<std::size_t> appearances(m, 0);
  std::vector<bool> is_witness(m, false);
  std::vector<SetId> witness;

  // Phase i groups sets into super-blocks of size sigma^i; each super-block
  // receives one element whose parents are its algorithm-active sets,
  // padded with non-witness dead sets of the same super-block to load
  // exactly sigma.
  for (std::size_t phase = 1; phase <= k; ++phase) {
    const std::size_t block = checked_pow(sigma, static_cast<unsigned>(phase));
    const std::size_t num_blocks = m / block;
    for (std::size_t g = 0; g < num_blocks; ++g) {
      const std::size_t lo = g * block;
      const std::size_t hi = lo + block;
      std::vector<SetId> parents;
      for (std::size_t s = lo; s < hi && parents.size() < sigma; ++s)
        if (engine.is_alg_active(static_cast<SetId>(s)))
          parents.push_back(static_cast<SetId>(s));
      for (std::size_t s = lo; s < hi && parents.size() < sigma; ++s) {
        auto sid = static_cast<SetId>(s);
        if (!engine.is_alg_active(sid) && !is_witness[sid] &&
            std::find(parents.begin(), parents.end(), sid) == parents.end())
          parents.push_back(sid);
      }
      OSP_ASSERT(parents.size() == sigma);
      for (SetId s : parents) ++appearances[s];
      engine.step(parents, 1);
      builder.add_element(parents, 1);

      if (phase == 1) {
        // Designate this block's witness: a set the algorithm did not keep.
        for (SetId s : parents) {
          if (!engine.is_alg_active(s)) {
            is_witness[s] = true;
            witness.push_back(s);
            break;
          }
        }
        // If the algorithm kept all... impossible: at most one of the
        // sigma >= 2 parents can be chosen with capacity 1.
        OSP_ASSERT(!witness.empty() && is_witness[witness.back()]);
      }
    }
  }

  // Completion: load-1 elements bring every set to size exactly k.
  for (std::size_t s = 0; s < m; ++s) {
    while (appearances[s] < k) {
      ++appearances[s];
      std::vector<SetId> parents{static_cast<SetId>(s)};
      engine.step(parents, 1);
      builder.add_element(parents, 1);
    }
  }

  AdaptiveAdversaryResult res;
  res.transcript = builder.build();
  res.alg_outcome = engine.finish();
  res.witness = std::move(witness);
  res.opt_lower_bound = static_cast<Weight>(res.witness.size());
  res.sigma = sigma;
  res.k = k;
  OSP_ASSERT(res.witness.size() ==
             checked_pow(sigma, static_cast<unsigned>(k - 1)));
  return res;
}

Lemma9Instance build_lemma9_instance(std::size_t ell, Rng& rng) {
  OSP_REQUIRE_MSG(is_prime_power(ell), "Lemma 9 needs a prime-power ell");
  const std::size_t L2 = ell * ell;
  const std::size_t L3 = L2 * ell;
  const std::size_t L4 = L2 * L2;

  InstanceBuilder builder;
  builder.add_sets(L4, 1.0);

  // Stage I: ell^2 subcollections of ell^2 sets; apply an (ell, ell)-gadget
  // without rows to each under a uniformly random bijection.
  // stage1_pos[s] = (z, i, j): subcollection z, matrix position (i, j).
  struct Pos1 {
    std::uint32_t z, i, j;
  };
  std::vector<Pos1> pos1(L4);
  {
    Gadget g1(ell, ell);
    std::vector<std::size_t> perm(L2);
    for (std::size_t z = 0; z < L2; ++z) {
      std::iota(perm.begin(), perm.end(), 0);
      rng.shuffle(perm.begin(), perm.end());
      // placement[row * ell + col] = set id.
      std::vector<SetId> placement(L2);
      for (std::size_t cell = 0; cell < L2; ++cell) {
        auto sid = static_cast<SetId>(z * L2 + perm[cell]);
        placement[cell] = sid;
        pos1[sid] = Pos1{static_cast<std::uint32_t>(z),
                         static_cast<std::uint32_t>(cell / ell),
                         static_cast<std::uint32_t>(cell % ell)};
      }
      apply_gadget(builder, g1, placement, /*with_rows=*/false);
    }
  }

  // Stage II: ell subcollections, each the concatenation of ell Stage I
  // blocks with independently permuted rows; apply an (ell, ell^2)-gadget
  // without rows to each.  stage2_row[s] records the row of s.
  std::vector<std::uint32_t> stage2_row(L4);
  {
    Gadget g2(ell, L2);
    std::vector<std::uint32_t> pi(ell);
    for (std::size_t t = 0; t < ell; ++t) {
      std::vector<SetId> placement(ell * L2, kNoSet);
      for (std::size_t zr = 0; zr < ell; ++zr) {
        const std::size_t z = t * ell + zr;
        std::iota(pi.begin(), pi.end(), 0u);
        rng.shuffle(pi.begin(), pi.end());
        for (std::size_t s0 = 0; s0 < L2; ++s0) {
          auto sid = static_cast<SetId>(z * L2 + s0);
          const Pos1& p = pos1[sid];
          std::uint32_t row = pi[p.i];
          std::size_t col = p.j + ell * zr;  // concatenate block zr's columns
          placement[row * L2 + col] = sid;
          stage2_row[sid] = row;
        }
      }
      for (SetId sid : placement) OSP_REQUIRE(sid != kNoSet);
      apply_gadget(builder, g2, placement, /*with_rows=*/false);
    }
  }

  // Stage III: spare a uniformly random row u_t of each Stage II block —
  // those sets form the planted solution S — and hit the rest with a full
  // (ell^2 - ell, ell^2)-gadget under an arbitrary bijection.
  std::vector<SetId> planted;
  planted.reserve(L3);
  std::vector<SetId> rest;
  rest.reserve(L4 - L3);
  for (std::size_t t = 0; t < ell; ++t) {
    const std::uint32_t u_t = static_cast<std::uint32_t>(rng.below(ell));
    for (std::size_t zr = 0; zr < ell; ++zr)
      for (std::size_t s0 = 0; s0 < L2; ++s0) {
        auto sid = static_cast<SetId>((t * ell + zr) * L2 + s0);
        (stage2_row[sid] == u_t ? planted : rest).push_back(sid);
      }
  }
  OSP_ASSERT(planted.size() == L3);
  OSP_ASSERT(rest.size() == (L2 - ell) * L2);
  {
    Gadget g3(L2 - ell, L2);
    apply_gadget(builder, g3, rest, /*with_rows=*/true);
  }

  // Stage IV: bring every planted set to the uniform size 2ell^2 + ell + 1
  // with load-1 elements (rest sets already have ell + ell^2 + ell^2 + 1).
  const std::size_t fill = L2 + 1;
  for (SetId sid : planted)
    for (std::size_t i = 0; i < fill; ++i)
      builder.add_element({sid}, 1);

  Lemma9Instance out;
  out.instance = builder.build();
  out.planted = std::move(planted);
  std::sort(out.planted.begin(), out.planted.end());
  out.ell = ell;
  return out;
}

WeakLbInstance build_weak_lb_instance(std::size_t t, Rng& rng) {
  OSP_REQUIRE(t >= 2);
  const std::size_t m = t * t;
  InstanceBuilder builder;
  builder.add_sets(m, 1.0);
  std::vector<std::size_t> appearances(m, 0);

  // The matrix coordinates are HIDDEN from the algorithm (this is what
  // makes the Yao argument work): set i*t + j sits in row i, but its
  // column is a uniformly random permutation of [t] per row.  An online
  // algorithm cannot coordinate its u_i choices onto one column, because
  // ids carry no column information.
  std::vector<std::vector<std::uint32_t>> col_to_set(
      t, std::vector<std::uint32_t>(t));
  for (std::size_t i = 0; i < t; ++i) {
    std::iota(col_to_set[i].begin(), col_to_set[i].end(), 0u);
    rng.shuffle(col_to_set[i].begin(), col_to_set[i].end());
  }
  auto set_at = [&](std::size_t row, std::size_t col) {
    return static_cast<SetId>(row * t + col_to_set[row][col]);
  };

  // Row elements u_i: contained in every set of row i.
  for (std::size_t i = 0; i < t; ++i) {
    std::vector<SetId> parents;
    for (std::size_t j = 0; j < t; ++j)
      parents.push_back(static_cast<SetId>(i * t + j));
    for (SetId s : parents) ++appearances[s];
    builder.add_element(std::move(parents), 1);
  }

  // t^2 permutation elements: each contains the set at (i, pi(i)) for a
  // uniformly random permutation pi, so any two of its sets differ in
  // both the row and the (hidden) column coordinate — the condition in
  // Section 4.2.
  std::vector<std::uint32_t> pi(t);
  for (std::size_t e = 0; e < m; ++e) {
    std::iota(pi.begin(), pi.end(), 0u);
    rng.shuffle(pi.begin(), pi.end());
    std::vector<SetId> parents;
    for (std::size_t i = 0; i < t; ++i)
      parents.push_back(set_at(i, pi[i]));
    for (SetId s : parents) ++appearances[s];
    builder.add_element(std::move(parents), 1);
  }

  // Fill to the uniform maximum size with singletons.
  const std::size_t target =
      *std::max_element(appearances.begin(), appearances.end());
  for (std::size_t s = 0; s < m; ++s)
    for (std::size_t i = appearances[s]; i < target; ++i)
      builder.add_element({static_cast<SetId>(s)}, 1);

  WeakLbInstance out;
  out.instance = builder.build();
  out.t = t;
  for (std::size_t i = 0; i < t; ++i)
    out.column_witness.push_back(set_at(i, 0));
  std::sort(out.column_witness.begin(), out.column_witness.end());
  return out;
}

}  // namespace osp
