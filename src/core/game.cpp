#include "core/game.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp {

namespace {

// Validates one answer against the rules; throws on violation.  Legacy
// (allocating) form used by play_reference and GameEngine's public API.
void check_answer(const std::vector<SetId>& chosen,
                  const std::vector<SetId>& candidates, Capacity capacity) {
  OSP_REQUIRE_MSG(chosen.size() <= capacity,
                  "algorithm chose " << chosen.size()
                                     << " sets, capacity is " << capacity);
  std::vector<SetId> sorted = chosen;
  std::sort(sorted.begin(), sorted.end());
  OSP_REQUIRE_MSG(
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
      "algorithm chose a set twice for one element");
  for (SetId s : sorted)
    OSP_REQUIRE_MSG(
        std::binary_search(candidates.begin(), candidates.end(), s),
        "algorithm chose set " << s << " not containing the element");
}

// Allocation-free form of the same rules.  The chosen list is at most
// `capacity` entries, so the quadratic duplicate scan is O(b(u)^2) with
// b(u) tiny in practice — far cheaper than the copy + sort it replaces.
void check_answer_flat(const SetId* chosen, std::size_t num_chosen,
                       const SetId* candidates, std::size_t num_candidates,
                       Capacity capacity) {
  OSP_REQUIRE_MSG(num_chosen <= capacity,
                  "algorithm chose " << num_chosen
                                     << " sets, capacity is " << capacity);
  for (std::size_t i = 0; i < num_chosen; ++i) {
    OSP_REQUIRE_MSG(std::binary_search(candidates,
                                       candidates + num_candidates,
                                       chosen[i]),
                    "algorithm chose set "
                        << chosen[i] << " not containing the element");
    for (std::size_t j = i + 1; j < num_chosen; ++j)
      OSP_REQUIRE_MSG(chosen[i] != chosen[j],
                      "algorithm chose a set twice for one element");
  }
}

template <class Count>
void score(const Instance& inst, const std::vector<Count>& got,
           Outcome& out) {
  out.completed_mask.assign(inst.num_sets(), false);
  for (SetId s = 0; s < inst.num_sets(); ++s) {
    if (got[s] == inst.set_size(s)) {
      out.completed.push_back(s);
      out.completed_mask[s] = true;
      out.benefit += inst.weight(s);
    }
  }
}

}  // namespace

Outcome play_flat(const Instance& inst, OnlineAlgorithm& alg,
                  PlayScratch& scratch) {
  const std::size_t m = inst.num_sets();
  scratch.metas.resize(m);
  for (SetId s = 0; s < m; ++s)
    scratch.metas[s] = SetMeta{inst.weight(s), inst.set_size(s)};
  alg.start(scratch.metas);

  scratch.got.assign(m, 0);
  if (scratch.chosen.size() < inst.max_choices())
    scratch.chosen.resize(inst.max_choices());

  Outcome out;
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const Span<SetId> parents = inst.parents(u);
    const Capacity cap = inst.capacity(u);
    std::size_t n = alg.decide(u, cap, parents.data(), parents.size(),
                               scratch.chosen.data());
    check_answer_flat(scratch.chosen.data(), n, parents.data(),
                      parents.size(), cap);
    for (std::size_t i = 0; i < n; ++i) ++scratch.got[scratch.chosen[i]];
    out.decisions += n;
  }

  score(inst, scratch.got, out);
  return out;
}

Outcome play_flat_blocks(const Instance& inst, OnlineAlgorithm& alg,
                         PlayScratch& scratch, std::size_t block_size) {
  if (block_size == 0) block_size = kDefaultDecideBlock;
  const std::size_t m = inst.num_sets();
  scratch.metas.resize(m);
  for (SetId s = 0; s < m; ++s)
    scratch.metas[s] = SetMeta{inst.weight(s), inst.set_size(s)};
  alg.start(scratch.metas);

  scratch.got.assign(m, 0);
  BlockChoices& choices = scratch.block_choices;
  BlockScratch& bs = scratch.block_scratch;
  // Offer the fused-histogram channel: a trusted in-library kernel bumps
  // scratch.got while writing each row and reports hist_applied, letting
  // this engine skip its own validate-and-count pass for that block (the
  // fuzz suite proves those kernels subset-valid).  Policies on the
  // default per-element loop never set the flag and keep full validation.
  bs.got = scratch.got.data();

  Outcome out;
  const std::size_t num_elements = inst.num_elements();
  for (std::size_t base = 0; base < num_elements; base += block_size) {
    const std::size_t count = std::min(block_size, num_elements - base);
    const ArrivalBlock block =
        inst.arrival_block(static_cast<ElementId>(base), count);
    bs.hist_applied = false;
    alg.decide_batch(block, bs, choices);
    OSP_REQUIRE_MSG(choices.offsets.size() == count + 1 &&
                        choices.offsets.front() == 0 &&
                        choices.offsets.back() <= choices.ids.size(),
                    "decide_batch produced a malformed choice block");
    if (bs.hist_applied) {
      out.decisions += choices.offsets.back();
      continue;
    }
    // The same rules as the per-element path, applied to each packed row.
    // The single-choice row (the unit-capacity common case) is validated
    // inline — a short sorted candidate list is cheaper to scan linearly
    // than to binary-search, and one choice cannot duplicate — so the
    // whole validation pass stays branch-lean; general rows take the
    // shared check.
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t n = choices.num_chosen(i);
      if (n == 0) continue;  // choosing nothing is always legal
      const SetId* chosen = choices.chosen_of(i);
      const SetId* cand = block.candidates_of(i);
      const std::size_t num_cand = block.num_candidates(i);
      if (n == 1) {
        const SetId f = chosen[0];
        bool found;
        if (num_cand <= 8) {
          found = false;
          for (std::size_t j = 0; j < num_cand; ++j) found |= cand[j] == f;
        } else {
          found = std::binary_search(cand, cand + num_cand, f);
        }
        OSP_REQUIRE_MSG(block.capacity(i) >= 1 && found,
                        "algorithm chose set "
                            << f << (found ? " beyond capacity 0"
                                           : " not containing the element"));
        ++scratch.got[f];
      } else {
        check_answer_flat(chosen, n, cand, num_cand, block.capacity(i));
        for (std::size_t j = 0; j < n; ++j) ++scratch.got[chosen[j]];
      }
    }
    out.decisions += choices.offsets.back();
  }
  // scratch.got may be resized or freed between plays; never leave a
  // stale pointer behind in the reusable block scratch.
  bs.got = nullptr;
  bs.hist_applied = false;

  score(inst, scratch.got, out);
  return out;
}

Outcome play(const Instance& inst, OnlineAlgorithm& alg) {
  PlayScratch scratch;
  return play_flat(inst, alg, scratch);
}

Outcome play_reference(const Instance& inst, OnlineAlgorithm& alg) {
  std::vector<SetMeta> metas(inst.num_sets());
  for (SetId s = 0; s < inst.num_sets(); ++s)
    metas[s] = SetMeta{inst.weight(s), inst.set_size(s)};
  alg.start(metas);

  std::vector<std::size_t> got(inst.num_sets(), 0);
  Outcome out;

  // Reused buffer: the seed engine handed the policy the stored parent
  // vector; with CSR storage the row is re-materialized, but not with a
  // fresh allocation per arrival.
  std::vector<SetId> parents;
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const ArrivalView a = inst.arrival(u);
    parents.assign(a.parents.begin(), a.parents.end());
    std::vector<SetId> chosen = choose(alg, u, a.capacity, parents);
    check_answer(chosen, parents, a.capacity);
    for (SetId s : chosen) ++got[s];
    out.decisions += chosen.size();
  }

  score(inst, got, out);
  return out;
}

GameEngine::GameEngine(std::vector<SetMeta> sets, OnlineAlgorithm& alg)
    : sets_(std::move(sets)), alg_(alg) {
  alg_active_.assign(sets_.size(), true);
  presented_.assign(sets_.size(), 0);
  alg_.start(sets_);
}

std::vector<SetId> GameEngine::step(const std::vector<SetId>& parents,
                                    Capacity capacity) {
  sorted_.assign(parents.begin(), parents.end());
  std::sort(sorted_.begin(), sorted_.end());
  OSP_REQUIRE(std::adjacent_find(sorted_.begin(), sorted_.end()) ==
              sorted_.end());
  for (SetId s : sorted_) OSP_REQUIRE(s < sets_.size());

  // A decision chooses at most min(b(u), |C(u)|) sets; a capacity alone
  // may be as large as 2^32 - 1.
  const std::size_t bound = std::min<std::size_t>(capacity, sorted_.size());
  if (chosen_.size() < bound) chosen_.resize(bound);
  std::size_t n = alg_.decide(next_element_++, capacity, sorted_.data(),
                              sorted_.size(), chosen_.data());
  check_answer_flat(chosen_.data(), n, sorted_.data(), sorted_.size(),
                    capacity);
  decisions_ += n;

  for (SetId s : sorted_) {
    ++presented_[s];
    bool was_chosen = false;
    for (std::size_t i = 0; i < n; ++i)
      if (chosen_[i] == s) {
        was_chosen = true;
        break;
      }
    if (!was_chosen) alg_active_[s] = false;
  }
  return std::vector<SetId>(chosen_.begin(),
                            chosen_.begin() + static_cast<std::ptrdiff_t>(n));
}

Outcome GameEngine::finish() const {
  Outcome out;
  out.completed_mask.assign(sets_.size(), false);
  out.decisions = decisions_;
  for (SetId s = 0; s < sets_.size(); ++s) {
    if (alg_active_[s] && presented_[s] == sets_[s].size) {
      out.completed.push_back(s);
      out.completed_mask[s] = true;
      out.benefit += sets_[s].weight;
    }
  }
  return out;
}

}  // namespace osp
