// The pre-index ConstructBasisSet, kept verbatim as a test oracle: the
// same Lines 2, 3 and 5, and the Line 4 merge that re-scores every pair
// of B1 against every query on every round, through Itemset::Union and
// sorted-vector subset tests. construct_basis_test checks the shipped
// implementation against it: same bases in the same order, and a
// bit-equal average-case EV. Quadratic in |B1| per round and linear in
// |Q| per pair, so keep the inputs it sees small.
#ifndef PRIVBASIS_TESTS_CONSTRUCT_BASIS_REFERENCE_H_
#define PRIVBASIS_TESTS_CONSTRUCT_BASIS_REFERENCE_H_

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/basis.h"
#include "core/construct_basis.h"
#include "core/error_variance.h"
#include "data/itemset.h"
#include "graph/bron_kerbosch.h"
#include "graph/graph.h"

namespace privbasis::testing {

/// EV of the combined candidate basis set (B1 ∪ B2) over the queries.
inline double ReferenceEv(const std::vector<Itemset>& b1,
                          const std::vector<Itemset>& b2,
                          const std::vector<Itemset>& queries) {
  std::vector<Itemset> all;
  all.reserve(b1.size() + b2.size());
  all.insert(all.end(), b1.begin(), b1.end());
  all.insert(all.end(), b2.begin(), b2.end());
  return AverageCaseEv(BasisSet(std::move(all)), queries);
}

inline Result<BasisSet> ReferenceConstructBasisSet(
    const std::vector<Item>& freq_items,
    const std::vector<Itemset>& freq_pairs,
    const ConstructBasisOptions& options = {}) {
  for (const auto& pair : freq_pairs) {
    if (pair.size() != 2) {
      return Status::InvalidArgument("frequent pair must have 2 items, got " +
                                     pair.ToString());
    }
  }
  if (options.max_basis_length < 3) {
    return Status::InvalidArgument("max_basis_length must be >= 3");
  }

  // Line 2: maximal cliques (size >= 2) of the graph given by P.
  ItemGraph graph = ItemGraph::FromItemsAndPairs(freq_items, freq_pairs);
  std::vector<Itemset> b1 = FindMaximalCliques(graph, 2);

  // The length cap is a hard constraint (BasisFreq materializes 2^|Bi|
  // bins), but maximal cliques can exceed it. Split each oversized clique
  // into length-capped bases that still cover all of its *edges* (the
  // queries P contains); itemsets longer than the cap are inherently
  // uncoverable under a cap, which is why the paper keeps ℓ at 12.
  std::vector<Itemset> capped;
  for (auto& clique : b1) {
    if (clique.size() <= options.max_basis_length) {
      capped.push_back(std::move(clique));
      continue;
    }
    // Greedy edge cover: start a basis from an uncovered edge, grow it
    // with the member that covers the most uncovered edges.
    const auto& members = clique.items();
    std::unordered_set<uint64_t> covered;  // edge key = lo << 32 | hi
    auto edge_key = [](Item a, Item b) {
      return (static_cast<uint64_t>(std::min(a, b)) << 32) |
             static_cast<uint64_t>(std::max(a, b));
    };
    auto find_uncovered = [&]() -> std::pair<size_t, size_t> {
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          if (!covered.contains(edge_key(members[i], members[j]))) {
            return {i, j};
          }
        }
      }
      return {members.size(), members.size()};
    };
    while (true) {
      auto [i, j] = find_uncovered();
      if (i >= members.size()) break;
      std::vector<Item> basis{members[i], members[j]};
      while (basis.size() < options.max_basis_length) {
        size_t best_gain = 0;
        Item best_item = 0;
        for (Item candidate : members) {
          if (std::find(basis.begin(), basis.end(), candidate) !=
              basis.end()) {
            continue;
          }
          size_t gain = 0;
          for (Item present : basis) {
            if (!covered.contains(edge_key(candidate, present))) ++gain;
          }
          if (gain > best_gain) {
            best_gain = gain;
            best_item = candidate;
          }
        }
        if (best_gain == 0) break;
        basis.push_back(best_item);
      }
      for (size_t a = 0; a < basis.size(); ++a) {
        for (size_t b = a + 1; b < basis.size(); ++b) {
          covered.insert(edge_key(basis[a], basis[b]));
        }
      }
      capped.push_back(Itemset(std::move(basis)));
    }
  }
  b1 = std::move(capped);

  // Line 3: items in F but not in P, packed into at most-3-item groups.
  std::unordered_set<Item> in_pairs;
  for (const auto& pair : freq_pairs) {
    in_pairs.insert(pair[0]);
    in_pairs.insert(pair[1]);
  }
  std::vector<Item> loose;
  std::unordered_set<Item> seen;
  for (Item it : freq_items) {
    if (!in_pairs.contains(it) && seen.insert(it).second) loose.push_back(it);
  }
  std::vector<Itemset> b2;
  for (size_t i = 0; i < loose.size(); i += 3) {
    std::vector<Item> group(loose.begin() + i,
                            loose.begin() + std::min(i + 3, loose.size()));
    b2.push_back(Itemset(std::move(group)));
  }

  // Queries Q: frequencies we intend to answer well — F's singletons and
  // P's pairs (the paper's "itemsets in F and P").
  std::vector<Itemset> queries;
  seen.clear();
  for (Item it : freq_items) {
    if (seen.insert(it).second) queries.push_back(Itemset{it});
  }
  for (const auto& pair : freq_pairs) {
    for (Item it : pair) {
      if (seen.insert(it).second) queries.push_back(Itemset{it});
    }
  }
  for (const auto& pair : freq_pairs) queries.push_back(pair);

  // Line 4: greedily merge pairs of B1 while EV decreases.
  //
  // EV(B) = w²·Σ_q 1/inv_q with inv_q = Σ_{B ⊇ q} 1/2^{|B|−|q|}, so a
  // candidate merge (i, j) only perturbs inv_q for queries inside
  // Bi ∪ Bj (coverage by any other basis is untouched). Caching inv_q
  // makes one candidate O(|Q|) instead of O(|Q|·w), which is what keeps
  // wide basis sets (w ~ 100) tractable.
  {
    auto all_bases = [&]() {
      std::vector<Itemset> all = b1;
      all.insert(all.end(), b2.begin(), b2.end());
      return all;
    };
    std::vector<double> inv(queries.size(), 0.0);
    auto recompute_inv = [&]() {
      std::vector<Itemset> all = all_bases();
      for (size_t q = 0; q < queries.size(); ++q) {
        inv[q] = 0.0;
        for (const auto& basis : all) {
          if (queries[q].IsSubsetOf(basis)) {
            inv[q] += 1.0 / VarianceUnits(basis.size(), queries[q].size());
          }
        }
      }
    };
    auto sum_s = [&]() {
      double s = 0.0;
      for (double v : inv) s += v > 0.0 ? 1.0 / v : 0.0;
      return s;
    };
    recompute_inv();
    while (b1.size() >= 2) {
      const double w = static_cast<double>(b1.size() + b2.size());
      const double s = sum_s();
      const double current_ev = w * w * s;
      double best_ev = current_ev;
      size_t best_i = 0, best_j = 0;
      bool found = false;
      for (size_t i = 0; i < b1.size(); ++i) {
        for (size_t j = i + 1; j < b1.size(); ++j) {
          Itemset merged = b1[i].Union(b1[j]);
          if (merged.size() > options.max_basis_length) continue;
          double delta = 0.0;
          for (size_t q = 0; q < queries.size(); ++q) {
            if (!queries[q].IsSubsetOf(merged)) continue;
            double inv_new = inv[q];
            if (queries[q].IsSubsetOf(b1[i])) {
              inv_new -= 1.0 / VarianceUnits(b1[i].size(), queries[q].size());
            }
            if (queries[q].IsSubsetOf(b1[j])) {
              inv_new -= 1.0 / VarianceUnits(b1[j].size(), queries[q].size());
            }
            inv_new += 1.0 / VarianceUnits(merged.size(), queries[q].size());
            delta += 1.0 / inv_new - (inv[q] > 0.0 ? 1.0 / inv[q] : 0.0);
          }
          double ev = (w - 1) * (w - 1) * (s + delta);
          if (ev < best_ev) {
            best_ev = ev;
            best_i = i;
            best_j = j;
            found = true;
          }
        }
      }
      if (!found) break;
      b1[best_i] = b1[best_i].Union(b1[best_j]);
      b1.erase(b1.begin() + static_cast<ptrdiff_t>(best_j));
      recompute_inv();
    }
  }
  double current_ev = ReferenceEv(b1, b2, queries);

  // Line 5: try dissolving a B2 basis, moving its items into the smallest
  // bases, while EV decreases.
  while (!b2.empty()) {
    double best_ev = current_ev;
    size_t best_idx = 0;
    std::vector<Itemset> best_b1, best_b2;
    bool found = false;
    for (size_t r = 0; r < b2.size(); ++r) {
      std::vector<Itemset> trial_b1 = b1;
      std::vector<Itemset> trial_b2 = b2;
      Itemset removed = trial_b2[r];
      trial_b2.erase(trial_b2.begin() + static_cast<ptrdiff_t>(r));
      if (trial_b1.empty() && trial_b2.empty()) continue;
      // Place each item into the currently-smallest basis with room.
      bool placed_all = true;
      for (Item it : removed) {
        Itemset* target = nullptr;
        for (auto* side : {&trial_b1, &trial_b2}) {
          for (auto& basis : *side) {
            if (basis.size() >= options.max_basis_length) continue;
            if (target == nullptr || basis.size() < target->size()) {
              target = &basis;
            }
          }
        }
        if (target == nullptr) {
          placed_all = false;
          break;
        }
        *target = target->With(it);
      }
      if (!placed_all) continue;
      double ev = ReferenceEv(trial_b1, trial_b2, queries);
      if (ev < best_ev) {
        best_ev = ev;
        best_idx = r;
        best_b1 = std::move(trial_b1);
        best_b2 = std::move(trial_b2);
        found = true;
      }
    }
    if (!found) break;
    (void)best_idx;
    b1 = std::move(best_b1);
    b2 = std::move(best_b2);
    current_ev = best_ev;
  }

  std::vector<Itemset> all;
  all.reserve(b1.size() + b2.size());
  all.insert(all.end(), b1.begin(), b1.end());
  all.insert(all.end(), b2.begin(), b2.end());
  return BasisSet(std::move(all));
}

}  // namespace privbasis::testing

#endif  // PRIVBASIS_TESTS_CONSTRUCT_BASIS_REFERENCE_H_
