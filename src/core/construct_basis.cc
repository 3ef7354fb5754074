#include "core/construct_basis.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_set>

#include "core/error_variance.h"
#include "graph/bron_kerbosch.h"
#include "graph/graph.h"

namespace privbasis {

namespace {

/// EV of the combined candidate basis set (B1 ∪ B2) over the queries.
double Ev(const std::vector<Itemset>& b1, const std::vector<Itemset>& b2,
          const std::vector<Itemset>& queries) {
  std::vector<Itemset> all;
  all.reserve(b1.size() + b2.size());
  all.insert(all.end(), b1.begin(), b1.end());
  all.insert(all.end(), b2.begin(), b2.end());
  return AverageCaseEv(BasisSet(std::move(all)), queries);
}

/// Line 4 of Algorithm 2: while some merge of two B1 bases lowers EV,
/// apply the best one. EV(B) = w²·Σ_q 1/inv_q with
/// inv_q = Σ_{B ⊇ q} 1/2^{|B|−|q|}, so merging (i, j) changes only the
/// queries inside Bi ∪ Bj; its Δ = Σ_{q ⊆ Bi∪Bj} (1/inv'_q − 1/inv_q)
/// depends on Bi, Bj and those queries' inv_q alone, and stays cached
/// until one of them changes (see construct_basis.h for the contract).
class CliqueMerger {
 public:
  CliqueMerger(const std::vector<Itemset>& b1, const std::vector<Itemset>& b2,
               const std::vector<Itemset>& queries, size_t max_basis_length)
      : n1_(b1.size()), n2_(b2.size()), max_len_(max_basis_length) {
    // Dense local ids: an item's rank among Q's items, which include
    // every basis item (B1 ⊆ P's endpoints, B2 ⊆ F).
    for (const auto& q : queries) {
      universe_.insert(universe_.end(), q.begin(), q.end());
    }
    std::sort(universe_.begin(), universe_.end());
    universe_.erase(std::unique(universe_.begin(), universe_.end()),
                    universe_.end());
    words_ = (universe_.size() + 63) / 64;

    rows_.assign((n1_ + n2_) * words_, 0);
    len_.resize(n1_ + n2_);
    for (size_t r = 0; r < n1_ + n2_; ++r) {
      const Itemset& basis = r < n1_ ? b1[r] : b2[r - n1_];
      for (Item it : basis) Set(Row(r), Local(it));
      len_[r] = basis.size();
    }

    // Q holds F's singletons and P's pairs; a singleton is {lo, lo}.
    // Index each query under its lowest local item.
    query_.reserve(queries.size());
    by_lo_start_.assign(universe_.size() + 1, 0);
    for (const auto& q : queries) {
      assert(q.size() == 1 || q.size() == 2);
      query_.push_back({Local(q[0]), Local(q[q.size() - 1]), q.size()});
      ++by_lo_start_[query_.back().lo + 1];
    }
    for (size_t x = 0; x < universe_.size(); ++x) {
      by_lo_start_[x + 1] += by_lo_start_[x];
    }
    by_lo_.resize(queries.size());
    std::vector<size_t> next(by_lo_start_.begin(), by_lo_start_.end() - 1);
    for (size_t q = 0; q < queries.size(); ++q) {
      by_lo_[next[query_[q].lo]++] = static_cast<uint32_t>(q);
    }
    hits_.resize((queries.size() + 63) / 64);

    // inv_q, summed in basis order (B1, then B2) for every q.
    inv_.assign(queries.size(), 0.0);
    for (size_t r = 0; r < n1_ + n2_; ++r) {
      MarkInside(Row(r));
      ForEachHit([&](size_t q) {
        inv_[q] += 1.0 / VarianceUnits(len_[r], query_[q].len);
      });
    }
    rcp_.resize(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) UpdateRcp(q);

    alive_.resize(n1_);
    for (size_t i = 0; i < n1_; ++i) alive_[i] = i;
    fits_.assign(n1_ * n1_, 0);
    delta_.assign(n1_ * n1_, 0.0);
    union_.resize(words_);
    for (size_t i = 0; i < n1_; ++i) {
      for (size_t j = i + 1; j < n1_; ++j) Score(i, j);
    }
  }

  /// Runs the merge rounds, applying each merge to `b1` too.
  void Run(std::vector<Itemset>& b1) {
    while (alive_.size() >= 2) {
      const double w = static_cast<double>(alive_.size() + n2_);
      double s = 0.0;
      for (double r : rcp_) s += r;
      const double current_ev = w * w * s;
      double best_ev = current_ev;
      size_t best_i = 0, best_j = 0;
      bool found = false;
      for (size_t i = 0; i < alive_.size(); ++i) {
        for (size_t j = i + 1; j < alive_.size(); ++j) {
          const size_t pair = alive_[i] * n1_ + alive_[j];
          if (!fits_[pair]) continue;
          double ev = (w - 1) * (w - 1) * (s + delta_[pair]);
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
      Merge(best_i, best_j);
    }
  }

 private:
  struct Query {
    uint32_t lo, hi;  // local ids; lo == hi for a singleton
    size_t len;
  };

  uint32_t Local(Item it) const {
    auto pos = std::lower_bound(universe_.begin(), universe_.end(), it);
    assert(pos != universe_.end() && *pos == it);
    return static_cast<uint32_t>(pos - universe_.begin());
  }
  uint64_t* Row(size_t r) { return rows_.data() + r * words_; }
  static void Set(uint64_t* row, size_t x) {
    row[x / 64] |= uint64_t{1} << (x % 64);
  }
  static bool Test(const uint64_t* row, size_t x) {
    return (row[x / 64] >> (x % 64)) & 1;
  }
  static bool Covers(const uint64_t* row, const Query& q) {
    return Test(row, q.lo) && Test(row, q.hi);
  }

  /// 1/inv_q as the EV sum reads it: 0 for an uncovered query.
  void UpdateRcp(size_t q) { rcp_[q] = inv_[q] > 0.0 ? 1.0 / inv_[q] : 0.0; }

  /// Marks in hits_ the queries inside `row`; each is found once, through
  /// its lowest item.
  void MarkInside(const uint64_t* row) {
    std::fill(hits_.begin(), hits_.end(), 0);
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const size_t x = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        for (size_t k = by_lo_start_[x]; k < by_lo_start_[x + 1]; ++k) {
          if (Test(row, query_[by_lo_[k]].hi)) Set(hits_.data(), by_lo_[k]);
        }
      }
    }
  }

  /// Calls fn(q) for every marked query, in ascending query order.
  template <typename Fn>
  void ForEachHit(Fn fn) const {
    for (size_t w = 0; w < hits_.size(); ++w) {
      for (uint64_t bits = hits_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// Caches whether slots a < b fit under the length cap when merged and,
  /// if so, their Δ, summed in ascending query order.
  void Score(size_t a, size_t b) {
    const uint64_t* ra = Row(a);
    const uint64_t* rb = Row(b);
    size_t merged_len = 0;
    for (size_t w = 0; w < words_; ++w) {
      union_[w] = ra[w] | rb[w];
      merged_len += static_cast<size_t>(std::popcount(union_[w]));
    }
    const size_t pair = a * n1_ + b;
    fits_[pair] = merged_len <= max_len_;
    if (!fits_[pair]) return;
    // 1/2^{|B|−|q|} for |q| = 1, 2 (index |q| − 1) of Ba, Bb and Ba ∪ Bb.
    const double unit_a[2] = {1.0 / VarianceUnits(len_[a], 1),
                              1.0 / VarianceUnits(len_[a], 2)};
    const double unit_b[2] = {1.0 / VarianceUnits(len_[b], 1),
                              1.0 / VarianceUnits(len_[b], 2)};
    const double unit_m[2] = {1.0 / VarianceUnits(merged_len, 1),
                              1.0 / VarianceUnits(merged_len, 2)};
    MarkInside(union_.data());
    double delta = 0.0;
    ForEachHit([&](size_t q) {
      const Query& query = query_[q];
      double inv_new = inv_[q];
      if (Covers(ra, query)) inv_new -= unit_a[query.len - 1];
      if (Covers(rb, query)) inv_new -= unit_b[query.len - 1];
      inv_new += unit_m[query.len - 1];
      delta += 1.0 / inv_new - rcp_[q];
    });
    delta_[pair] = delta;
  }

  /// Merges the bases at positions i < j of B1 into position i, then
  /// refreshes inv_q for the queries inside the union and the Δ of every
  /// pair that shares an item with it. Every other inv_q keeps the same
  /// covering bases in the same order, and every other Δ the same inputs.
  void Merge(size_t i, size_t j) {
    const size_t a = alive_[i];
    uint64_t* ra = Row(a);
    const uint64_t* rb = Row(alive_[j]);
    size_t len = 0;
    for (size_t w = 0; w < words_; ++w) {
      ra[w] |= rb[w];
      len += static_cast<size_t>(std::popcount(ra[w]));
    }
    len_[a] = len;
    alive_.erase(alive_.begin() + static_cast<ptrdiff_t>(j));

    MarkInside(ra);
    ForEachHit([&](size_t q) {
      const Query& query = query_[q];
      double inv = 0.0;
      for (size_t r : alive_) {
        if (Covers(Row(r), query)) {
          inv += 1.0 / VarianceUnits(len_[r], query.len);
        }
      }
      for (size_t r = n1_; r < n1_ + n2_; ++r) {
        if (Covers(Row(r), query)) {
          inv += 1.0 / VarianceUnits(len_[r], query.len);
        }
      }
      inv_[q] = inv;
      UpdateRcp(q);
    });

    // A pair without the merged slot keeps its length, so only a fitting
    // one needs a new Δ.
    std::vector<char> touched(alive_.size(), 0);
    for (size_t k = 0; k < alive_.size(); ++k) {
      const uint64_t* rk = Row(alive_[k]);
      for (size_t w = 0; w < words_ && !touched[k]; ++w) {
        touched[k] = (rk[w] & ra[w]) != 0;
      }
    }
    for (size_t x = 0; x < alive_.size(); ++x) {
      for (size_t y = x + 1; y < alive_.size(); ++y) {
        const size_t c = alive_[x], d = alive_[y];
        if (c == a || d == a ||
            ((touched[x] || touched[y]) && fits_[c * n1_ + d])) {
          Score(c, d);
        }
      }
    }
  }

  const size_t n1_, n2_, max_len_;
  std::vector<Item> universe_;   // local id -> item
  size_t words_ = 0;             // row width in 64-bit words
  std::vector<uint64_t> rows_;   // B1 slots, then B2 bases
  std::vector<size_t> len_;      // |basis| per row
  std::vector<Query> query_;
  std::vector<size_t> by_lo_start_;  // CSR offsets into by_lo_
  std::vector<uint32_t> by_lo_;      // query ids grouped by lowest item
  std::vector<double> inv_;          // inv_q per query
  std::vector<double> rcp_;          // 1/inv_q per query (0 if uncovered)
  std::vector<size_t> alive_;        // B1 slots in B1 order
  std::vector<char> fits_;           // per slot pair a < b: |Ba∪Bb| ≤ ℓ
  std::vector<double> delta_;        // per slot pair a < b: cached Δ
  std::vector<uint64_t> union_;      // Ba ∪ Bb of the pair being scored
  std::vector<uint64_t> hits_;       // marked query ids (MarkInside)
};

}  // namespace

Result<BasisSet> ConstructBasisSet(const std::vector<Item>& freq_items,
                                   const std::vector<Itemset>& freq_pairs,
                                   const ConstructBasisOptions& options) {
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
  if (b1.size() >= 2) {
    CliqueMerger(b1, b2, queries, options.max_basis_length).Run(b1);
  }
  double current_ev = Ev(b1, b2, queries);

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
      double ev = Ev(trial_b1, trial_b2, queries);
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

}  // namespace privbasis
