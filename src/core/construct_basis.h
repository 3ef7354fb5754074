// Algorithm 2 (ConstructBasisSet): build a basis set covering all maximal
// cliques of the frequent-pairs graph (F, P), then greedily reshape it to
// minimize the average-case error variance over the queries Q = F ∪ P:
//
//   B1 <- maximal cliques of size >= 2          (Proposition 5)
//   B2 <- items of F \ P packed into triples    (2^{l-1}/l² minimal at l=3)
//   merge pairs of B1 while that reduces EV     (Proposition 4)
//   dissolve B2 bases into smallest others while that reduces EV
//
// The merge (Line 4) dominates construction, so it runs on a dense
// representation. Items get local ids 0..m−1 (their rank among Q's items),
// every basis is a row of ⌈m/64⌉ words, and Q is indexed by each query's
// lowest local item, so a candidate (i, j) visits only the queries inside
// Bi ∪ Bj. Each pair's Δ (its change to Σ_q 1/inv_q) and whether it fits
// under the length cap are cached. After a merge, only inv_q of the
// queries inside the merged basis is recomputed, and only the pairs that
// share an item with it are rescored. A round therefore costs O(|B1|²)
// cached comparisons, a refresh of the merged basis's queries against
// every basis, and one rescore per touched pair. A rescore reads
// ⌈m/64⌉ + ⌈|Q|/64⌉ words plus the queries indexed under the union's
// items. The old loop ran O(|B1|²·|Q|) sorted-vector subset tests per
// round.
//
// The output is bit-identical to the direct loop kept as a test oracle in
// tests/construct_basis_reference.h, and every merge decision is the same:
//   - pairs are scanned in (i, j) order, i < j, and a pair wins only on a
//     strictly lower EV (`<`), so the first of tied pairs is kept;
//   - a candidate's Δ is summed over its queries in ascending query order,
//     term by term as 1/inv'_q − (inv_q > 0 ? 1/inv_q : 0), with
//     inv'_q = inv_q − [q ⊆ Bi]/2^{|Bi|−|q|} − [q ⊆ Bj]/2^{|Bj|−|q|}
//     + 1/2^{|Bi∪Bj|−|q|};
//   - each round recomputes s = Σ_q 1/inv_q in query order, and every
//     inv_q is summed over its covering bases in basis order (B1, then B2);
//   - a candidate's EV is (w−1)²·(s+Δ), with w = |B1| + |B2|;
//   - the union replaces Bi, and Bj is erased, keeping the order of the
//     remaining bases.
// A cached Δ is reused only while Bi, Bj and every inv_q it read are
// unchanged, so it equals a fresh evaluation to the bit.
#ifndef PRIVBASIS_CORE_CONSTRUCT_BASIS_H_
#define PRIVBASIS_CORE_CONSTRUCT_BASIS_H_

#include <vector>

#include "common/status.h"
#include "core/basis.h"
#include "data/itemset.h"

namespace privbasis {

struct ConstructBasisOptions {
  /// Hard cap on any basis length: merges/moves that would exceed it are
  /// not considered (the paper limits ℓ to at most 12 — §4.2 running-time
  /// analysis).
  size_t max_basis_length = 12;
};

/// Builds a basis set from frequent items F and frequent pairs P. Each
/// pair must have exactly two items; pair endpoints missing from F are
/// treated as members of F. Purely post-processing — never touches the
/// dataset (this is what keeps Algorithm 3's step 4 free of privacy cost).
Result<BasisSet> ConstructBasisSet(const std::vector<Item>& freq_items,
                                   const std::vector<Itemset>& freq_pairs,
                                   const ConstructBasisOptions& options = {});

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_CONSTRUCT_BASIS_H_
