// Algorithm 3 (PrivBasis): the end-to-end ε-DP top-k frequent itemset
// release.
//
//   1. λ  <- GetLambda(D, k, α1·ε)          number of items in the top k
//   2. F  <- GetFreqElements(items, λ, ...)  the λ most frequent items
//   3. P  <- GetFreqElements(pairs of F, λ2, ...)   (only when λ > 12)
//   4. B  <- ConstructBasisSet(F, P)         no privacy cost
//   5. top-k <- BasisFreq(D, B, k, α3·ε)
//
// Budget split α1 + α2 + α3 = 1 (defaults 0.1 / 0.4 / 0.5 as in §4.4);
// within step 2+3, α2·ε splits as β1 = α2·λ/(λ+λ2), β2 = α2 − β1. The λ2
// heuristic is λ2 = λ2'/sqrt(max(1, λ2'/λ)) with λ2' = η·k − λ.
#ifndef PRIVBASIS_CORE_PRIVBASIS_H_
#define PRIVBASIS_CORE_PRIVBASIS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/support_groups.h"
#include "core/basis.h"
#include "core/basis_freq.h"
#include "core/count_exec.h"
#include "data/transaction_db.h"
#include "dp/budget.h"
#include "fim/miner.h"

namespace privbasis {

/// Tunables of Algorithm 3. Defaults follow the paper.
struct PrivBasisOptions {
  /// Budget split across GetLambda / item+pair selection / BasisFreq.
  /// Must sum to ≤ 1 (the remainder is simply unspent).
  double alpha1 = 0.1;
  double alpha2 = 0.4;
  double alpha3 = 0.5;
  /// Safety margin η (paper: 1.1 or 1.2): GetLambda targets the
  /// ⌈η·k⌉-th itemset so that underestimating λ — the costlier error —
  /// becomes unlikely.
  double eta = 1.1;
  /// λ at or below this uses the single-basis fast path (paper: 12).
  size_t single_basis_lambda_cap = 12;
  /// Length cap handed to ConstructBasisSet (paper: 12).
  size_t max_basis_length = 12;
  /// Use the monotone-quality exponential mechanism (drops the 1/2 in the
  /// exponent) in GetFreqElements, as the pseudocode's e^{f·ε/λ} does.
  bool monotonic_em = true;
  /// Ablation switch: use the naive λ2 = η·k − λ instead of the paper's
  /// square-root-damped heuristic (§4.4 argues the naive choice spreads
  /// the pair budget too thin — bench_ablation_lambda2 measures it).
  bool naive_lambda2 = false;
  /// Practical guard: λ samples above this are clamped (a wild λ at tiny
  /// ε would otherwise make BasisFreq's width explode). 0 = min(3k, |I|).
  size_t lambda_cap = 0;
  /// Exact support of the ⌈η·k⌉-th most frequent itemset, if the caller
  /// already mined it (experiment harnesses reuse it across repetitions);
  /// 0 = compute internally. Using it changes nothing statistically —
  /// it is the same data-dependent quantity either way.
  uint64_t fk1_support_hint = 0;
  /// Cooperative cancellation for the non-BasisFreq scans (the fk1 mine
  /// and pair counting); the Engine also mirrors this into
  /// basis_freq.cancel. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
  /// Step 5 options. RunPrivBasisImpl counts through the executor it is
  /// given, so their `exec` is ignored there, and their num_threads
  /// bounds only the scans over a subsample (core/amplified.h).
  BasisFreqOptions basis_freq;
};

/// Output of one PrivBasis run.
struct PrivBasisResult {
  /// The released top-k itemsets with noisy counts, best first.
  std::vector<NoisyItemset> topk;
  // Diagnostics (all derived from DP-released intermediates — safe to
  // expose):
  uint32_t lambda = 0;       ///< sampled λ
  uint32_t lambda2 = 0;      ///< pair-selection target (0 on the fast path)
  BasisSet basis_set;        ///< the basis set used by BasisFreq
  double epsilon_spent = 0;  ///< total privacy budget actually consumed
};

/// Validates the (k, ε, options) triple of one PrivBasis query: k ≥ 1,
/// ε > 0 and finite, α1/α2/α3 positive with α1+α2+α3 ≤ 1, η ≥ 1 and
/// finite, ⌈η·k⌉ and 3·k within size_t (the margin rank and the λ cap),
/// 3 ≤ max_basis_length ≤ basis_freq.max_basis_length, and
/// single_basis_lambda_cap ≤ basis_freq.max_basis_length (ConstructBasisSet
/// and BasisFreq would refuse anything else only after ε is spent). The
/// single source of truth for option checks — QuerySpec::Validate, the
/// Engine, and the deprecated free functions all route through it.
Status ValidatePrivBasisOptions(size_t k, double epsilon,
                                const PrivBasisOptions& options);

namespace detail {

/// Mechanism implementation behind Engine::Run (the single public entry
/// point — the pre-Engine free-function wrappers are gone): every ε
/// expenditure is drawn from `accountant`, which must be a fresh
/// run-scoped ledger with at least `epsilon` of headroom (the Engine
/// constructs one per call). `result.epsilon_spent` is read back from
/// the accountant, never recomputed. The exact pair supports of step 3
/// and the bin counts of step 5 come from `exec`, which must count over
/// `db` (the Engine passes the dataset's executor, the subsampled path a
/// direct one over its sample); the fk1 mine and item selection read
/// `db` directly. A result of the wrong shape fails with kInternal.
Result<PrivBasisResult> RunPrivBasisImpl(const TransactionDatabase& db,
                                         const CountExecutor& exec, size_t k,
                                         double epsilon, Rng& rng,
                                         const PrivBasisOptions& options,
                                         PrivacyAccountant& accountant);

}  // namespace detail

// --- exposed sub-steps (unit-tested individually) ----------------------

/// Step 1: samples λ, the number of unique items in the top k itemsets,
/// with the exponential mechanism over item ranks: quality of rank j is
/// (1 − |f_itemj − f_k1|)·N (sensitivity 1). `fk1_support` is the exact
/// support of the ⌈η·k⌉-th itemset. Ranks come from the database's item
/// support groups: one Gumbel per distinct support, then a uniform rank
/// within the winning group, so a call costs O(distinct supports).
uint32_t GetLambda(const TransactionDatabase& db, uint64_t fk1_support,
                   double epsilon, Rng& rng);

/// Steps 2/3 worker: selects `count` of the candidates by repeated
/// exponential mechanism without replacement, quality = absolute support,
/// per-round budget epsilon/count. Returns selected candidate indices.
/// This form groups the supports first (one radix pass, O(n)); step 3
/// uses it over the pair supports of F.
Result<std::vector<size_t>> GetFreqElements(
    std::span<const uint64_t> candidate_supports, size_t count,
    double epsilon, bool monotonic, Rng& rng);

/// The same selection over groups the caller keeps, such as
/// db.ItemSupportGroups() for step 2: the pool borrows them instead of
/// grouping the supports again. Given the groups of the same supports,
/// both forms return the same picks and draw the same random words.
Result<std::vector<size_t>> GetFreqElements(const SupportGroups& candidates,
                                            size_t count, double epsilon,
                                            bool monotonic, Rng& rng);

/// Exact pair-support counting restricted to `items`: one data scan,
/// returns the dense upper-triangular counts, pair (i, j) with i < j at
/// index i*|items| + j. Each block of 4096 transactions becomes one
/// 4096-bit column per item, and a pair's count is the AND + popcount of
/// its two columns, so the work is m²·n/64 words however sparse D is.
/// Only the first occurrence of a repeated item, and no item outside the
/// universe, gets a column: the pairs of any other position read 0. The
/// scan splits over the thread pool like CountBasisBins (`num_threads`
/// 0 = the PRIVBASIS_THREADS env knob) and the counts are identical at
/// every thread count. A fired `cancel` token unwinds with kCancelled
/// within one block. Queries reach it through DirectCountExecutor
/// (core/batch_exec.h).
Result<std::vector<uint64_t>> CountPairSupports(
    const TransactionDatabase& db, const std::vector<Item>& items,
    size_t num_threads = 0, const CancelToken* cancel = nullptr);

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_PRIVBASIS_H_
