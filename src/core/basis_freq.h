// Algorithm 1 (BasisFreq): privately releasing frequent itemsets from a
// basis set.
//
// Each basis Bi partitions transactions into 2^|Bi| disjoint bins (one per
// subset of Bi: the transactions whose intersection with Bi is exactly
// that subset). Releasing all bin counts of all w bases has sensitivity w,
// so Lap(w/ε) noise per bin gives ε-DP. Itemset counts are recovered as
// superset bin-sums; itemsets covered by several bases fuse their
// estimates with inverse-variance weights.
#ifndef PRIVBASIS_CORE_BASIS_FREQ_H_
#define PRIVBASIS_CORE_BASIS_FREQ_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/basis.h"
#include "data/transaction_db.h"
#include "dp/budget.h"
#include "fim/miner.h"

namespace privbasis {

class CountExecutor;  // core/count_exec.h

/// Tuning and test hooks of BasisFreq.
struct BasisFreqOptions {
  /// Test hook: false runs the identical pipeline with zero noise, turning
  /// BasisFreq into an exact candidate-set counter.
  bool inject_noise = true;
  /// Hard cap on basis length — 2^len bins are materialized per basis.
  size_t max_basis_length = 20;
  /// Transaction-scan parallelism when `exec` is unset; 0 = the
  /// PRIVBASIS_THREADS env knob. The output is bit-identical at every
  /// thread count: shards reduce exact integer counts and the sequential
  /// floating-point accumulation is replayed before noise-side
  /// processing.
  size_t num_threads = 0;
  /// Cooperative cancellation: the scan polls once per transaction chunk
  /// and unwinds with kCancelled within one shard-chunk of the token
  /// firing. nullptr = not cancellable. Note the epsilon consumed from
  /// `accountant` stays consumed — it was reserved before the scan.
  const CancelToken* cancel = nullptr;
  /// Counting seam (core/count_exec.h): the exact bin counts come from
  /// `exec->BasisBinCounts` (the server's batcher may fuse them with
  /// other queries' scans), or from a DirectCountExecutor over `db` with
  /// `num_threads` when unset. Bit-identical either way — counting
  /// consumes no randomness, so the noise draws are unchanged.
  const CountExecutor* exec = nullptr;
};

/// Output of one BasisFreq invocation.
struct BasisFreqResult {
  /// The k itemsets of C(B) with the highest noisy counts, best first
  /// (deterministic tie-break: count desc, length asc, items lex).
  std::vector<NoisyItemset> topk;
  /// Number of distinct candidate itemsets in C(B).
  size_t num_candidates = 0;
};

/// The exact-counting half of Algorithm 1, run by DirectCountExecutor
/// (core/batch_exec.h): out[i][mask] = number of transactions whose
/// intersection with basis i is exactly the subset `mask` encodes (out[i]
/// has 2^|Bi| entries). Consumes no randomness. `num_threads` 0 = the
/// PRIVBASIS_THREADS env knob; a fired `cancel` token unwinds with
/// kCancelled within one transaction chunk.
Result<std::vector<std::vector<uint64_t>>> CountBasisBins(
    const TransactionDatabase& db, const BasisSet& basis_set,
    size_t num_threads = 0, const CancelToken* cancel = nullptr);

/// In-place sum-over-supersets (zeta) transform of one basis's 2^len
/// bins: afterwards bins[mask] = Σ_{super ⊇ mask} original bins[super].
/// O(len · 2^len), against O(3^len) for enumerating each mask's
/// supersets, the complexity the paper's analysis quotes.
void SupersetSum(std::vector<double>* bins, size_t len);

/// Runs Algorithm 1 with privacy budget `epsilon`. If `accountant` is
/// non-null, `epsilon` is charged to it (fails when the budget is
/// exhausted). `k` = 0 returns every candidate instead of the top k.
Result<BasisFreqResult> BasisFreq(const TransactionDatabase& db,
                                  const BasisSet& basis_set, size_t k,
                                  double epsilon, Rng& rng,
                                  PrivacyAccountant* accountant = nullptr,
                                  const BasisFreqOptions& options = {});

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_BASIS_FREQ_H_
