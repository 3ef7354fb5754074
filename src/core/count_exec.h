// CountExecutor: the exact-counting seam of the private mechanisms.
//
// Every data-dependent quantity PrivBasis consumes during a query after
// item selection is an exact integer COUNT over the transactions: the
// pair supports of step 3 and the per-basis bin histograms of BasisFreq.
// Exact counts merge by plain integer addition in any grouping, so an
// executor may fuse or split the scans behind them freely: a mechanism
// that pulls its counts through this interface produces the
// bit-identical release, because the noise is drawn once, from the
// exact counts, by the unchanged RNG stream.
//
// Implementations (core/batch_exec.h): DirectCountExecutor runs the two
// scans (CountPairSupports, CountBasisBins) over one database, split
// over the thread pool; it is the only caller of those scans, and every
// Dataset holds one. BatchingCountExecutor wraps a dataset's executor
// to fuse concurrent queries' scans. A query calls only PairSupports
// and BasisBinCounts, the two pure virtuals.
//
// Error contract: an executor that cannot produce the exact count —
// a fired deadline, a backend that went away — returns a non-OK status
// (kCancelled / kUnavailable) and the mechanism unwinds. It must NEVER
// return partial or approximate counts: the engine's aborted-lease path
// then charges the full ε reservation (fail closed), exactly as for any
// other mid-run failure. A result of the wrong shape fails the query
// with kInternal, charged the same way.
#ifndef PRIVBASIS_CORE_COUNT_EXEC_H_
#define PRIVBASIS_CORE_COUNT_EXEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/basis.h"
#include "data/itemset.h"

namespace privbasis {

class CountExecutor {
 public:
  virtual ~CountExecutor() = default;

  /// Exact BasisFreq bin histograms: out[i][mask] = number of
  /// transactions whose intersection with basis i is exactly the subset
  /// `mask` encodes. Identical to core CountBasisBins on the whole
  /// database.
  virtual Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const = 0;

  /// Exact pair supports restricted to `items`: dense upper-triangular
  /// counts, pair (i, j) with i < j at index i·|items| + j — the layout
  /// of core CountPairSupports.
  virtual Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items, const CancelToken* cancel) const = 0;

  // No query calls the three below, and no executor in src/ overrides
  // them. They remain only because the benchmark's TimedCountExecutor
  // (perfbench/src/stages.cc) marks each one `override`; they go with the
  // next change to the benchmark.

  /// Always 1: every executor counts in this process.
  virtual size_t NumShards() const { return 1; }

  /// Refuses: batch itemset supports are not a query op.
  virtual Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const Itemset>, const CancelToken*) const {
    return Status::Internal("SupportOfMany is not a query op");
  }

  /// Refuses: item selection reads the database's support order.
  virtual Result<std::vector<uint64_t>> ItemSupports(
      const CancelToken*) const {
    return Status::Internal("ItemSupports is not a query op");
  }
};

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_COUNT_EXEC_H_
