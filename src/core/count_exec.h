// CountExecutor: the exact-counting seam of the private mechanisms.
//
// Every data-dependent quantity PrivBasis consumes during a query is an
// exact integer COUNT over the transactions — per-basis bin histograms
// (BasisFreq), pair supports (step 3), itemset supports (batch paths).
// Counts over a horizontal partition of the database merge by plain
// integer addition, exactly, in any grouping — which is what makes
// scatter-gather execution transparent: a mechanism that pulls its
// counts through this interface produces the bit-identical release at
// any shard count, because the noise is drawn once, from the merged
// counts, by the unchanged RNG stream.
//
// Implementations: DirectCountExecutor (core/batch_exec.h) runs the
// mechanisms' own scans of the whole database, which split over the
// thread pool; RemoteShardExecutor (src/shard) scatters to
// privbasis_shardd worker processes over the length-prefixed wire
// protocol; BatchingCountExecutor wraps either to fuse concurrent
// queries' scans. The interface lives in src/core (not
// src/shard) because the mechanisms must be able to call through it
// without core depending on the shard subsystem.
//
// Error contract: an executor that cannot produce the exact count —
// a dead worker, a fired deadline — returns a non-OK status
// (kUnavailable / kCancelled) and the mechanism unwinds. It must NEVER
// return partial or approximate counts: the engine's aborted-lease path
// then charges the full ε reservation (fail closed), exactly as for any
// other mid-run failure.
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

  /// Number of horizontal shards the executor scatters over (≥ 1).
  /// Purely informational — results never depend on it.
  virtual size_t NumShards() const = 0;

  /// Exact BasisFreq bin histograms: out[i][mask] = number of
  /// transactions whose intersection with basis i is exactly the subset
  /// `mask` encodes. Identical to core CountBasisBins on the whole
  /// database (tests/shard_remote_test.cc pins the equality bit for
  /// bit).
  virtual Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const = 0;

  /// Exact pair supports restricted to `items`: dense upper-triangular
  /// counts, pair (i, j) with i < j at index i·|items| + j — the layout
  /// of core CountPairSupports.
  virtual Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items, const CancelToken* cancel) const = 0;

  /// Exact batch supports: out[q] = support(queries[q]).
  virtual Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const Itemset> queries, const CancelToken* cancel) const = 0;

  /// Exact per-item supports over the whole universe (index = item id).
  virtual Result<std::vector<uint64_t>> ItemSupports(
      const CancelToken* cancel) const = 0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_COUNT_EXEC_H_
