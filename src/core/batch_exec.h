// Same-dataset query batching at the CountExecutor seam.
//
// N concurrent queries against one dataset each run their own counting
// scans even though the scans are over the same transactions —
// VerticalIndex::SupportOfMany and the fused CountBasisBins OR-word
// path exist precisely to amortize them. BatchingCountExecutor wraps
// any CountExecutor with a rendezvous gate per operation kind:
// concurrent calls of the same kind are collected for a bounded window
// (sized by the caller's live in-flight hint), fused into ONE inner
// scan, and the exact per-member counts are split back out.
//
// Determinism: the fusion merges/splits EXACT integer counts before any
// member draws noise, and a member that arrives alone passes through to
// the inner executor verbatim (same function, same cancel token) — so
// every query's release is bit-identical to its unbatched run at the
// same seed, whether or not co-riders showed up. The error contract is
// the CountExecutor one: a failed fused scan fails every member with
// the status (never partial counts), and a member whose own deadline
// fired during a shared scan gets kCancelled even when the scan
// finished — fail-closed either way.
//
// DirectCountExecutor adapts the direct-scan path (the same
// CountBasisBins / CountPairSupports / VerticalIndex::SupportOfMany
// calls the mechanisms make when no executor is attached) to the
// CountExecutor interface, so batching composes with fanout 1 as well
// as with the coordinator's RemoteShardExecutor.
#ifndef PRIVBASIS_CORE_BATCH_EXEC_H_
#define PRIVBASIS_CORE_BATCH_EXEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "core/count_exec.h"
#include "data/transaction_db.h"
#include "data/vertical_index.h"

namespace privbasis {

/// Monotone batching counters (one instance can be shared across every
/// dataset's batcher — the server aggregates them into /v1/stats).
struct BatchStats {
  std::atomic<uint64_t> batches{0};          ///< fused scans (≥ 2 members)
  std::atomic<uint64_t> batched_queries{0};  ///< members that rode one
  std::atomic<uint64_t> scans_saved{0};      ///< Σ over batches of (n − 1)
};

/// The direct-scan path behind the CountExecutor interface: every op
/// calls the exact function the mechanisms use when no executor is
/// attached, so attaching this executor never changes a release bit.
/// `num_threads` bounds the pair and bin scans and the batch supports
/// (0 = the PRIVBASIS_THREADS env knob).
class DirectCountExecutor : public CountExecutor {
 public:
  DirectCountExecutor(std::shared_ptr<const TransactionDatabase> db,
                      std::shared_ptr<const VerticalIndex> index,
                      size_t num_threads = 0)
      : db_(std::move(db)),
        index_(std::move(index)),
        num_threads_(num_threads) {}

  size_t NumShards() const override { return 1; }

  Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items, const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const Itemset> queries,
      const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> ItemSupports(
      const CancelToken* cancel) const override;

 private:
  std::shared_ptr<const TransactionDatabase> db_;
  std::shared_ptr<const VerticalIndex> index_;
  size_t num_threads_;
};

class BatchingCountExecutor : public CountExecutor {
 public:
  struct Options {
    /// Longest a batch leader waits for co-riders, in microseconds.
    /// ≤ 0 disables batching entirely (all ops pass straight through).
    int64_t window_us = 0;
    /// Members per fused scan (≤ 1 disables batching).
    size_t max_batch = 8;
  };

  /// `stats` may be null (counters dropped) or shared across executors.
  BatchingCountExecutor(std::shared_ptr<const CountExecutor> inner,
                        Options options,
                        std::shared_ptr<BatchStats> stats = nullptr);
  ~BatchingCountExecutor() override;

  /// Scheduling signal from the serving layer: queries bracket their
  /// Engine::Run with BeginQuery/EndQuery, and a round's target size is
  /// the number of queries currently in flight (capped by max_batch).
  /// With one query in flight, every op passes through immediately —
  /// batching never adds latency without co-riders. `window_hint_us`
  /// > 0 shrinks the wait window for this load level (the cost model's
  /// predicted latency makes long windows pointless for cheap queries).
  void BeginQuery(int64_t window_hint_us = 0);
  void EndQuery();

  const CountExecutor& inner() const { return *inner_; }

  size_t NumShards() const override { return inner_->NumShards(); }

  Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items, const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const Itemset> queries,
      const CancelToken* cancel) const override;
  Result<std::vector<uint64_t>> ItemSupports(
      const CancelToken* cancel) const override;

 private:
  /// One rendezvous round: members register (request pointer + their
  /// cancel token), the leader closes the round and runs the fused
  /// scan, everyone reads their slice. Requests are raw pointers into
  /// the members' stacks — valid because every member blocks in the
  /// gate until `done`.
  template <typename Req, typename Resp>
  struct Round {
    Mutex mu;
    CondVar cv;
    bool closed PB_GUARDED_BY(mu) = false;  ///< no further joiners
    bool done PB_GUARDED_BY(mu) = false;    ///< status/resps are valid
    std::vector<const Req*> reqs PB_GUARDED_BY(mu);
    std::vector<const CancelToken*> cancels PB_GUARDED_BY(mu);
    Status status PB_GUARDED_BY(mu) = Status::OK();
    std::vector<Resp> resps PB_GUARDED_BY(mu);
  };

  template <typename Req, typename Resp>
  struct Gate {
    Mutex mu;
    std::shared_ptr<Round<Req, Resp>> current PB_GUARDED_BY(mu);
  };

  /// Joins (or leads) a round on `gate`. `fuse` is called once by the
  /// leader with all member requests + the fused cancel token and must
  /// return one Resp per member, in member order.
  template <typename Req, typename Resp, typename Fuse>
  Result<Resp> RunBatched(Gate<Req, Resp>& gate, const Req& req,
                          const CancelToken* cancel, Fuse&& fuse) const;

  /// True when an op should skip the gate (batching off / nobody to
  /// share with).
  bool Passthrough() const;

  std::shared_ptr<const CountExecutor> inner_;
  Options options_;
  std::shared_ptr<BatchStats> stats_;

  std::atomic<int64_t> inflight_{0};
  std::atomic<int64_t> window_hint_us_{0};

  struct BasisBinReq {
    const BasisSet* basis_set;
  };
  struct PairReq {
    const std::vector<Item>* items;
  };
  struct ManyReq {
    std::span<const Itemset> queries;
  };
  struct ItemReq {};

  mutable Gate<BasisBinReq, std::vector<std::vector<uint64_t>>> bin_gate_;
  mutable Gate<PairReq, std::vector<uint64_t>> pair_gate_;
  mutable Gate<ManyReq, std::vector<uint64_t>> many_gate_;
  mutable Gate<ItemReq, std::vector<uint64_t>> item_gate_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_BATCH_EXEC_H_
