// ShardedDatabase: horizontal partition of a TransactionDatabase.
//
// Transactions are split into N contiguous ranges [n·s/N, n·(s+1)/N);
// each shard owns its own TransactionDatabase slice, with the parent's
// item universe so per-shard ItemSupports line up index-for-index. The
// coordinator ships one slice to each privbasis_shardd worker process
// (shard/wire.h). Because every quantity the mechanisms consume is an
// exact integer count, per-slice partials merge by plain addition — the
// shard count is an execution detail that never shows up in results
// (tests/shard_test.cc and tests/shard_remote_test.cc pin this bit for
// bit).
#ifndef PRIVBASIS_SHARD_SHARDED_DB_H_
#define PRIVBASIS_SHARD_SHARDED_DB_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "data/transaction_db.h"

namespace privbasis {

class ShardedDatabase {
 public:
  /// Partitions `db` into `num_shards` contiguous slices. Shard counts
  /// above the transaction count are allowed (the tail shards are
  /// empty). Fails only on num_shards == 0.
  static Result<ShardedDatabase> Create(const TransactionDatabase& db,
                                        size_t num_shards);

  size_t NumShards() const { return shards_.size(); }

  /// The slice owned by shard `s`.
  const TransactionDatabase& shard(size_t s) const { return shards_[s]; }

  /// Total transactions across all shards (= the parent's N).
  size_t NumTransactions() const { return num_transactions_; }
  uint32_t UniverseSize() const { return universe_size_; }

 private:
  ShardedDatabase(std::vector<TransactionDatabase> shards,
                  size_t num_transactions, uint32_t universe_size)
      : shards_(std::move(shards)),
        num_transactions_(num_transactions),
        universe_size_(universe_size) {}

  std::vector<TransactionDatabase> shards_;
  size_t num_transactions_ = 0;
  uint32_t universe_size_ = 0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_SHARD_SHARDED_DB_H_
