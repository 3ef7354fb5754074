#include "shard/sharded_db.h"

#include <utility>

namespace privbasis {

Result<ShardedDatabase> ShardedDatabase::Create(const TransactionDatabase& db,
                                                size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const size_t n = db.NumTransactions();
  std::vector<TransactionDatabase> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = n * s / num_shards;
    const size_t end = n * (s + 1) / num_shards;
    TransactionDatabase::Builder builder(db.UniverseSize());
    for (size_t t = begin; t < end; ++t) {
      const auto txn = db.Transaction(t);
      builder.AddTransaction(std::vector<Item>(txn.begin(), txn.end()));
    }
    PRIVBASIS_ASSIGN_OR_RETURN(TransactionDatabase slice,
                               std::move(builder).Build());
    shards.push_back(std::move(slice));
  }
  return ShardedDatabase(std::move(shards), n, db.UniverseSize());
}

}  // namespace privbasis
