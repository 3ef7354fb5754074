// Sharded scatter-gather execution (src/shard): the merge-exactness
// invariants that make the shard count an execution detail.
//
//   * Partitioning covers every transaction exactly once, at any shard
//     count (including counts above N — empty tails).
//   * Every count a privbasis_shardd worker computes on its slice — item
//     supports, pair supports, basis bin counts, batch itemset supports —
//     sums over the slices to the bit-identical integers a scan of the
//     whole database produces, at 1/2/4/8 slices, with candidates from
//     the exact miners.
//   * Cancellation fails closed: a fired token surfaces kCancelled from
//     the executor, never a partial count.
//
// tests/shard_remote_test.cc drives the same counts through the worker
// processes' wire protocol and Engine::Run end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/basis_freq.h"
#include "core/batch_exec.h"
#include "core/count_exec.h"
#include "core/privbasis.h"
#include "data/vertical_index.h"
#include "engine/dataset.h"
#include "engine/engine.h"
#include "fim/apriori.h"
#include "fim/fpgrowth.h"
#include "shard/sharded_db.h"
#include "test_util.h"

namespace privbasis {
namespace {

using privbasis::testing::MakeDb;
using privbasis::testing::MakeRandomDb;
using privbasis::testing::RandomDbSpec;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

/// Enough transactions that the whole-database scans, and the slices of
/// a 2-way split, take the pool-split path.
constexpr size_t kSplitTransactions = 10000;

template <typename T>
T ValueOrFail(Result<T> result) {
  if (!result.ok()) {
    ADD_FAILURE() << result.status().ToString();
    return T{};
  }
  return std::move(result).value();
}

void AddInto(std::vector<uint64_t>* sum, const std::vector<uint64_t>& part) {
  ASSERT_EQ(sum->size(), part.size());
  for (size_t i = 0; i < part.size(); ++i) (*sum)[i] += part[i];
}

void AddInto(std::vector<std::vector<uint64_t>>* sum,
             const std::vector<std::vector<uint64_t>>& part) {
  ASSERT_EQ(sum->size(), part.size());
  for (size_t i = 0; i < part.size(); ++i) AddInto(&(*sum)[i], part[i]);
}

/// Runs `count` on each slice — what a privbasis_shardd worker runs on
/// its slice — and sums the results in slice order, as the coordinator
/// merges the workers' replies.
template <typename CountFn>
auto SumOverSlices(const ShardedDatabase& sharded, CountFn count) {
  auto sum = count(sharded.shard(0));
  for (size_t s = 1; s < sharded.NumShards(); ++s) {
    AddInto(&sum, count(sharded.shard(s)));
  }
  return sum;
}

TEST(ShardedDatabaseTest, PartitionCoversEveryTransactionOnce) {
  const TransactionDatabase db = MakeRandomDb({.seed = 7});
  for (const size_t num_shards : {1ul, 2ul, 5ul, 8ul}) {
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                   ShardedDatabase::Create(db, num_shards));
    ASSERT_EQ(sharded.NumShards(), num_shards);
    EXPECT_EQ(sharded.NumTransactions(), db.NumTransactions());
    EXPECT_EQ(sharded.UniverseSize(), db.UniverseSize());
    // Concatenating the slices in shard order reproduces the database.
    size_t global = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const TransactionDatabase& slice = sharded.shard(s);
      EXPECT_EQ(slice.UniverseSize(), db.UniverseSize());
      for (size_t t = 0; t < slice.NumTransactions(); ++t, ++global) {
        const auto expect = db.Transaction(global);
        const auto got = slice.Transaction(t);
        ASSERT_EQ(std::vector<Item>(expect.begin(), expect.end()),
                  std::vector<Item>(got.begin(), got.end()));
      }
    }
    EXPECT_EQ(global, db.NumTransactions());
  }
}

TEST(ShardedDatabaseTest, MoreShardsThanTransactionsLeavesEmptyTails) {
  const TransactionDatabase db = MakeDb({{0, 1}, {1, 2}, {0, 2}});
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                 ShardedDatabase::Create(db, 8));
  size_t total = 0;
  for (size_t s = 0; s < sharded.NumShards(); ++s) {
    total += sharded.shard(s).NumTransactions();
  }
  EXPECT_EQ(total, 3u);
}

TEST(ShardedDatabaseTest, ZeroShardsIsRejected) {
  const TransactionDatabase db = MakeDb({{0, 1}});
  EXPECT_FALSE(ShardedDatabase::Create(db, 0).ok());
}

TEST(ShardExecTest, ItemSupportsMergeExactly) {
  const TransactionDatabase db = MakeRandomDb({.seed = 11});
  const std::vector<uint64_t>& expected = db.ItemSupports();
  for (const size_t num_shards : kShardCounts) {
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                   ShardedDatabase::Create(db, num_shards));
    const std::vector<uint64_t> merged = SumOverSlices(
        sharded,
        [](const TransactionDatabase& slice) { return slice.ItemSupports(); });
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

TEST(ShardExecTest, PairSupportsMergeExactly) {
  const TransactionDatabase db =
      MakeRandomDb({.seed = 13, .num_transactions = kSplitTransactions});
  const std::vector<Item> items = {0, 1, 2, 3, 5, 8};
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      std::vector<uint64_t> expected,
      CountPairSupports(db, items, /*num_threads=*/1));
  for (const size_t num_shards : kShardCounts) {
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                   ShardedDatabase::Create(db, num_shards));
    const std::vector<uint64_t> merged = SumOverSlices(
        sharded, [&](const TransactionDatabase& slice) {
          return ValueOrFail(
              CountPairSupports(slice, items, /*num_threads=*/4));
        });
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

TEST(ShardExecTest, BasisBinCountsMergeExactly) {
  const TransactionDatabase db =
      MakeRandomDb({.seed = 17, .num_transactions = kSplitTransactions});
  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1, 2}));
  basis_set.Add(Itemset({1, 3, 5, 7}));
  basis_set.Add(Itemset({4}));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      std::vector<std::vector<uint64_t>> expected,
      CountBasisBins(db, basis_set, /*num_threads=*/1));
  for (const size_t num_shards : kShardCounts) {
    PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                   ShardedDatabase::Create(db, num_shards));
    const std::vector<std::vector<uint64_t>> merged = SumOverSlices(
        sharded, [&](const TransactionDatabase& slice) {
          return ValueOrFail(
              CountBasisBins(slice, basis_set, /*num_threads=*/4));
        });
    EXPECT_EQ(merged, expected) << num_shards << " shards";
  }
}

// Batch supports merge exactly for candidates surfaced by the exact
// miners: the queries a real mechanism would issue, not hand-picked ones.
// The miners' own exact supports double as the oracle.
TEST(ShardExecTest, SupportOfManyMergesExactlyForAllMiners) {
  const TransactionDatabase db = MakeRandomDb(
      {.seed = 19, .num_transactions = 80, .universe = 10});
  MiningOptions mining;
  mining.min_support = 4;
  mining.max_length = 4;

  PRIVBASIS_ASSERT_OK_AND_ASSIGN(MiningResult apriori,
                                 MineApriori(db, mining));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(MiningResult fpgrowth,
                                 MineFpGrowth(db, mining));
  ASSERT_FALSE(apriori.itemsets.empty());

  for (const MiningResult* mined : {&apriori, &fpgrowth}) {
    std::vector<Itemset> queries;
    std::vector<uint64_t> expected;
    for (const FrequentItemset& f : mined->itemsets) {
      queries.push_back(f.items);
      expected.push_back(f.support);
    }
    for (const size_t num_shards : kShardCounts) {
      PRIVBASIS_ASSERT_OK_AND_ASSIGN(ShardedDatabase sharded,
                                     ShardedDatabase::Create(db, num_shards));
      const std::vector<uint64_t> merged = SumOverSlices(
          sharded, [&](const TransactionDatabase& slice) {
            return VerticalIndex(slice).SupportOfMany(queries,
                                                      /*num_threads=*/2);
          });
      EXPECT_EQ(merged, expected) << num_shards << " shards";
    }
  }
}

// A fresh dataset builds no executor and no VerticalIndex, and a query
// on it scans db() directly: its fan-out stays 1.
TEST(ShardExecTest, UnshardedDatasetSkipsExecutor) {
  auto dataset = Dataset::Create(
      MakeRandomDb({.seed = 29, .num_transactions = 120, .universe = 14}));
  EXPECT_EQ(dataset->count_executor(), nullptr);
  EXPECT_EQ(dataset->shard_fanout(), 1u);

  QuerySpec spec;
  spec.k = 12;
  spec.epsilon = 1.0;
  spec.seed = 4242;
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release release,
                                 Engine::Run(*dataset, spec));
  EXPECT_FALSE(release.itemsets.empty());
  EXPECT_EQ(dataset->count_executor(), nullptr);
  EXPECT_EQ(dataset->shard_fanout(), 1u);
  EXPECT_EQ(dataset->cache_counters().index_builds, 0u);
}

// A fired token surfaces kCancelled from every op — never a partial or
// garbage count (the fail-closed half of the executor contract) — on a
// database large enough that the pair and bin scans split over the pool.
TEST(ShardExecTest, FiredTokenFailsClosed) {
  auto db = std::make_shared<const TransactionDatabase>(
      MakeRandomDb({.seed = 31, .num_transactions = kSplitTransactions}));
  const DirectCountExecutor exec(
      db, std::make_shared<const VerticalIndex>(*db), /*num_threads=*/4);
  CancelToken token;
  token.Cancel();

  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1}));
  EXPECT_EQ(exec.BasisBinCounts(basis_set, &token).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(exec.PairSupports({0, 1, 2}, &token).status().code(),
            StatusCode::kCancelled);
  const std::vector<Itemset> queries = {Itemset({0}), Itemset({1, 2})};
  EXPECT_EQ(exec.SupportOfMany(queries, &token).status().code(),
            StatusCode::kCancelled);
}

// Satellite regression (PR 6 gap): the batch path itself honors the
// token, independent of the executor wrapper.
TEST(ShardExecTest, VerticalIndexBatchHonorsCancelToken) {
  const TransactionDatabase db = MakeRandomDb({.seed = 37});
  const VerticalIndex index(db);
  const std::vector<Itemset> queries(200, Itemset({0, 1}));
  CancelToken token;
  token.Cancel();
  // Fired before the call: the partial-fill contract says the caller
  // checks the token and discards; the vector overload still returns a
  // (discardable) buffer, but no crash and no hang.
  (void)index.SupportOfMany(queries, /*num_threads=*/2, &token);
  EXPECT_TRUE(token.Cancelled());
}

}  // namespace
}  // namespace privbasis
