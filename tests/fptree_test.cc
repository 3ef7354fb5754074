#include "fim/fptree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "apriori_reference.h"
#include "brute_force_reference.h"
#include "fim/fpgrowth.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;
using ::privbasis::testing::MineApriori;
using ::privbasis::testing::MineBruteForce;

TEST(FpTreeTest, RanksOrderedByDescendingSupport) {
  // supports: 0 -> 1, 1 -> 2, 2 -> 3.
  TransactionDatabase db = MakeDb({{0, 1, 2}, {1, 2}, {2}});
  FpTree tree(db, 1);
  ASSERT_EQ(tree.NumRanks(), 3u);
  EXPECT_EQ(tree.ItemAt(0), 2u);
  EXPECT_EQ(tree.ItemAt(1), 1u);
  EXPECT_EQ(tree.ItemAt(2), 0u);
  EXPECT_EQ(tree.SupportAt(0), 3u);
  EXPECT_EQ(tree.SupportAt(1), 2u);
  EXPECT_EQ(tree.SupportAt(2), 1u);
}

TEST(FpTreeTest, MinSupportFiltersItems) {
  TransactionDatabase db = MakeDb({{0, 1}, {1}, {1}});
  FpTree tree(db, 2);
  ASSERT_EQ(tree.NumRanks(), 1u);
  EXPECT_EQ(tree.ItemAt(0), 1u);
  EXPECT_TRUE(FpTree(db, 10).Empty());
}

TEST(FpTreeTest, SharedPrefixesCompress) {
  // Identical transactions must share one path: nodes = root + |t|.
  TransactionDatabase db =
      MakeDb({{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}});
  FpTree tree(db, 1);
  EXPECT_EQ(tree.NumNodes(), 4u);  // root + 3 items
}

TEST(FpTreeTest, DisjointTransactionsBranch) {
  TransactionDatabase db = MakeDb({{0, 1}, {2, 3}});
  FpTree tree(db, 1);
  EXPECT_EQ(tree.NumNodes(), 5u);  // root + 2 + 2
}

TEST(FpTreeTest, ConditionalTreeSupportsArePairSupports) {
  // The conditional tree of rank r reports, for every other item x, the
  // support of {item(r), x}.
  TransactionDatabase db = MakeRandomDb(
      {.seed = 3, .num_transactions = 60, .universe = 8, .item_prob = 0.5});
  FpTree tree(db, 1);
  for (uint32_t rank = 0; rank < tree.NumRanks(); ++rank) {
    FpTree cond = tree.ConditionalTree(rank, 1);
    Item base = tree.ItemAt(rank);
    for (uint32_t crank = 0; crank < cond.NumRanks(); ++crank) {
      Item other = cond.ItemAt(crank);
      EXPECT_EQ(cond.SupportAt(crank),
                db.SupportOf(Itemset({base, other})))
          << "pair {" << base << "," << other << "}";
    }
  }
}

TEST(FpTreeTest, ConditionalTreeRespectsMinSupport) {
  TransactionDatabase db = MakeDb({{0, 1}, {0, 1}, {0, 2}});
  FpTree tree(db, 1);
  // Condition on the rank of item 1 (support 2): item 0 co-occurs twice.
  uint32_t rank1 = 0;
  for (uint32_t r = 0; r < tree.NumRanks(); ++r) {
    if (tree.ItemAt(r) == 1) rank1 = r;
  }
  FpTree cond_loose = tree.ConditionalTree(rank1, 1);
  EXPECT_EQ(cond_loose.NumRanks(), 1u);
  FpTree cond_tight = tree.ConditionalTree(rank1, 3);
  EXPECT_TRUE(cond_tight.Empty());
}

TEST(FpTreeTest, EmptyDatabase) {
  TransactionDatabase db = MakeDb({}, /*universe=*/3);
  FpTree tree(db, 1);
  EXPECT_TRUE(tree.Empty());
  EXPECT_EQ(tree.NumNodes(), 1u);  // just the root
}

TEST(FpTreeTest, NodeCountBoundedByOccurrences) {
  TransactionDatabase db = MakeRandomDb({.seed = 7, .num_transactions = 100});
  FpTree tree(db, 1);
  EXPECT_LE(tree.NumNodes(), db.TotalItemOccurrences() + 1);
}

/// Structural invariants of the CSR arena: children slices sorted by rank
/// (binary-searchable via FindChild), ranks strictly ascending along
/// every root path, and the per-rank node index covering every node with
/// counts summing to the rank's support.
TEST(FpTreeTest, CsrLayoutInvariants) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    TransactionDatabase db = MakeRandomDb(
        {.seed = seed, .num_transactions = 120, .universe = 10,
         .item_prob = 0.4});
    FpTree tree(db, 2);
    size_t children_seen = 0;
    for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
      auto kids = tree.Children(node);
      children_seen += kids.size();
      for (size_t i = 0; i < kids.size(); ++i) {
        EXPECT_EQ(tree.NodeParent(kids[i]), node);
        if (node != 0) {
          EXPECT_GT(tree.NodeRank(kids[i]), tree.NodeRank(node));
        }
        if (i > 0) {
          EXPECT_LT(tree.NodeRank(kids[i - 1]), tree.NodeRank(kids[i]));
        }
        EXPECT_EQ(tree.FindChild(node, tree.NodeRank(kids[i])), kids[i]);
      }
      EXPECT_EQ(tree.FindChild(node, FpTree::kNil - 2), FpTree::kNil);
    }
    EXPECT_EQ(children_seen, tree.NumNodes() - 1);  // every node but root

    size_t indexed = 0;
    for (uint32_t rank = 0; rank < tree.NumRanks(); ++rank) {
      uint64_t total = 0;
      for (uint32_t node : tree.NodesOfRank(rank)) {
        EXPECT_EQ(tree.NodeRank(node), rank);
        total += tree.NodeCount(node);
        ++indexed;
      }
      EXPECT_EQ(total, tree.SupportAt(rank)) << "rank " << rank;
    }
    EXPECT_EQ(indexed, tree.NumNodes() - 1);

    const auto& order = tree.RanksBySupport();
    ASSERT_EQ(order.size(), tree.NumRanks());
    for (size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(tree.SupportAt(order[i - 1]), tree.SupportAt(order[i]));
    }
  }
}

/// Conditional trees keep the same invariants and the monotone remap
/// preserves the relative order of surviving items.
TEST(FpTreeTest, ConditionalTreeKeepsRelativeRankOrder) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 17, .num_transactions = 80, .universe = 9, .item_prob = 0.5});
  FpTree tree(db, 1);
  for (uint32_t rank = 1; rank < tree.NumRanks(); ++rank) {
    FpTree cond = tree.ConditionalTree(rank, 2);
    // Surviving items appear in the same relative order as in the parent.
    std::vector<uint32_t> parent_positions;
    for (uint32_t cr = 0; cr < cond.NumRanks(); ++cr) {
      Item item = cond.ItemAt(cr);
      uint32_t pos = FpTree::kNil;
      for (uint32_t pr = 0; pr < rank; ++pr) {
        if (tree.ItemAt(pr) == item) pos = pr;
      }
      ASSERT_NE(pos, FpTree::kNil);
      parent_positions.push_back(pos);
    }
    EXPECT_TRUE(std::is_sorted(parent_positions.begin(),
                               parent_positions.end()));
  }
}

/// End-to-end oracle check: the CSR-arena tree mines exactly the
/// brute-force pattern sets on seeded random databases, at every thread
/// count.
TEST(FpTreeTest, MinesIdenticalPatternSetsToBruteForce) {
  for (uint64_t seed : {5u, 23u, 71u}) {
    TransactionDatabase db = MakeRandomDb(
        {.seed = seed, .num_transactions = 70, .universe = 11,
         .item_prob = 0.45});
    MiningOptions options;
    options.min_support = 3;
    options.max_length = 6;
    auto want = MineBruteForce(db, options);
    ASSERT_TRUE(want.ok());
    for (size_t threads : {1u, 2u, 8u}) {
      options.num_threads = threads;
      auto got = MineFpGrowth(db, options);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->itemsets, want->itemsets)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

/// Oracle coverage for the >64-rank build path: trees with more than 64
/// frequent items cannot pack paths into one 64-bit key and take the
/// lexicographic BuildFromPaths merge instead. Cross-check FP-Growth
/// against Apriori (an independent implementation) on such a tree.
TEST(FpTreeTest, WideTreeUsesPathMergeAndMatchesApriori) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 97, .num_transactions = 400, .universe = 90,
       .item_prob = 0.15});
  MiningOptions options;
  options.min_support = 2;
  options.max_length = 4;
  FpTree tree(db, options.min_support);
  ASSERT_GT(tree.NumRanks(), 64u) << "universe too sparse for this test";
  auto want = MineApriori(db, options);
  ASSERT_TRUE(want.ok());
  for (size_t threads : {1u, 4u}) {
    options.num_threads = threads;
    auto got = MineFpGrowth(db, options);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->itemsets, want->itemsets) << "threads=" << threads;
  }
}

/// The parallel first projection level must keep the truncation contract
/// deterministic: identical truncated sets at every thread count, with
/// the early-stop flag engaged (max_patterns far below the full count).
TEST(FpTreeTest, TruncatedMineIdenticalAcrossThreadCounts) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = 41, .num_transactions = 90, .universe = 12,
       .item_prob = 0.5});
  std::vector<MiningResult> results;
  for (size_t threads : {1u, 2u, 8u}) {
    MiningOptions options;
    options.min_support = 2;
    options.max_patterns = 25;
    options.num_threads = threads;
    auto result = MineFpGrowth(db, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->aborted);
    EXPECT_EQ(result->itemsets.size(), 25u);
    results.push_back(std::move(result).value());
  }
  EXPECT_EQ(results[0].itemsets, results[1].itemsets);
  EXPECT_EQ(results[0].itemsets, results[2].itemsets);
}

}  // namespace
}  // namespace privbasis
