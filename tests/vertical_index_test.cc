#include "data/vertical_index.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;

TEST(VerticalIndexTest, TidListsSortedAndComplete) {
  TransactionDatabase db = MakeDb({{0, 1}, {1}, {0, 1, 2}});
  VerticalIndex index(db);
  auto l0 = index.TidList(0);
  ASSERT_EQ(l0.size(), 2u);
  EXPECT_EQ(l0[0], 0u);
  EXPECT_EQ(l0[1], 2u);
  auto l1 = index.TidList(1);
  EXPECT_EQ(l1.size(), 3u);
  auto l2 = index.TidList(2);
  ASSERT_EQ(l2.size(), 1u);
  EXPECT_EQ(l2[0], 2u);
}

TEST(VerticalIndexTest, SupportMatchesScan) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}, {2}});
  VerticalIndex index(db);
  EXPECT_EQ(index.SupportOf(Itemset({0})), 3u);
  EXPECT_EQ(index.SupportOf(Itemset({0, 1})), 2u);
  EXPECT_EQ(index.SupportOf(Itemset({0, 1, 2})), 1u);
  EXPECT_EQ(index.SupportOf(Itemset()), 5u);
  EXPECT_NEAR(index.FrequencyOf(Itemset({2})), 0.8, 1e-12);
}

TEST(VerticalIndexTest, EmptyListIntersection) {
  TransactionDatabase db = MakeDb({{0}}, /*universe=*/3);
  VerticalIndex index(db);
  EXPECT_EQ(index.SupportOf(Itemset({0, 2})), 0u);
  EXPECT_EQ(index.SupportOf(Itemset({2})), 0u);
}

TEST(VerticalIndexTest, PairFastPathMatchesGeneral) {
  TransactionDatabase db = MakeRandomDb({.seed = 3, .universe = 10});
  VerticalIndex index(db);
  for (Item a = 0; a < 10; ++a) {
    for (Item b = a + 1; b < 10; ++b) {
      EXPECT_EQ(index.SupportOfPair(a, b), index.SupportOf(Itemset({a, b})))
          << "pair {" << a << "," << b << "}";
    }
  }
}

// Property sweep: the index must agree with the full-scan reference on
// randomized databases and random itemsets of several sizes.
class VerticalIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerticalIndexPropertyTest, AgreesWithScan) {
  TransactionDatabase db = MakeRandomDb(
      {.seed = GetParam(), .num_transactions = 80, .universe = 14});
  VerticalIndex index(db);
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 50; ++trial) {
    size_t size = 1 + rng.UniformInt(4);
    std::vector<Item> items;
    for (size_t i = 0; i < size; ++i) {
      items.push_back(static_cast<Item>(rng.UniformInt(14)));
    }
    Itemset query(std::move(items));
    EXPECT_EQ(index.SupportOf(query), db.SupportOf(query))
        << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerticalIndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(VerticalIndexTest, DensityThresholdSelectsBitmapItems) {
  // Supports: item 0 → 3/4, item 1 → 2/4, item 2 → 1/4.
  TransactionDatabase db = MakeDb({{0, 1}, {0, 1}, {0, 2}, {}});
  VerticalIndex index(db, {.density_threshold = 0.5});
  EXPECT_TRUE(index.IsDense(0));
  EXPECT_TRUE(index.IsDense(1));
  EXPECT_FALSE(index.IsDense(2));
  EXPECT_EQ(index.NumDenseItems(), 2u);
  // Dense items still expose their sorted tid-lists.
  auto l0 = index.TidList(0);
  ASSERT_EQ(l0.size(), 3u);
  EXPECT_EQ(l0[2], 2u);
  // All three backend combinations answer exactly.
  EXPECT_EQ(index.SupportOf(Itemset({0, 1})), 2u);     // dense-dense
  EXPECT_EQ(index.SupportOf(Itemset({0, 2})), 1u);     // dense-sparse
  EXPECT_EQ(index.SupportOf(Itemset({0, 1, 2})), 0u);  // mixed triple
}

TEST(VerticalIndexTest, SupportOfManyMatchesSingleQueries) {
  TransactionDatabase db = MakeRandomDb({.seed = 5, .universe = 10});
  VerticalIndex index(db);
  std::vector<Itemset> queries = {Itemset(), Itemset({1}), Itemset({2, 4}),
                                  Itemset({0, 3, 7}), Itemset({9})};
  std::vector<uint64_t> batch = index.SupportOfMany(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], index.SupportOf(queries[i])) << i;
  }
}

// The batch path honors the cancel token on its own, independent of any
// executor wrapped around it.
TEST(VerticalIndexTest, VerticalIndexBatchHonorsCancelToken) {
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

TEST(VerticalIndexTest, MetadataExposed) {
  TransactionDatabase db = MakeDb({{0, 1}, {1}}, /*universe=*/5);
  VerticalIndex index(db);
  EXPECT_EQ(index.NumTransactions(), 2u);
  EXPECT_EQ(index.UniverseSize(), 5u);
}

}  // namespace
}  // namespace privbasis
