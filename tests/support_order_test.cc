// SupportGroups and the selection steps that read it. The unit tests pin
// the groups' invariants; the differential tests check GetLambda and item
// selection over the database's groups (and over a span, which builds its
// own) against the per-query sorting they replaced
// (support_order_reference.h): the same λ, the same picks in the same
// order, and the same next RNG word, so releases stay bit-identical.
#include "common/support_groups.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/privbasis.h"
#include "data/synthetic.h"
#include "dp/exponential_mechanism.h"
#include "support_order_reference.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::ReferenceGetFreqElements;
using ::privbasis::testing::ReferenceGetLambda;

constexpr double kEpsilons[] = {1.0, 0.01, 1e-6};

/// Every invariant the selection code relies on, plus agreement with a
/// stable comparison sort by (support descending, id ascending).
void ExpectValidGroups(const SupportGroups& groups,
                       std::span<const uint64_t> supports) {
  ASSERT_EQ(groups.NumMembers(), supports.size());
  size_t total = 0;
  for (size_t g = 0; g < groups.NumGroups(); ++g) {
    if (g > 0) {
      EXPECT_GT(groups.Value(g - 1), groups.Value(g));
    }
    EXPECT_EQ(groups.Begin(g), total);
    EXPECT_GT(groups.Size(g), 0u);
    std::span<const uint32_t> members =
        groups.Order().subspan(groups.Begin(g), groups.Size(g));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end(),
                               std::less_equal<>()))
        << "group " << g << " ids not strictly ascending";
    for (uint32_t id : members) EXPECT_EQ(supports[id], groups.Value(g));
    total += groups.Size(g);
  }
  EXPECT_EQ(total, supports.size());
  std::vector<uint32_t> expected(supports.size());
  std::iota(expected.begin(), expected.end(), 0u);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](uint32_t a, uint32_t b) {
                     return supports[a] > supports[b];
                   });
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         groups.Order().begin(), groups.Order().end()));
}

/// A database in which item i occurs in exactly supports[i] of
/// `num_transactions` transactions.
TransactionDatabase DbWithSupports(const std::vector<uint64_t>& supports,
                                   size_t num_transactions) {
  TransactionDatabase::Builder builder(
      static_cast<uint32_t>(supports.size()));
  for (size_t t = 0; t < num_transactions; ++t) {
    std::vector<Item> txn;
    for (Item i = 0; i < supports.size(); ++i) {
      if (t < supports[i]) txn.push_back(i);
    }
    builder.AddTransaction(std::move(txn));
  }
  auto db = std::move(builder).Build();
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

/// Random support vectors of five shapes, by `shape`: heavy ties, mostly
/// zeros, a single group, all distinct, and a single item.
std::vector<uint64_t> RandomSupports(int shape, Rng& rng) {
  const size_t n = shape == 4 ? 1 : 1 + rng.UniformInt(300);
  std::vector<uint64_t> supports(n);
  switch (shape) {
    case 0:  // heavy ties
      for (auto& s : supports) s = rng.UniformInt(4);
      break;
    case 1:  // mostly zeros
      for (auto& s : supports) {
        s = rng.Bernoulli(0.9) ? 0 : 1 + rng.UniformInt(60);
      }
      break;
    case 2: {  // one group
      const uint64_t value = rng.UniformInt(50);
      std::fill(supports.begin(), supports.end(), value);
      break;
    }
    case 3:  // all distinct
      std::iota(supports.begin(), supports.end(), uint64_t{0});
      for (size_t i = n; i > 1; --i) {
        std::swap(supports[i - 1], supports[rng.UniformInt(i)]);
      }
      break;
    default:
      supports[0] = rng.UniformInt(20);
      break;
  }
  return supports;
}

/// Runs GetLambda and item selection on `db` and on the reference, from
/// the same seed, and compares λ, picks and the next RNG word. With
/// `check_span`, selection through the span form is compared too.
void ExpectSameAsReference(const TransactionDatabase& db, uint64_t fk1,
                           size_t count, double epsilon, bool monotonic,
                           uint64_t seed, bool check_span = true) {
  const std::vector<uint64_t>& supports = db.ItemSupports();
  Rng shipped(seed);
  Rng reference(seed);
  ASSERT_EQ(GetLambda(db, fk1, epsilon, shipped),
            ReferenceGetLambda(supports, db.NumTransactions(), fk1, epsilon,
                               reference));
  auto picks = GetFreqElements(db.ItemSupportGroups(), count, epsilon,
                               monotonic, shipped);
  auto expected =
      ReferenceGetFreqElements(supports, count, epsilon, monotonic, reference);
  ASSERT_TRUE(picks.ok()) << picks.status();
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(*picks, *expected);
  ASSERT_EQ(shipped.Next(), reference.Next());
  if (!check_span) return;

  // The span form builds its own groups and must agree too.
  Rng span_rng(seed ^ 0x5eed);
  Rng span_reference(seed ^ 0x5eed);
  auto span_picks =
      GetFreqElements(supports, count, epsilon, monotonic, span_rng);
  auto span_expected = ReferenceGetFreqElements(supports, count, epsilon,
                                                monotonic, span_reference);
  ASSERT_TRUE(span_picks.ok()) << span_picks.status();
  ASSERT_EQ(*span_picks, *span_expected);
  ASSERT_EQ(span_rng.Next(), span_reference.Next());
}

TEST(SupportGroupsTest, GroupsDescendingWithAscendingIds) {
  const std::vector<uint64_t> supports{5, 3, 5, 0, 3, 3, 9, 0};
  SupportGroups groups(supports);
  ASSERT_EQ(groups.NumGroups(), 4u);
  EXPECT_EQ(groups.Value(0), 9u);
  EXPECT_EQ(groups.Value(3), 0u);
  EXPECT_EQ(groups.Begin(2), 3u);
  EXPECT_EQ(groups.Size(2), 3u);
  EXPECT_EQ(std::vector<uint32_t>(groups.Order().begin(),
                                  groups.Order().end()),
            (std::vector<uint32_t>{6, 0, 2, 1, 4, 5, 3, 7}));
  ExpectValidGroups(groups, supports);
}

TEST(SupportGroupsTest, EmptyDatabaseHasNoGroups) {
  EXPECT_EQ(SupportGroups().NumGroups(), 0u);
  EXPECT_EQ(SupportGroups().NumMembers(), 0u);
  TransactionDatabase db = MakeDb({});
  EXPECT_EQ(db.UniverseSize(), 0u);
  EXPECT_EQ(db.ItemSupportGroups().NumGroups(), 0u);
  EXPECT_TRUE(db.ItemSupportGroups().Order().empty());
  ExpectValidGroups(SupportGroups(std::span<const uint64_t>()), {});
}

TEST(SupportGroupsTest, DatabaseGroupsItsItemSupports) {
  TransactionDatabase db = testing::MakeRandomDb({.seed = 3, .universe = 40});
  ExpectValidGroups(db.ItemSupportGroups(), db.ItemSupports());
  TransactionDatabase projected = db.ProjectOnto(Itemset({1, 5, 7}));
  ExpectValidGroups(projected.ItemSupportGroups(), projected.ItemSupports());
}

TEST(SupportGroupsTest, WideSupportsTakeSeveralRadixPasses) {
  // Below 2^16 one counting pass suffices; these take two, three and
  // four passes, of 9, 14 and 16 bits.
  Rng rng(11);
  for (uint64_t max : {uint64_t{1} << 17, uint64_t{1} << 40,
                       ~uint64_t{0}}) {
    std::vector<uint64_t> supports(500);
    for (auto& s : supports) {
      s = rng.Bernoulli(0.3) ? supports[rng.UniformInt(supports.size())]
                             : rng.UniformInt(max);
    }
    supports[17] = max;
    ExpectValidGroups(SupportGroups(supports), supports);
  }
}

TEST(SupportGroupsTest, RandomShapesKeepInvariants) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<uint64_t> supports = RandomSupports(trial % 5, rng);
    ExpectValidGroups(SupportGroups(supports), supports);
  }
}

TEST(SupportOrderDifferentialTest, RandomSupportVectorsMatchReference) {
  Rng rng(29);
  for (int trial = 0; trial < 420; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<uint64_t> supports = RandomSupports(trial % 5, rng);
    const uint64_t max_support =
        *std::max_element(supports.begin(), supports.end());
    const size_t num_transactions =
        std::max<size_t>(1, max_support + rng.UniformInt(8));
    TransactionDatabase db = DbWithSupports(supports, num_transactions);
    ASSERT_EQ(db.ItemSupports(), supports);
    // Every third trial asks for every item, emptying each group.
    const size_t count = trial % 3 == 0
                             ? supports.size()
                             : rng.UniformInt(supports.size() + 1);
    const uint64_t fk1 = rng.UniformInt(num_transactions + 1);
    for (double epsilon : kEpsilons) {
      ExpectSameAsReference(db, fk1, count, epsilon,
                            /*monotonic=*/trial % 2 == 0, rng.Next());
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SupportOrderDifferentialTest, WideQualitiesMatchReferencePool) {
  // Pair selection hands the span form arbitrary supports; the radix
  // build must still reproduce the comparison sort's picks.
  Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint64_t> qualities(1 + rng.UniformInt(200));
    for (auto& q : qualities) {
      q = rng.Bernoulli(0.5) ? rng.UniformInt(5)
                             : rng.UniformInt(uint64_t{1} << 45);
    }
    const size_t count = rng.UniformInt(qualities.size() + 1);
    for (double epsilon : kEpsilons) {
      const uint64_t seed = rng.Next();
      Rng shipped(seed);
      Rng reference(seed);
      auto picks = GetFreqElements(qualities, count, epsilon, true, shipped);
      auto expected = ReferenceGetFreqElements(qualities, count, epsilon,
                                               true, reference);
      ASSERT_TRUE(picks.ok() && expected.ok());
      ASSERT_EQ(*picks, *expected) << "trial " << trial;
      ASSERT_EQ(shipped.Next(), reference.Next());
    }
  }
}

TEST(SupportOrderDifferentialTest, SyntheticItemSupportsMatchReference) {
  struct Case {
    SyntheticProfile profile;
    std::vector<size_t> counts;
  };
  const Case cases[] = {
      {SyntheticProfile::Kosarak(0.05), {1, 13, 60, 200}},
      {SyntheticProfile::Aol(0.01), {23, 100}},
  };
  uint64_t seed = 37;
  for (const Case& c : cases) {
    auto db = GenerateDataset(c.profile, /*seed=*/1);
    ASSERT_TRUE(db.ok()) << db.status();
    SCOPED_TRACE(c.profile.name);
    ExpectValidGroups(db->ItemSupportGroups(), db->ItemSupports());
    const uint64_t fk1 = db->ItemSupports()[0] / 4;
    for (size_t count : c.counts) {
      for (double epsilon : kEpsilons) {
        // The reference sorts all |I| supports per call, so the span
        // form, which the random vectors cover, is skipped here.
        ExpectSameAsReference(*db, fk1, count, epsilon, true, ++seed,
                              /*check_span=*/false);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SupportOrderDifferentialTest, BorrowingPoolLeavesGroupsIntact) {
  // Removals live in the pool's overlay: a second pool over the same
  // groups sees every member again.
  const std::vector<uint64_t> supports{4, 4, 4, 1, 1, 0};
  SupportGroups groups(supports);
  Rng rng(41);
  {
    GroupedEmPool pool(groups);
    auto picks = pool.SelectK(rng, supports.size(), 0.5);
    ASSERT_TRUE(picks.ok());
    std::vector<size_t> sorted = *picks;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(pool.NumRemaining(), 0u);
  }
  GroupedEmPool fresh(groups);
  EXPECT_EQ(fresh.NumRemaining(), supports.size());
  ExpectValidGroups(groups, supports);
}

}  // namespace
}  // namespace privbasis
