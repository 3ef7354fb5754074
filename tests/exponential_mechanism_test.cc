#include "dp/exponential_mechanism.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "exponential_mechanism_reference.h"

namespace privbasis {
namespace {

using ::privbasis::testing::EmExponentFactor;
using ::privbasis::testing::EmOptions;
using ::privbasis::testing::ExponentialMechanismSelect;
using ::privbasis::testing::ExponentialMechanismSelectK;

TEST(EmTest, ExponentFactor) {
  EXPECT_NEAR(EmExponentFactor({.epsilon = 1.0, .sensitivity = 1.0,
                                .monotonic = false}),
              0.5, 1e-12);
  EXPECT_NEAR(EmExponentFactor({.epsilon = 1.0, .sensitivity = 1.0,
                                .monotonic = true}),
              1.0, 1e-12);
  EXPECT_NEAR(EmExponentFactor({.epsilon = 2.0, .sensitivity = 4.0,
                                .monotonic = false}),
              0.25, 1e-12);
}

TEST(EmTest, SelectionRatioMatchesTheory) {
  // Two candidates with quality gap Δq = 2, ε = 1, GS = 1, non-monotone:
  // odds = exp(ε·Δq/2) = e.
  Rng rng(1);
  std::vector<double> qualities{2.0, 0.0};
  EmOptions options{.epsilon = 1.0, .sensitivity = 1.0, .monotonic = false};
  int first = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    auto r = ExponentialMechanismSelect(rng, qualities, options);
    ASSERT_TRUE(r.ok());
    first += *r == 0;
  }
  double expected = std::exp(1.0) / (1.0 + std::exp(1.0));
  EXPECT_NEAR(first / static_cast<double>(n), expected, 0.005);
}

TEST(EmTest, MonotonicDoublesExponent) {
  Rng rng(3);
  std::vector<double> qualities{1.0, 0.0};
  EmOptions options{.epsilon = 1.0, .sensitivity = 1.0, .monotonic = true};
  int first = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    auto r = ExponentialMechanismSelect(rng, qualities, options);
    ASSERT_TRUE(r.ok());
    first += *r == 0;
  }
  double expected = std::exp(1.0) / (1.0 + std::exp(1.0));
  EXPECT_NEAR(first / static_cast<double>(n), expected, 0.005);
}

TEST(EmTest, HugeQualitiesDoNotOverflow) {
  // Count-scale qualities (the paper multiplies frequencies by N).
  Rng rng(5);
  std::vector<double> qualities{1000000.0, 999999.0, 0.0};
  EmOptions options{.epsilon = 0.5, .sensitivity = 1.0};
  std::vector<int> histogram(3, 0);
  for (int i = 0; i < 10000; ++i) {
    auto r = ExponentialMechanismSelect(rng, qualities, options);
    ASSERT_TRUE(r.ok());
    ++histogram[*r];
  }
  EXPECT_EQ(histogram[2], 0);  // astronomically unlikely
  EXPECT_GT(histogram[0], histogram[1]);
}

TEST(EmTest, RejectsEmptyAndBadArgs) {
  Rng rng(7);
  EXPECT_FALSE(ExponentialMechanismSelect(rng, {}, {}).ok());
  std::vector<double> q{1.0};
  EXPECT_FALSE(
      ExponentialMechanismSelect(rng, q, {.epsilon = 0.0}).ok());
  EXPECT_FALSE(
      ExponentialMechanismSelect(rng, q, {.epsilon = 1.0, .sensitivity = 0.0})
          .ok());
}

TEST(EmSelectKTest, WithoutReplacementDistinct) {
  Rng rng(9);
  std::vector<double> qualities(20, 1.0);
  auto r = ExponentialMechanismSelectK(rng, qualities, 10,
                                       {.epsilon = 1.0});
  ASSERT_TRUE(r.ok());
  std::set<size_t> unique(r->begin(), r->end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(EmSelectKTest, PrefersHighQuality) {
  Rng rng(11);
  // 5 high-quality candidates among 20; with a large budget they must
  // dominate the selection.
  std::vector<double> qualities(20, 0.0);
  for (int i = 0; i < 5; ++i) qualities[i] = 100.0;
  int high_picked = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    auto r = ExponentialMechanismSelectK(rng, qualities, 5,
                                         {.epsilon = 50.0});
    ASSERT_TRUE(r.ok());
    for (size_t idx : *r) high_picked += idx < 5;
  }
  EXPECT_GT(high_picked / static_cast<double>(trials * 5), 0.99);
}

TEST(EmSelectKTest, RejectsCountAbovePopulation) {
  Rng rng(13);
  std::vector<double> qualities{1.0, 2.0};
  EXPECT_FALSE(
      ExponentialMechanismSelectK(rng, qualities, 3, {.epsilon = 1.0}).ok());
}

TEST(GroupedEmPoolTest, GroupsByQuality) {
  std::vector<uint64_t> qualities{5, 3, 5, 3, 3, 9};
  GroupedEmPool pool(qualities);
  EXPECT_EQ(pool.NumGroups(), 3u);
  EXPECT_EQ(pool.NumRemaining(), 6u);
  EXPECT_EQ(pool.GroupQuality(0), 9u);  // descending
  EXPECT_EQ(pool.GroupQuality(1), 5u);
  EXPECT_EQ(pool.GroupQuality(2), 3u);
}

TEST(GroupedEmPoolTest, TakeFromRemovesMember) {
  std::vector<uint64_t> qualities{7, 7, 7};
  GroupedEmPool pool(qualities);
  Rng rng(15);
  std::set<size_t> taken;
  for (int i = 0; i < 3; ++i) {
    taken.insert(pool.TakeFrom(0, rng));
  }
  EXPECT_EQ(taken, (std::set<size_t>{0, 1, 2}));
  EXPECT_EQ(pool.NumRemaining(), 0u);
}

TEST(GroupedEmPoolTest, SelectKDistinctAndBiased) {
  Rng rng(17);
  // 100 candidates: indices 0..4 have count 1000, rest count 0.
  std::vector<uint64_t> qualities(100, 0);
  for (int i = 0; i < 5; ++i) qualities[i] = 1000;
  GroupedEmPool pool(qualities);
  auto r = pool.SelectK(rng, 5, /*factor=*/0.1);
  ASSERT_TRUE(r.ok());
  std::set<size_t> unique(r->begin(), r->end());
  EXPECT_EQ(unique.size(), 5u);
  for (size_t idx : *r) EXPECT_LT(idx, 5u);  // exp(100) dominance
}

TEST(GroupedEmPoolTest, MatchesUngroupedEmStatistically) {
  // Grouped selection must give the same distribution as the direct EM:
  // qualities {2, 2, 0} with factor 1 -> P(idx 2) = 1/(2e² + 1).
  Rng rng(19);
  std::vector<uint64_t> qualities{2, 2, 0};
  const int n = 150000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    GroupedEmPool pool(qualities);
    auto r = pool.SelectK(rng, 1, 1.0);
    ASSERT_TRUE(r.ok());
    low += r->front() == 2;
  }
  double expected = 1.0 / (2.0 * std::exp(2.0) + 1.0);
  EXPECT_NEAR(low / static_cast<double>(n), expected, 0.004);
}

TEST(GroupedEmPoolTest, SelectKRejectsOverdraw) {
  std::vector<uint64_t> qualities{1, 2};
  GroupedEmPool pool(qualities);
  Rng rng(21);
  EXPECT_FALSE(pool.SelectK(rng, 3, 1.0).ok());
}

}  // namespace
}  // namespace privbasis
