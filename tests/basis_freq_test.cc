#include "core/basis_freq.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/vertical_index.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;

BasisFreqOptions NoNoise() {
  BasisFreqOptions options;
  options.inject_noise = false;
  return options;
}

TEST(BasisFreqTest, ExactCountsWithoutNoise) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1}, {1, 2}, {0}});
  BasisSet basis({Itemset({0, 1, 2})});
  Rng rng(1);
  auto result = BasisFreq(db, basis, /*k=*/0, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_candidates, 7u);
  VerticalIndex index(db);
  for (const auto& c : result->topk) {
    EXPECT_NEAR(c.noisy_count,
                static_cast<double>(index.SupportOf(c.items)), 1e-9)
        << c.items.ToString();
  }
}

// Property: without noise, BasisFreq recovers exact supports for every
// candidate itemset on random databases and random (overlapping) bases.
class BasisFreqExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BasisFreqExactnessTest, AllCandidatesExact) {
  const uint64_t seed = GetParam();
  TransactionDatabase db = MakeRandomDb(
      {.seed = seed, .num_transactions = 60, .universe = 12});
  Rng basis_rng(seed + 100);
  BasisSet basis;
  for (int i = 0; i < 3; ++i) {
    std::vector<Item> items;
    for (Item it = 0; it < 12; ++it) {
      if (basis_rng.Bernoulli(0.3)) items.push_back(it);
    }
    if (items.empty()) items.push_back(static_cast<Item>(i));
    basis.Add(Itemset(std::move(items)));
  }
  Rng rng(seed);
  auto result = BasisFreq(db, basis, 0, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->num_candidates, 0u);
  VerticalIndex index(db);
  for (const auto& c : result->topk) {
    EXPECT_NEAR(c.noisy_count,
                static_cast<double>(index.SupportOf(c.items)), 1e-6)
        << c.items.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BasisFreqExactnessTest,
                         ::testing::Values(1, 2, 3, 4));

/// The zeta transform's oracle: for each mask, the sum over its supersets
/// by enumerating the submasks of its complement, O(3^len).
std::vector<double> NaiveSupersetSum(const std::vector<double>& bins,
                                     size_t len) {
  const uint64_t full = (uint64_t{1} << len) - 1;
  std::vector<double> out(bins.size(), 0.0);
  for (uint64_t mask = 0; mask <= full; ++mask) {
    const uint64_t free = full & ~mask;
    double sum = bins[mask];
    for (uint64_t sub = free; sub != 0; sub = (sub - 1) & free) {
      sum += bins[mask | sub];
    }
    out[mask] = sum;
  }
  return out;
}

// The two forms add the same terms in different orders, so they agree to
// rounding: within a few ulps of the sum of the magnitudes.
TEST(BasisFreqTest, SupersetSumMatchesNaiveOracle) {
  Rng rng(42);
  for (size_t len = 0; len <= 12; ++len) {
    std::vector<double> bins(size_t{1} << len);
    double magnitude = 0.0;
    for (double& cell : bins) {
      cell = rng.NextDouble() * 2000.0 - 1000.0;
      magnitude += std::abs(cell);
    }
    const std::vector<double> want = NaiveSupersetSum(bins, len);
    std::vector<double> got = bins;
    SupersetSum(&got, len);
    for (size_t mask = 0; mask < bins.size(); ++mask) {
      EXPECT_NEAR(got[mask], want[mask], 1e-12 * magnitude)
          << "len " << len << " mask " << mask;
    }
  }
}

TEST(BasisFreqTest, TopKSelectsHighestExactCountsWithoutNoise) {
  TransactionDatabase db = MakeDb({{0, 1}, {0, 1}, {0, 1, 2}, {2}});
  BasisSet basis({Itemset({0, 1, 2})});
  Rng rng(7);
  auto result = BasisFreq(db, basis, 2, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->topk.size(), 2u);
  // Counts: {0}=3 {1}=3 {0,1}=3 {2}=2 ... tie-break: shorter, then lex.
  EXPECT_EQ(result->topk[0].items, Itemset({0}));
  EXPECT_EQ(result->topk[1].items, Itemset({1}));
}

TEST(BasisFreqTest, OverlappingBasesFuseToOneEstimatePerItemset) {
  TransactionDatabase db = MakeDb({{0, 1, 2, 3}, {0, 1}, {2, 3}});
  BasisSet basis({Itemset({0, 1, 2}), Itemset({1, 2, 3})});
  Rng rng(9);
  auto result = BasisFreq(db, basis, 0, 1.0, rng, nullptr, NoNoise());
  ASSERT_TRUE(result.ok());
  // Candidates: subsets of either basis, deduplicated: 7 + 7 − 3 = 11.
  EXPECT_EQ(result->num_candidates, 11u);
  size_t occurrences = 0;
  for (const auto& c : result->topk) {
    if (c.items == Itemset({1, 2})) ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(BasisFreqTest, NoiseMagnitudeMatchesEquation4) {
  // Single basis of length l, itemset of size x: empirical error variance
  // of the noisy count over many runs ≈ 2^{l−x+1}·(w/ε)².
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1}, {2}});
  BasisSet basis({Itemset({0, 1, 2})});
  const double epsilon = 1.0;
  const Itemset target({0, 1});
  const double exact = 2.0;
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    auto result = BasisFreq(db, basis, 0, epsilon, rng);
    ASSERT_TRUE(result.ok());
    for (const auto& c : result->topk) {
      if (c.items == target) {
        double err = c.noisy_count - exact;
        sum += err;
        sum_sq += err * err;
      }
    }
  }
  double mean = sum / trials;
  double var = sum_sq / trials - mean * mean;
  // 2 bins summed, each Lap(1): variance 2·2 = 4 (count domain).
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(BasisFreqTest, ChargesAccountant) {
  TransactionDatabase db = MakeDb({{0}});
  BasisSet basis({Itemset({0})});
  PrivacyAccountant accountant(1.0);
  Rng rng(13);
  auto result = BasisFreq(db, basis, 1, 0.6, rng, &accountant);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(accountant.spent_epsilon(), 0.6, 1e-12);
  // Second call exceeding the budget must fail.
  auto over = BasisFreq(db, basis, 1, 0.6, rng, &accountant);
  EXPECT_FALSE(over.ok());
}

TEST(BasisFreqTest, RejectsExcessiveBasisLength) {
  TransactionDatabase db = MakeDb({{0}}, /*universe=*/30);
  std::vector<Item> big;
  for (Item i = 0; i < 25; ++i) big.push_back(i);
  BasisSet basis({Itemset(std::move(big))});
  Rng rng(15);
  EXPECT_FALSE(BasisFreq(db, basis, 1, 1.0, rng).ok());
}

TEST(BasisFreqTest, RejectsNonPositiveEpsilon) {
  TransactionDatabase db = MakeDb({{0}});
  BasisSet basis({Itemset({0})});
  Rng rng(17);
  EXPECT_FALSE(BasisFreq(db, basis, 1, 0.0, rng).ok());
}

TEST(BasisFreqTest, EmptyBasisSetYieldsNothing) {
  TransactionDatabase db = MakeDb({{0}});
  Rng rng(19);
  auto result = BasisFreq(db, BasisSet(), 5, 1.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->topk.empty());
  EXPECT_EQ(result->num_candidates, 0u);
}

TEST(BasisFreqTest, KLimitsOutput) {
  TransactionDatabase db = MakeRandomDb({.seed = 6});
  BasisSet basis({Itemset({0, 1, 2, 3, 4})});
  Rng rng(21);
  auto result = BasisFreq(db, basis, 3, 1.0, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->topk.size(), 3u);
  EXPECT_EQ(result->num_candidates, 31u);
}

TEST(BasisFreqTest, NoisyCountsSortedDescending) {
  TransactionDatabase db = MakeRandomDb({.seed = 7});
  BasisSet basis({Itemset({0, 1, 2, 3})});
  Rng rng(23);
  auto result = BasisFreq(db, basis, 10, 0.5, rng);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->topk.size(); ++i) {
    EXPECT_GE(result->topk[i - 1].noisy_count, result->topk[i].noisy_count);
  }
}

}  // namespace
}  // namespace privbasis
