#include "common/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace privbasis {
namespace {

TEST(LaplaceTest, ZeroMean) {
  Rng rng(1);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += SampleLaplace(rng, 2.0);
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

// Variance of Lap(b) is 2b²; sweep several scales.
class LaplaceVarianceTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceVarianceTest, MatchesTwoBSquared) {
  const double scale = GetParam();
  Rng rng(static_cast<uint64_t>(scale * 100) + 3);
  double sum = 0, sum_sq = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    double x = SampleLaplace(rng, scale);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  double expected = 2.0 * scale * scale;
  EXPECT_NEAR(var, expected, expected * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceVarianceTest,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0, 10.0));

TEST(LaplaceTest, CdfInverseRoundTrip) {
  for (double u : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    for (double scale : {0.5, 1.0, 4.0}) {
      double x = LaplaceInverseCdf(u, scale);
      EXPECT_NEAR(LaplaceCdf(x, scale), u, 1e-12);
    }
  }
}

TEST(LaplaceTest, CdfSymmetry) {
  for (double x : {0.1, 0.5, 1.0, 2.5}) {
    EXPECT_NEAR(LaplaceCdf(x, 1.0) + LaplaceCdf(-x, 1.0), 1.0, 1e-12);
  }
  EXPECT_NEAR(LaplaceCdf(0.0, 1.0), 0.5, 1e-12);
}

TEST(LaplaceTest, EmpiricalCdfMatches) {
  Rng rng(5);
  const int n = 200000;
  int below_one = 0;
  for (int i = 0; i < n; ++i) {
    if (SampleLaplace(rng, 1.0) < 1.0) ++below_one;
  }
  EXPECT_NEAR(below_one / static_cast<double>(n), LaplaceCdf(1.0, 1.0), 0.005);
}

TEST(GumbelTest, MeanIsEulerGamma) {
  Rng rng(11);
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += SampleGumbel(rng);
  EXPECT_NEAR(sum / n, 0.5772156649, 0.01);
}

TEST(GumbelTest, VarianceIsPiSquaredOverSix) {
  Rng rng(13);
  double sum = 0, sum_sq = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    double g = SampleGumbel(rng);
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(var, M_PI * M_PI / 6.0, 0.05);
}

TEST(SampleDiscreteTest, RespectsWeights) {
  Rng rng(15);
  std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> histogram(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++histogram[SampleDiscrete(rng, weights)];
  EXPECT_NEAR(histogram[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(histogram[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(histogram[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(SampleDiscreteTest, ZeroWeightNeverChosen) {
  Rng rng(17);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(SampleDiscrete(rng, weights), 1u);
  }
}

// Zipf sampling frequencies must match the pmf across n and s.
struct ZipfCase {
  uint64_t n;
  double s;
};

class ZipfTest : public ::testing::TestWithParam<ZipfCase> {};

TEST_P(ZipfTest, EmpiricalMatchesPmf) {
  const auto [n, s] = GetParam();
  ZipfDistribution zipf(n, s);
  Rng rng(19);
  const int draws = 300000;
  std::vector<int> histogram(std::min<uint64_t>(n, 16), 0);
  for (int i = 0; i < draws; ++i) {
    uint64_t r = zipf.Sample(rng);
    ASSERT_LT(r, n);
    if (r < histogram.size()) ++histogram[r];
  }
  for (size_t r = 0; r < histogram.size(); ++r) {
    double expected = zipf.Pmf(r);
    double observed = histogram[r] / static_cast<double>(draws);
    EXPECT_NEAR(observed, expected, 0.012 + expected * 0.05)
        << "rank " << r << " n=" << n << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfTest,
    ::testing::Values(ZipfCase{10, 1.0}, ZipfCase{100, 0.6},
                      ZipfCase{100, 1.2}, ZipfCase{100000, 1.05},
                      ZipfCase{1000000, 0.8}));

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution zipf(500, 1.1);
  double total = 0;
  for (uint64_t i = 0; i < 500; ++i) total += zipf.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SingleElement) {
  ZipfDistribution zipf(1, 1.0);
  Rng rng(21);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
  EXPECT_NEAR(zipf.Pmf(0), 1.0, 1e-12);
}

TEST(ZipfTest, MonotonePmf) {
  ZipfDistribution zipf(1000, 0.9);
  for (uint64_t i = 0; i + 1 < 50; ++i) {
    EXPECT_GT(zipf.Pmf(i), zipf.Pmf(i + 1));
  }
}

TEST(SampleDistinctTest, ProducesDistinctInRange) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    auto picks = SampleDistinct(rng, 50, 10);
    std::set<uint64_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 10u);
    for (uint64_t p : picks) EXPECT_LT(p, 50u);
  }
}

TEST(SampleDistinctTest, FullUniverse) {
  Rng rng(25);
  auto picks = SampleDistinct(rng, 8, 8);
  std::set<uint64_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 8u);
}

TEST(SampleDistinctTest, UniformMarginals) {
  Rng rng(27);
  std::vector<int> counts(10, 0);
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    for (uint64_t p : SampleDistinct(rng, 10, 3)) ++counts[p];
  }
  // Each element appears with probability 3/10 per trial.
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.3, 0.01);
  }
}

}  // namespace
}  // namespace privbasis
