// Empirical ε-indistinguishability checks: run a mechanism many times on
// two neighbouring inputs and verify the output-probability ratios stay
// within e^ε (plus statistical slack). These are smoke tests against
// calibration bugs (wrong sensitivity, budget mis-splits), not proofs —
// but they catch exactly the class of mistakes DP implementations
// actually make.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "dp/exponential_mechanism.h"
#include "dp/laplace_mechanism.h"
#include "exponential_mechanism_reference.h"

namespace privbasis {
namespace {

using ::privbasis::testing::EmOptions;
using ::privbasis::testing::ExponentialMechanismSelect;

/// Checks max over outcomes of |log(P(o|D)/P(o|D'))| <= eps + slack given
/// two outcome histograms.
void CheckRatioBound(const std::map<int64_t, int>& histogram_d,
                     const std::map<int64_t, int>& histogram_d_prime,
                     int trials, double epsilon, double slack) {
  for (const auto& [outcome, count_d] : histogram_d) {
    auto found = histogram_d_prime.find(outcome);
    // Ignore rare outcomes: their ratio estimates are pure noise.
    if (count_d < trials / 200) continue;
    ASSERT_NE(found, histogram_d_prime.end())
        << "outcome " << outcome << " never seen under D'";
    double ratio = std::log(static_cast<double>(count_d) /
                            static_cast<double>(found->second));
    EXPECT_LE(std::abs(ratio), epsilon + slack) << "outcome " << outcome;
  }
}

TEST(PrivacyPropertyTest, LaplaceCountQuery) {
  // Counting query: D has count 10, neighbouring D' has count 11
  // (sensitivity 1). Discretize the noisy output to integers.
  const double epsilon = 0.5;
  Rng rng(1);
  const int trials = 400000;
  std::map<int64_t, int> histogram_d, histogram_d_prime;
  for (int t = 0; t < trials; ++t) {
    histogram_d[std::llround(LaplacePerturb(rng, 10.0, 1.0, epsilon))]++;
    histogram_d_prime[std::llround(
        LaplacePerturb(rng, 11.0, 1.0, epsilon))]++;
  }
  // Discretizing to unit bins keeps the ratio bound: each bin integrates
  // the density over one unit, and densities are e^ε-close pointwise.
  CheckRatioBound(histogram_d, histogram_d_prime, trials, epsilon, 0.08);
}

TEST(PrivacyPropertyTest, ExponentialMechanismSelection) {
  // Neighbouring quality vectors: one tuple moved q by <= sensitivity 1
  // on every coordinate (worst case: +1 on one, −1 on another is not
  // allowed for monotone, so exercise the non-monotone mechanism).
  const double epsilon = 0.6;
  std::vector<double> q_d{5.0, 4.0, 2.0, 1.0};
  std::vector<double> q_d_prime{4.0, 5.0, 3.0, 1.0};  // each moved <= 1
  EmOptions options{.epsilon = epsilon, .sensitivity = 1.0,
                    .monotonic = false};
  Rng rng(5);
  const int trials = 400000;
  std::map<int64_t, int> histogram_d, histogram_d_prime;
  for (int t = 0; t < trials; ++t) {
    auto a = ExponentialMechanismSelect(rng, q_d, options);
    auto b = ExponentialMechanismSelect(rng, q_d_prime, options);
    ASSERT_TRUE(a.ok() && b.ok());
    histogram_d[static_cast<int64_t>(*a)]++;
    histogram_d_prime[static_cast<int64_t>(*b)]++;
  }
  CheckRatioBound(histogram_d, histogram_d_prime, trials, epsilon, 0.05);
}

TEST(PrivacyPropertyTest, GroupedEmMatchesPrivacyOfDirectEm) {
  // The grouped (count-bucketed) sampler must induce the same output
  // distribution as the direct exponential mechanism — privacy follows.
  const double factor = 0.7;
  std::vector<uint64_t> counts{9, 9, 3, 0};
  Rng rng(7);
  const int trials = 300000;
  std::vector<int> grouped(4, 0), direct(4, 0);
  std::vector<double> log_weights;
  for (uint64_t c : counts) {
    log_weights.push_back(factor * static_cast<double>(c));
  }
  for (int t = 0; t < trials; ++t) {
    GroupedEmPool pool(counts);
    auto r = pool.SelectK(rng, 1, factor);
    ASSERT_TRUE(r.ok());
    grouped[r->front()]++;
    direct[SampleLogWeights(rng, log_weights)]++;
  }
  for (size_t i = 0; i < 4; ++i) {
    double pg = grouped[i] / static_cast<double>(trials);
    double pd = direct[i] / static_cast<double>(trials);
    EXPECT_NEAR(pg, pd, 0.01) << "candidate " << i;
  }
}

TEST(PrivacyPropertyTest, SequentialCompositionViaAccountantSplit) {
  // Two Laplace queries at ε/2 each must satisfy ε overall: empirically,
  // the joint (pair) outcome ratio respects e^ε. Coarse-grained to keep
  // the joint histogram dense.
  const double epsilon = 0.8;
  Rng rng(9);
  const int trials = 500000;
  std::map<int64_t, int> histogram_d, histogram_d_prime;
  auto run = [&](double c1, double c2, std::map<int64_t, int>* histogram) {
    double a = LaplacePerturb(rng, c1, 1.0, epsilon / 2);
    double b = LaplacePerturb(rng, c2, 1.0, epsilon / 2);
    // Encode the coarse pair (round to 3-unit bins).
    int64_t key = std::llround(a / 3.0) * 1000 + std::llround(b / 3.0);
    (*histogram)[key]++;
  };
  for (int t = 0; t < trials; ++t) {
    run(10.0, 20.0, &histogram_d);
    run(11.0, 21.0, &histogram_d_prime);  // one tuple affects both queries
  }
  CheckRatioBound(histogram_d, histogram_d_prime, trials, epsilon, 0.12);
}

}  // namespace
}  // namespace privbasis
