#include "common/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace privbasis {

double SampleLaplace(Rng& rng, double scale) {
  assert(scale > 0.0);
  // Inverse-CDF on u ∈ (0,1); split at 1/2 for symmetry and precision.
  double u = rng.NextDoubleOpen();  // (0, 1]
  if (u <= 0.5) return scale * std::log(2.0 * u);
  return -scale * std::log(2.0 * (1.0 - u) + 1e-320);
}

double LaplaceInverseCdf(double u, double scale) {
  assert(u > 0.0 && u < 1.0);
  if (u <= 0.5) return scale * std::log(2.0 * u);
  return -scale * std::log(2.0 * (1.0 - u));
}

double LaplaceCdf(double x, double scale) {
  if (x < 0) return 0.5 * std::exp(x / scale);
  return 1.0 - 0.5 * std::exp(-x / scale);
}

double SampleGumbel(Rng& rng) {
  return -std::log(-std::log(rng.NextDoubleOpen()));
}

size_t SampleDiscrete(Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double u = rng.NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // numerical slack
}

// ---------------------------------------------------------------------------
// ZipfDistribution (rejection-inversion, Hörmann & Derflinger 1996).
// Ranks are 1-based internally; Sample() returns rank−1.
// ---------------------------------------------------------------------------

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s > 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  norm_ = -1.0;  // lazy
}

double ZipfDistribution::H(double x) const {
  // Antiderivative of x^{−s}: x^{1−s}/(1−s) for s != 1, log(x) for s == 1.
  if (std::abs(s_ - 1.0) < 1e-12) return std::log(x);
  return std::pow(x, 1.0 - s_) / (1.0 - s_);
}

double ZipfDistribution::HInverse(double x) const {
  if (std::abs(s_ - 1.0) < 1e-12) return std::exp(x);
  return std::pow(x * (1.0 - s_), 1.0 / (1.0 - s_));
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  while (true) {
    double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    double x = HInverse(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    k = std::clamp<uint64_t>(k, 1, n_);
    double kd = static_cast<double>(k);
    if (kd - x <= 1.0 - 0.5 ||  // acceptance shortcut region
        u >= H(kd + 0.5) - std::pow(kd, -s_)) {
      return k - 1;
    }
  }
}

double ZipfDistribution::Pmf(uint64_t i) const {
  assert(i < n_);
  if (norm_ < 0.0) {
    double z = 0.0;
    if (n_ <= 10'000'000ULL) {
      for (uint64_t r = 1; r <= n_; ++r) z += std::pow(r, -s_);
    } else {
      // Exact head + integral tail.
      const uint64_t head = 10'000'000ULL;
      for (uint64_t r = 1; r <= head; ++r) z += std::pow(r, -s_);
      z += H(static_cast<double>(n_) + 0.5) -
           H(static_cast<double>(head) + 0.5);
    }
    const_cast<ZipfDistribution*>(this)->norm_ = z;
  }
  return std::pow(static_cast<double>(i + 1), -s_) / norm_;
}

std::vector<uint64_t> SampleDistinct(Rng& rng, uint64_t universe,
                                     size_t count) {
  assert(count <= universe);
  // Floyd's algorithm: for j in [universe−count, universe), pick t uniform
  // in [0, j]; insert t unless taken, else insert j.
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> out;
  out.reserve(count);
  for (uint64_t j = universe - count; j < universe; ++j) {
    uint64_t t = rng.UniformInt(j + 1);
    if (seen.insert(t).second) {
      out.push_back(t);
    } else {
      seen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace privbasis
