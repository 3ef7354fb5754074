// Samplers for the distributions the library needs: Laplace (the DP noise
// workhorse), Gumbel (log-space exponential mechanism), Zipf (synthetic
// long-tail item marginals) and weighted discrete choice.
#ifndef PRIVBASIS_COMMON_DISTRIBUTIONS_H_
#define PRIVBASIS_COMMON_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace privbasis {

/// Sample from Laplace(0, scale): density (1/2b)·exp(−|x|/b).
/// `scale` must be > 0.
double SampleLaplace(Rng& rng, double scale);

/// Inverse CDF of Laplace(0, scale) at u ∈ (0, 1).
double LaplaceInverseCdf(double u, double scale);

/// CDF of Laplace(0, scale).
double LaplaceCdf(double x, double scale);

/// Sample from the standard Gumbel distribution: −log(−log(U)).
double SampleGumbel(Rng& rng);

/// Weighted discrete choice over non-negative `weights` (linear scan).
/// Returns an index in [0, weights.size()). The total weight must be > 0.
size_t SampleDiscrete(Rng& rng, const std::vector<double>& weights);

/// Zipf-distributed integers over {0, 1, ..., n−1} with exponent `s`:
/// P(i) ∝ 1/(i+1)^s. Uses Hörmann & Derflinger rejection-inversion, O(1)
/// per sample after O(1) setup, valid for any n (tested to 10^7+) and
/// s > 0, s != 1 handled via the generalized harmonic integral.
class ZipfDistribution {
 public:
  /// `n` must be ≥ 1 and `s` > 0.
  ZipfDistribution(uint64_t n, double s);

  /// Draws one rank in [0, n).
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double s() const { return s_; }

  /// Exact probability mass of rank i (O(1) after lazily computing the
  /// normalization on first use — for n up to ~10^7; larger n uses the
  /// integral approximation of the harmonic sum).
  double Pmf(uint64_t i) const;

 private:
  double H(double x) const;         // antiderivative of 1/x^s
  double HInverse(double x) const;  // inverse of H

  uint64_t n_;
  double s_;
  double h_x1_;          // H(1.5) − 1/1^s
  double h_n_;           // H(n + 0.5)
  double norm_;          // lazily computed exact/approx normalization
};

/// Floyd's algorithm: sample `count` distinct integers uniformly from
/// [0, universe). Requires count <= universe. O(count) expected time.
std::vector<uint64_t> SampleDistinct(Rng& rng, uint64_t universe,
                                     size_t count);

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_DISTRIBUTIONS_H_
