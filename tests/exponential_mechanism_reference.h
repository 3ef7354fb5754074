// The exponential mechanism (McSherry & Talwar) over an explicit quality
// vector, kept as a test oracle: one Gumbel per candidate, and for k
// picks a full re-offer of every remaining candidate per round. The
// shipped selection (GroupedEmPool, dp/exponential_mechanism.h) offers
// one Gumbel per distinct quality instead; exponential_mechanism_test
// and dp_privacy_property_test check the mechanism's odds and its ε
// bound against this form. O(n) per round, so keep the inputs small.
#ifndef PRIVBASIS_TESTS_EXPONENTIAL_MECHANISM_REFERENCE_H_
#define PRIVBASIS_TESTS_EXPONENTIAL_MECHANISM_REFERENCE_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/logspace.h"
#include "common/rng.h"
#include "common/status.h"

namespace privbasis::testing {

/// Parameters of one exponential-mechanism invocation.
struct EmOptions {
  /// Privacy parameter of this invocation.
  double epsilon = 1.0;
  /// Global sensitivity GS_q of the quality function.
  double sensitivity = 1.0;
  /// When the quality function is monotone (a single tuple change moves
  /// all qualities in one direction), the factor 1/2 in the exponent can
  /// be dropped, doubling effective accuracy.
  bool monotonic = false;
};

/// Exponent multiplier applied to qualities: ε / ((monotonic ? 1 : 2)·GS).
inline double EmExponentFactor(const EmOptions& options) {
  double denom = (options.monotonic ? 1.0 : 2.0) * options.sensitivity;
  return options.epsilon / denom;
}

/// Selects an index with P(i) ∝ exp(factor · qualities[i]).
/// `qualities` must be non-empty.
inline Result<size_t> ExponentialMechanismSelect(
    Rng& rng, std::span<const double> qualities, const EmOptions& options) {
  if (qualities.empty()) {
    return Status::InvalidArgument("no candidates to select from");
  }
  if (!(options.epsilon > 0.0) || !(options.sensitivity > 0.0)) {
    return Status::InvalidArgument("epsilon and sensitivity must be > 0");
  }
  const double factor = EmExponentFactor(options);
  GumbelMaxSampler sampler(&rng);
  for (size_t i = 0; i < qualities.size(); ++i) {
    sampler.Offer(i, factor * qualities[i]);
  }
  return sampler.WinnerKey();
}

/// Repeated exponential mechanism *without replacement*: `count` rounds,
/// each spending options.epsilon / count, re-normalized over the remaining
/// candidates (the paper's GetFreqElements). Returns distinct indices in
/// selection order. Requires count ≤ qualities.size().
inline Result<std::vector<size_t>> ExponentialMechanismSelectK(
    Rng& rng, std::span<const double> qualities, size_t count,
    const EmOptions& options) {
  if (count > qualities.size()) {
    return Status::InvalidArgument("cannot select " + std::to_string(count) +
                                   " of " + std::to_string(qualities.size()) +
                                   " candidates without replacement");
  }
  if (!(options.epsilon > 0.0) || !(options.sensitivity > 0.0)) {
    return Status::InvalidArgument("epsilon and sensitivity must be > 0");
  }
  EmOptions per_round = options;
  per_round.epsilon = options.epsilon / static_cast<double>(count);
  const double factor = EmExponentFactor(per_round);

  std::vector<bool> taken(qualities.size(), false);
  std::vector<size_t> out;
  out.reserve(count);
  for (size_t round = 0; round < count; ++round) {
    GumbelMaxSampler sampler(&rng);
    for (size_t i = 0; i < qualities.size(); ++i) {
      if (!taken[i]) sampler.Offer(i, factor * qualities[i]);
    }
    size_t winner = sampler.WinnerKey();
    taken[winner] = true;
    out.push_back(winner);
  }
  return out;
}

}  // namespace privbasis::testing

#endif  // PRIVBASIS_TESTS_EXPONENTIAL_MECHANISM_REFERENCE_H_
