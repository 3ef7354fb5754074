// Subsampled PrivBasis: run Algorithm 3 on a Poisson q-subsample with the
// amplification-adjusted budget so the end-to-end guarantee is the target
// ε (dp/amplification.h). An optional-extension experiment: for large
// datasets the binomial sampling error can be far smaller than the
// Laplace noise saved by the amplified budget.
#ifndef PRIVBASIS_CORE_AMPLIFIED_H_
#define PRIVBASIS_CORE_AMPLIFIED_H_

#include "core/privbasis.h"

namespace privbasis {

struct AmplifiedOptions {
  /// Poisson sampling rate q ∈ (0, 1].
  double sampling_rate = 0.5;
  PrivBasisOptions base;
};

namespace detail {

/// Implementation behind `Engine::Run` with
/// `QuerySpec::WithAmplification` (the public subsampled entry point):
/// runs PrivBasis on a Poisson q-subsample with mechanism budget
/// ε' = ln(1 + (e^ε − 1)/q), which amplifies back to ε-DP end to end;
/// released counts are rescaled by 1/q to estimate full-dataset counts.
/// The subsample run meters ε' against an inner ledger, and the
/// amplified end-to-end guarantee ln(1 + q·(e^{ε'_spent} − 1)) — never
/// more than the target `epsilon` — is charged to `accountant` as one
/// entry, so reported spend always equals metered spend. The fk1 hint in
/// `options.base` is ignored (it would leak the full dataset's
/// statistics into the subsample run); the subsample's own top-k margin
/// is mined instead. The pair and bin counts come from a
/// DirectCountExecutor over the subsample, bounded by
/// `options.base.basis_freq.num_threads`.
Result<PrivBasisResult> RunPrivBasisSubsampledImpl(
    const TransactionDatabase& db, size_t k, double epsilon, Rng& rng,
    const AmplifiedOptions& options, PrivacyAccountant& accountant);

}  // namespace detail

}  // namespace privbasis

#endif  // PRIVBASIS_CORE_AMPLIFIED_H_
