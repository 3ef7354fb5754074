#include "core/amplified.h"

#include <memory>
#include <utility>

#include "core/batch_exec.h"
#include "dp/amplification.h"

namespace privbasis {

namespace detail {

Result<PrivBasisResult> RunPrivBasisSubsampledImpl(
    const TransactionDatabase& db, size_t k, double epsilon, Rng& rng,
    const AmplifiedOptions& options, PrivacyAccountant& accountant) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  const double q = options.sampling_rate;
  PRIVBASIS_ASSIGN_OR_RETURN(TransactionDatabase sampled,
                             PoissonSubsample(db, q, rng));
  auto sample =
      std::make_shared<const TransactionDatabase>(std::move(sampled));
  if (sample->NumTransactions() == 0) {
    return Status::FailedPrecondition(
        "subsample is empty; raise sampling_rate or dataset size");
  }
  const double mechanism_epsilon = MechanismEpsilonForTarget(q, epsilon);
  PrivBasisOptions base = options.base;
  base.fk1_support_hint = 0;  // must be computed on the subsample
  // The subsample run spends against its own mechanism-budget ledger;
  // only the amplified end-to-end ε is charged to the caller's.
  PrivacyAccountant mechanism_accountant(mechanism_epsilon);
  // The dataset's executor counts the full database, so the sample gets
  // a direct one of its own.
  const DirectCountExecutor exec(sample, base.basis_freq.num_threads);
  PRIVBASIS_ASSIGN_OR_RETURN(
      PrivBasisResult result,
      RunPrivBasisImpl(*sample, exec, k, mechanism_epsilon, rng, base,
                       mechanism_accountant));
  // Rescale counts from the subsample to the full dataset.
  for (auto& itemset : result.topk) {
    itemset.noisy_count /= q;
  }
  // Charge (and report) the end-to-end guarantee, not the per-run
  // mechanism budget — read back from the ledger, not recomputed.
  const double amplified =
      AmplifiedEpsilon(q, mechanism_accountant.spent_epsilon());
  PRIVBASIS_RETURN_NOT_OK(accountant.Consume(
      amplified, "PrivBasis(subsampled q=" + std::to_string(q) + ")"));
  result.epsilon_spent = accountant.spent_epsilon();
  return result;
}

}  // namespace detail

}  // namespace privbasis
