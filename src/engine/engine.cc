#include "engine/engine.h"

#include <utility>
#include <vector>

#include "core/amplified.h"
#include "core/association_rules.h"
#include "core/privbasis.h"
#include "core/threshold.h"

namespace privbasis {

namespace {

/// Deterministic, noise-free per-method preparation (cache fills and
/// preprocessing). Runs BEFORE the budget reservation: a failure here
/// has released nothing, so it must not charge the ledger — only
/// failures after noise could have been drawn trigger the lease's
/// fail-safe full charge. For PrivBasis that is the cached margin, the
/// query's cancel token threaded into every scan, and the dataset's
/// executor, held here so that an AttachCountExecutor mid-query cannot
/// free it.
struct PreparedQuery {
  PrivBasisOptions pb;
  std::shared_ptr<const CountExecutor> exec;
  std::shared_ptr<const TfRunner> tf_runner;
};

Result<PreparedQuery> Prepare(const Dataset& dataset, const QuerySpec& spec) {
  PreparedQuery prepared;
  switch (spec.method) {
    case QueryMethod::kPrivBasis:
      prepared.pb = spec.pb;
      // The subsampled path must mine its margin on the subsample, so
      // only the full-data path takes the cached hint.
      if (spec.sampling_rate >= 1.0 && prepared.pb.fk1_support_hint == 0) {
        // The cached exact margin — the same data-dependent quantity
        // the mechanism would otherwise mine per call.
        PRIVBASIS_ASSIGN_OR_RETURN(
            prepared.pb.fk1_support_hint,
            dataset.MarginSupport(spec.k, prepared.pb.eta, spec.cancel));
      }
      // Thread the query's token into every mechanism scan — the
      // PrivBasis-level scans (fk1 mine, pair counting) and the final
      // BasisFreq pass each poll it once per work chunk.
      prepared.pb.cancel = spec.cancel;
      prepared.pb.basis_freq.cancel = spec.cancel;
      // The full-data path counts through the dataset's executor. The
      // subsampled path counts a fresh sample, which that executor does
      // not cover, so it builds its own over the sample.
      if (spec.sampling_rate >= 1.0) {
        prepared.exec = dataset.EnsureCountExecutor();
      }
      break;
    case QueryMethod::kTruncatedFrequency:
      PRIVBASIS_ASSIGN_OR_RETURN(prepared.tf_runner,
                                 dataset.Tf(spec.k, spec.tf, spec.cancel));
      break;
  }
  return prepared;
}

/// The PrivBasis family: plain top-k, subsampled, and the θ filter.
Result<PrivBasisResult> RunPb(const Dataset& dataset, const QuerySpec& spec,
                              const PreparedQuery& prepared, Rng& rng,
                              PrivacyAccountant& run_ledger) {
  const TransactionDatabase& db = dataset.db();
  if (spec.sampling_rate < 1.0) {
    AmplifiedOptions amplified;
    amplified.sampling_rate = spec.sampling_rate;
    amplified.base = prepared.pb;
    return detail::RunPrivBasisSubsampledImpl(db, spec.k, spec.epsilon, rng,
                                              amplified, run_ledger);
  }
  return detail::RunPrivBasisImpl(db, *prepared.exec, spec.k, spec.epsilon,
                                  rng, prepared.pb, run_ledger);
}

}  // namespace

Result<Release> Engine::Run(const Dataset& dataset, const QuerySpec& spec) {
  Rng rng(spec.seed);
  return Run(dataset, spec, rng);
}

Result<Release> Engine::Run(const Dataset& dataset, const QuerySpec& spec,
                            Rng& rng) {
  PRIVBASIS_RETURN_NOT_OK(spec.Validate());
  const TransactionDatabase& db = dataset.db();
  if (db.NumTransactions() == 0 || db.UniverseSize() == 0) {
    return Status::InvalidArgument("empty database");
  }

  // All deterministic, noise-free setup happens before the reservation:
  // a failure up to this point charges nothing. That includes a token
  // that has already fired — refusing here is free, whereas the same
  // token firing after the Acquire below charges the full reservation.
  if (spec.cancel != nullptr) {
    PRIVBASIS_RETURN_NOT_OK(spec.cancel->Check());
  }
  PRIVBASIS_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(dataset, spec));

  // Reserve the query's budget before drawing any noise; if the
  // mechanism later fails, the lease's destructor charges the full
  // reservation (fail-safe — see engine/accountant.h).
  PRIVBASIS_ASSIGN_OR_RETURN(
      BudgetLease lease,
      dataset.accountant()->Acquire(spec.epsilon, spec.LedgerLabel()));
  // Every ε the mechanism spends is metered here, then committed to the
  // dataset ledger below — `epsilon_spent` is never ad-hoc arithmetic.
  PrivacyAccountant run_ledger(spec.epsilon);

  Release release;
  release.method = spec.method;
  release.epsilon_requested = spec.epsilon;

  switch (spec.method) {
    case QueryMethod::kPrivBasis: {
      PRIVBASIS_ASSIGN_OR_RETURN(
          PrivBasisResult result,
          RunPb(dataset, spec, prepared, rng, run_ledger));
      if (spec.theta > 0.0) {
        detail::FilterByNoisyThreshold(spec.theta, db.NumTransactions(),
                                       &result.topk);
      }
      release.itemsets = std::move(result.topk);
      release.lambda = result.lambda;
      release.lambda2 = result.lambda2;
      release.basis_set = std::move(result.basis_set);
      break;
    }
    case QueryMethod::kTruncatedFrequency: {
      PRIVBASIS_ASSIGN_OR_RETURN(
          TfResult result,
          prepared.tf_runner->Run(spec.epsilon, rng, &run_ledger,
                                  spec.cancel));
      release.itemsets = std::move(result.released);
      break;
    }
  }

  // Commit the metered spend (≤ the reservation; the remainder is
  // released back to the dataset budget) with its itemized breakdown.
  // On a journaled dataset this is the durability point: a commit that
  // cannot be made durable fails the query (the in-memory ledger charged
  // the full reservation — fail closed, never fail open).
  release.epsilon_spent = run_ledger.spent_epsilon();
  PRIVBASIS_RETURN_NOT_OK(
      lease.Commit(release.epsilon_spent, run_ledger.entries()));
  release.epsilon_spent_total = dataset.accountant()->spent_epsilon();
  release.epsilon_remaining = dataset.accountant()->remaining_epsilon();

  if (spec.derive_rules) {
    // Post-processing on the released frequencies — no additional budget.
    PRIVBASIS_ASSIGN_OR_RETURN(
        release.rules,
        ExtractRules(release.itemsets, db.NumTransactions(),
                     spec.rule_options));
  }
  return release;
}

}  // namespace privbasis
