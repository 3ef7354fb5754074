// The Engine facade: central validation, budget metering across repeated
// queries, cache transparency (warm == cold, bit for bit), concurrency
// determinism — including once-only cold builds under the
// per-cache-entry locking — and the attached CountExecutor's fail-closed
// contract (a failed or malformed count charges the full reservation).
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "core/basis_freq.h"
#include "core/batch_exec.h"
#include "core/privbasis.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace privbasis {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;

std::shared_ptr<Dataset> SmallDataset(double total_epsilon =
                                          Accountant::kUnlimited) {
  return Dataset::Create(MakeRandomDb({.seed = 7, .num_transactions = 200}),
                         {.total_epsilon = total_epsilon});
}

/// Specs whose η is not finite, or whose margin rank ⌈η·k⌉ or default
/// λ cap 3·k would not fit in size_t: each used to reach an out-of-range
/// float-to-integer cast (or a wrapping 3·k) after validation.
std::vector<QuerySpec> OutOfRangeSpecs() {
  QuerySpec inf_eta;
  inf_eta.pb.eta = std::numeric_limits<double>::infinity();
  QuerySpec nan_eta;
  nan_eta.pb.eta = std::numeric_limits<double>::quiet_NaN();
  QuerySpec huge_eta = QuerySpec().WithTopK(10);
  huge_eta.pb.eta = 1e300;
  return {inf_eta, nan_eta, huge_eta,
          QuerySpec().WithTopK(std::numeric_limits<size_t>::max())};
}

bool SameRelease(const std::vector<NoisyItemset>& a,
                 const std::vector<NoisyItemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].items == b[i].items) || a[i].noisy_count != b[i].noisy_count) {
      return false;
    }
  }
  return true;
}

TEST(QuerySpecTest, ValidateCentralizesOptionChecks) {
  EXPECT_FALSE(QuerySpec().WithTopK(0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithEpsilon(0.0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithEpsilon(-1.0).Validate().ok());
  EXPECT_FALSE(
      QuerySpec()
          .WithEpsilon(std::numeric_limits<double>::infinity())
          .Validate()
          .ok());
  EXPECT_FALSE(QuerySpec().WithThreshold(1.5, 10).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithThreshold(0.1, 0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithAmplification(0.0).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithAmplification(1.5).Validate().ok());
  EXPECT_FALSE(QuerySpec().WithRules(0.0).Validate().ok());

  QuerySpec bad_alpha;
  bad_alpha.pb.alpha1 = 0.5;
  bad_alpha.pb.alpha2 = 0.5;
  bad_alpha.pb.alpha3 = 0.5;
  EXPECT_FALSE(bad_alpha.Validate().ok());
  QuerySpec zero_alpha;
  zero_alpha.pb.alpha1 = 0.0;
  EXPECT_FALSE(zero_alpha.Validate().ok());
  QuerySpec bad_eta;
  bad_eta.pb.eta = 0.9;
  EXPECT_FALSE(bad_eta.Validate().ok());
  QuerySpec nan_theta;
  nan_theta.theta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(nan_theta.Validate().ok());

  QuerySpec tf;
  tf.WithMethod(QueryMethod::kTruncatedFrequency);
  tf.tf.m = 0;
  EXPECT_FALSE(tf.Validate().ok());
  tf.tf.m = 2;
  EXPECT_TRUE(tf.Validate().ok());
  // Threshold mode and amplification are PrivBasis-only.
  EXPECT_FALSE(QuerySpec(tf).WithThreshold(0.1, 10).Validate().ok());
  EXPECT_FALSE(QuerySpec(tf).WithAmplification(0.5).Validate().ok());

  // ConstructBasisSet needs ℓ ≥ 3; BasisFreq refuses a basis longer than
  // basis_freq.max_basis_length (20), which bounds both length caps.
  for (size_t max_len : {0, 1, 2, 21}) {
    QuerySpec bad_len;
    bad_len.pb.max_basis_length = max_len;
    EXPECT_FALSE(bad_len.Validate().ok()) << max_len;
  }
  QuerySpec wide_fast_path;
  wide_fast_path.pb.single_basis_lambda_cap = 21;
  EXPECT_FALSE(wide_fast_path.Validate().ok());
  QuerySpec narrow_bins;
  narrow_bins.pb.basis_freq.max_basis_length = 8;
  narrow_bins.pb.single_basis_lambda_cap = 8;
  narrow_bins.pb.max_basis_length = 8;
  EXPECT_TRUE(narrow_bins.Validate().ok());
  narrow_bins.pb.max_basis_length = 9;
  EXPECT_FALSE(narrow_bins.Validate().ok());

  for (const QuerySpec& spec : OutOfRangeSpecs()) {
    EXPECT_FALSE(spec.Validate().ok())
        << "k " << spec.k << ", eta " << spec.pb.eta;
  }

  EXPECT_TRUE(QuerySpec().Validate().ok());
  EXPECT_TRUE(QuerySpec().WithThreshold(0.1, 100).Validate().ok());
}

TEST(EngineTest, InvalidSpecRejectedBeforeAnySpend) {
  auto dataset = SmallDataset(1.0);
  // Out-of-range basis lengths used to fail inside ConstructBasisSet
  // (ℓ < 3) or BasisFreq (a basis over its cap) after the whole ε had
  // been reserved.
  std::vector<QuerySpec> refused{QuerySpec().WithTopK(0)};
  for (size_t max_len : {1, 2, 21}) {
    QuerySpec spec = QuerySpec().WithTopK(10);
    spec.pb.max_basis_length = max_len;
    spec.pb.single_basis_lambda_cap = 0;  // always construct a basis set
    refused.push_back(spec);
  }
  refused.push_back(QuerySpec().WithTopK(10));
  refused.back().pb.single_basis_lambda_cap = 100;
  for (const QuerySpec& spec : OutOfRangeSpecs()) refused.push_back(spec);
  for (const QuerySpec& spec : refused) {
    auto release = Engine::Run(*dataset, spec);
    EXPECT_EQ(release.status().code(), StatusCode::kInvalidArgument)
        << "k " << spec.k << ", eta " << spec.pb.eta << ", max_basis_length "
        << spec.pb.max_basis_length << ", single_basis_lambda_cap "
        << spec.pb.single_basis_lambda_cap;
  }
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());

  // The lower bound itself runs, on the untouched budget.
  QuerySpec shortest = QuerySpec().WithTopK(10);
  shortest.pb.max_basis_length = 3;
  shortest.pb.single_basis_lambda_cap = 0;
  auto ok = Engine::Run(*dataset, shortest);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_LE(ok->basis_set.Length(), 3u);
}

TEST(EngineTest, BudgetExhaustionAcrossRepeatedQueries) {
  auto dataset = SmallDataset(/*total_epsilon=*/1.0);
  QuerySpec spec = QuerySpec().WithTopK(5).WithEpsilon(0.4);
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(1)).ok());
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(2)).ok());
  // Third 0.4 query would overdraw 1.0: refused with kBudgetExhausted
  // before any noise is drawn, and nothing is recorded.
  auto third = Engine::Run(*dataset, QuerySpec(spec).WithSeed(3));
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_NEAR(dataset->accountant()->spent_epsilon(), 0.8, 1e-9);
  // A smaller query still fits.
  auto small = Engine::Run(
      *dataset, QuerySpec(spec).WithEpsilon(0.2).WithSeed(4));
  EXPECT_TRUE(small.ok());
  EXPECT_NEAR(dataset->accountant()->remaining_epsilon(), 0.0, 1e-9);
}

TEST(EngineTest, PreNoiseFailureChargesNothing) {
  // A deterministic setup failure (TF preprocessing: fewer than k
  // itemsets of length ≤ m) happens before the budget reservation, so
  // it must not consume any of a finite dataset budget.
  auto dataset = Dataset::Create(MakeDb({{0, 1}, {0, 1}, {1}}),
                                 {.total_epsilon = 1.0});
  QuerySpec spec;
  spec.WithMethod(QueryMethod::kTruncatedFrequency)
      .WithTopK(1000)
      .WithEpsilon(0.5);
  spec.tf.m = 1;
  auto release = Engine::Run(*dataset, spec);
  EXPECT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());
  // The budget is fully available for a valid follow-up query.
  auto ok = Engine::Run(
      *dataset, QuerySpec().WithTopK(2).WithEpsilon(1.0).WithSeed(1));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(EngineTest, EpsilonSpentComesFromLedger) {
  auto dataset = SmallDataset();
  auto release = Engine::Run(
      *dataset, QuerySpec().WithTopK(10).WithEpsilon(0.8).WithSeed(5));
  ASSERT_TRUE(release.ok());
  EXPECT_GT(release->epsilon_spent, 0.0);
  EXPECT_LE(release->epsilon_spent, 0.8 + 1e-9);
  // The release's number IS the ledger's number.
  EXPECT_NEAR(release->epsilon_spent, dataset->accountant()->spent_epsilon(),
              1e-12);
  // And the itemized entries sum to it.
  double itemized = 0.0;
  for (const auto& entry : dataset->accountant()->ledger()) {
    itemized += entry.epsilon;
  }
  EXPECT_NEAR(itemized, release->epsilon_spent, 1e-12);
}

TEST(EngineTest, AmplifiedSpendEqualsMeteredSpend) {
  auto dataset = SmallDataset();
  const double target = 1.0;
  auto release = Engine::Run(*dataset, QuerySpec()
                                           .WithTopK(10)
                                           .WithEpsilon(target)
                                           .WithAmplification(0.5)
                                           .WithSeed(9));
  ASSERT_TRUE(release.ok()) << release.status();
  // End-to-end guarantee ≤ target, and reported == committed.
  EXPECT_LE(release->epsilon_spent, target + 1e-9);
  EXPECT_GT(release->epsilon_spent, 0.0);
  EXPECT_NEAR(release->epsilon_spent, dataset->accountant()->spent_epsilon(),
              1e-12);
}

TEST(EngineTest, WarmCacheResultsIdenticalToColdCache) {
  TransactionDatabase db = MakeRandomDb({.seed = 11, .num_transactions = 300});
  QuerySpec spec = QuerySpec().WithTopK(12).WithEpsilon(1.0).WithSeed(77);

  // Cold: a fresh handle per run.
  auto cold = Engine::Run(*Dataset::Create(db), spec);
  ASSERT_TRUE(cold.ok());

  // Warm: one handle, second query hits every cache.
  auto dataset = Dataset::Create(db);
  auto first = Engine::Run(*dataset, spec);
  ASSERT_TRUE(first.ok());
  auto counters_after_first = dataset->cache_counters();
  auto warm = Engine::Run(*dataset, spec);
  ASSERT_TRUE(warm.ok());
  auto counters_after_second = dataset->cache_counters();

  // The second run rebuilt nothing...
  EXPECT_EQ(counters_after_second.margin_mines,
            counters_after_first.margin_mines);
  EXPECT_EQ(counters_after_second.index_builds,
            counters_after_first.index_builds);
  // ...and produced the bit-identical release.
  EXPECT_TRUE(SameRelease(cold->itemsets, warm->itemsets));
  EXPECT_TRUE(SameRelease(first->itemsets, warm->itemsets));
  EXPECT_EQ(cold->lambda, warm->lambda);
  EXPECT_EQ(cold->lambda2, warm->lambda2);
}

TEST(EngineTest, ConcurrentRunsBitIdenticalToSequential) {
  auto dataset = SmallDataset();
  constexpr int kQueries = 8;

  // Sequential reference, one seed per query.
  std::vector<std::vector<NoisyItemset>> sequential(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    auto release = Engine::Run(
        *dataset,
        QuerySpec().WithTopK(10).WithEpsilon(1.0).WithSeed(100 + q));
    ASSERT_TRUE(release.ok());
    sequential[q] = std::move(release->itemsets);
  }

  // Same queries, all at once, on a second (cold) shared handle.
  auto shared = SmallDataset();
  std::vector<std::vector<NoisyItemset>> concurrent(kQueries);
  std::vector<Status> statuses(kQueries);
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&shared, &concurrent, &statuses, q] {
      auto release = Engine::Run(
          *shared,
          QuerySpec().WithTopK(10).WithEpsilon(1.0).WithSeed(100 + q));
      statuses[q] = release.status();
      if (release.ok()) concurrent[q] = std::move(release->itemsets);
    });
  }
  for (auto& thread : threads) thread.join();

  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(statuses[q].ok()) << statuses[q];
    EXPECT_TRUE(SameRelease(sequential[q], concurrent[q])) << "query " << q;
  }
  // All eight queries were metered.
  EXPECT_NEAR(shared->accountant()->spent_epsilon(),
              dataset->accountant()->spent_epsilon(), 1e-9);
}

TEST(EngineTest, ExternalRngOverloadMatchesSeededRun) {
  // The advanced overload threading a caller-owned Rng must produce the
  // bit-identical release a seeded run does — for every spec variant
  // (the contract the sweep harness and statistical tests rely on).
  TransactionDatabase db = MakeRandomDb({.seed = 13, .num_transactions = 250});
  auto dataset = Dataset::Create(db);
  const QuerySpec variants[] = {
      QuerySpec().WithTopK(15).WithEpsilon(1.0).WithSeed(21),
      QuerySpec().WithThreshold(0.3, 40).WithEpsilon(1.0).WithSeed(23),
      QuerySpec().WithTopK(15).WithEpsilon(1.0).WithAmplification(0.6)
          .WithSeed(25),
  };
  for (const QuerySpec& spec : variants) {
    Rng rng(spec.seed);
    auto via_rng = Engine::Run(*dataset, spec, rng);
    ASSERT_TRUE(via_rng.ok()) << via_rng.status();
    auto via_seed = Engine::Run(*dataset, spec);
    ASSERT_TRUE(via_seed.ok()) << via_seed.status();
    EXPECT_TRUE(SameRelease(via_rng->itemsets, via_seed->itemsets));
    EXPECT_NEAR(via_rng->epsilon_spent, via_seed->epsilon_spent, 1e-12);
  }
}

TEST(DatasetTest, ConcurrentColdBuildsBuildEachEntryOnce) {
  // Per-cache-entry locking: many threads first-touching a fresh handle
  // across ALL cache kinds at once must build every entry exactly once
  // (no double build on one entry, no lost build), and every thread must
  // read the same values.
  TransactionDatabase db = MakeRandomDb({.seed = 41, .num_transactions = 200});
  auto dataset = Dataset::Create(db);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<uint64_t> margins(kThreads);
  std::vector<Status> statuses(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dataset, &margins, &statuses, t] {
      dataset->Stats();
      if (dataset->Index() == nullptr) {
        statuses[t] = Status::Internal("null index");
        return;
      }
      auto margin = dataset->MarginSupport(10, 1.0);
      if (!margin.ok()) {
        statuses[t] = margin.status();
        return;
      }
      margins[t] = *margin;
      auto truth = dataset->Truth(12);
      if (!truth.ok()) statuses[t] = truth.status();
      TfOptions tf;
      tf.m = 2;
      auto runner = dataset->Tf(8, tf);
      if (!runner.ok()) statuses[t] = runner.status();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t];
    EXPECT_EQ(margins[t], margins[0]);
  }
  const auto counters = dataset->cache_counters();
  EXPECT_EQ(counters.stats_builds, 1u);
  EXPECT_EQ(counters.index_builds, 1u);
  EXPECT_EQ(counters.margin_mines, 1u);
  EXPECT_EQ(counters.truth_mines, 1u);
  EXPECT_EQ(counters.tf_builds, 1u);
}

TEST(EngineTest, ThresholdModeFiltersByNoisyFrequency) {
  TransactionDatabase db = MakeDb({{0, 1, 2}, {0, 1, 2}, {0, 1}, {0}, {1, 2},
                                   {0, 1, 2}, {0, 2}, {0, 1}});
  auto dataset = Dataset::Create(db);
  const double theta = 0.3;
  auto release = Engine::Run(
      *dataset,
      QuerySpec().WithThreshold(theta, 40).WithEpsilon(300.0).WithSeed(3));
  ASSERT_TRUE(release.ok());
  ASSERT_FALSE(release->itemsets.empty());
  const double theta_count = theta * static_cast<double>(8);
  for (const auto& itemset : release->itemsets) {
    EXPECT_GE(itemset.noisy_count, theta_count);
  }
}

TEST(EngineTest, RuleDerivationRidesTheRelease) {
  // Near-exact release at huge ε: rules must connect released subsets.
  TransactionDatabase db = MakeDb(
      {{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}, {2}});
  auto dataset = Dataset::Create(db);
  auto release = Engine::Run(*dataset, QuerySpec()
                                           .WithTopK(6)
                                           .WithEpsilon(500.0)
                                           .WithRules(0.5)
                                           .WithSeed(17));
  ASSERT_TRUE(release.ok());
  EXPECT_FALSE(release->rules.empty());
  for (const auto& rule : release->rules) {
    EXPECT_GE(rule.confidence, 0.5);
  }
}

TEST(EngineTest, TfMethodSharesRunnerAcrossQueries) {
  auto dataset = SmallDataset();
  QuerySpec spec;
  spec.WithMethod(QueryMethod::kTruncatedFrequency).WithTopK(8);
  spec.tf.m = 2;
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(1)).ok());
  auto counters = dataset->cache_counters();
  EXPECT_EQ(counters.tf_builds, 1u);
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(spec).WithSeed(2)).ok());
  EXPECT_EQ(dataset->cache_counters().tf_builds, 1u);  // reused
  // A different configuration builds its own runner.
  QuerySpec other = spec;
  other.tf.m = 1;
  ASSERT_TRUE(Engine::Run(*dataset, QuerySpec(other).WithSeed(3)).ok());
  EXPECT_EQ(dataset->cache_counters().tf_builds, 2u);
}

TEST(EngineTest, PreCancelledQueryChargesNothing) {
  auto dataset = SmallDataset(2.0);
  CancelToken token;
  token.Cancel();
  auto release = Engine::Run(
      *dataset, QuerySpec().WithTopK(10).WithEpsilon(1.0).WithCancel(&token));
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kCancelled);
  // Refused before the reservation: the ledger never saw this query.
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());
  // The identical spec without the token runs normally.
  auto ok = Engine::Run(*dataset, QuerySpec().WithTopK(10).WithEpsilon(1.0));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(EngineTest, DeadlineMidScanChargesFullReservation) {
  auto dataset = SmallDataset(4.0);
  QuerySpec spec = QuerySpec().WithTopK(10).WithEpsilon(1.0);
  // Warm the margin cache so the pre-reservation Prepare step is
  // instant; the deadline must fire INSIDE the post-reservation
  // BasisFreq scan, which the failpoint holds past the deadline.
  ASSERT_TRUE(dataset->MarginSupport(spec.k, spec.pb.eta).ok());
  ASSERT_TRUE(failpoint::Configure("basis_freq_chunk=sleep:800").ok());
  const CancelToken token = CancelToken::AfterMs(200);
  auto release = Engine::Run(*dataset, QuerySpec(spec).WithCancel(&token));
  failpoint::Reset();
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kCancelled)
      << release.status();
  // The token fired after the reservation: fail closed — the FULL
  // reservation is charged (noise may already have been observed) and
  // nothing stays reserved.
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(), 1.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  ASSERT_EQ(dataset->accountant()->ledger().size(), 1u);
  // A later query on the same dataset is unaffected, and the two
  // spends add up in the ledger.
  auto ok = Engine::Run(*dataset, spec);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(),
                   1.0 + ok->epsilon_spent);
}

TEST(EngineTest, CancelledColdBuildCachesNothing) {
  auto dataset = SmallDataset();
  CancelToken token;
  token.Cancel();
  // A cancelled cold margin build must not poison the cache...
  EXPECT_FALSE(dataset->MarginSupport(10, 1.1, &token).ok());
  EXPECT_EQ(dataset->cache_counters().margin_mines, 1u);
  // ...the next caller retries and succeeds.
  ASSERT_TRUE(dataset->MarginSupport(10, 1.1).ok());
  EXPECT_EQ(dataset->cache_counters().margin_mines, 2u);
}

TEST(DatasetTest, BorrowSharesCallerStorage) {
  TransactionDatabase db = MakeRandomDb({.seed = 31});
  auto handle = Dataset::Borrow(db);
  EXPECT_EQ(&handle->db(), &db);
  EXPECT_TRUE(Engine::Run(*handle, QuerySpec().WithTopK(5)).ok());
}

TEST(DatasetTest, TruthSharesTheHandleIndex) {
  auto dataset = SmallDataset();
  auto truth = dataset->Truth(10);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ((*truth)->index.get(), dataset->Index().get());
  // The one mining pass also warmed both margin keys.
  auto counters = dataset->cache_counters();
  EXPECT_EQ(counters.truth_mines, 1u);
  EXPECT_EQ(counters.index_builds, 1u);
  ASSERT_TRUE(dataset->MarginSupport(10, 1.1).ok());
  ASSERT_TRUE(dataset->MarginSupport(10, 1.2).ok());
  EXPECT_EQ(dataset->cache_counters().margin_mines, 0u);
}

// A fresh dataset counts through its direct executor from the start, and
// neither that executor nor a query builds the VerticalIndex.
TEST(DatasetTest, FreshDatasetBuildsNoIndex) {
  auto dataset = Dataset::Create(
      MakeRandomDb({.seed = 29, .num_transactions = 120, .universe = 14}));
  EXPECT_NE(dataset->EnsureCountExecutor(), nullptr);

  QuerySpec spec;
  spec.k = 12;
  spec.epsilon = 1.0;
  spec.seed = 4242;
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release release,
                                 Engine::Run(*dataset, spec));
  EXPECT_FALSE(release.itemsets.empty());
  EXPECT_NE(dataset->EnsureCountExecutor(), nullptr);
  EXPECT_EQ(dataset->cache_counters().index_builds, 0u);
}

// A fired token surfaces kCancelled from both ops — never a partial or
// garbage count (the fail-closed half of the executor contract) — on a
// database large enough that the pair and bin scans split over the pool.
// The batcher's fused rounds run the same scans on the inner executor,
// under the latest member deadline, so members whose deadlines have all
// passed fail the same way.
TEST(CountExecutorTest, FiredTokenFailsClosed) {
  auto db = std::make_shared<const TransactionDatabase>(
      MakeRandomDb({.seed = 31, .num_transactions = 10000}));
  auto exec = std::make_shared<const DirectCountExecutor>(db,
                                                          /*num_threads=*/4);
  CancelToken token;
  token.Cancel();

  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1}));
  EXPECT_EQ(exec->BasisBinCounts(basis_set, &token).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(exec->PairSupports({0, 1, 2}, &token).status().code(),
            StatusCode::kCancelled);

  BatchingCountExecutor batcher(exec, {.window_us = 2'000'000, .max_batch = 2});
  batcher.BeginQuery();
  batcher.BeginQuery();
  const auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  CancelToken expired_a(past);
  CancelToken expired_b(past);
  Result<std::vector<uint64_t>> pairs_a = Status::Internal("unset");
  Result<std::vector<std::vector<uint64_t>>> bins_a =
      Status::Internal("unset");
  std::thread member_a([&] {
    pairs_a = batcher.PairSupports({0, 1, 2}, &expired_a);
    bins_a = batcher.BasisBinCounts(basis_set, &expired_a);
  });
  auto pairs_b = batcher.PairSupports({3, 4}, &expired_b);
  auto bins_b = batcher.BasisBinCounts(basis_set, &expired_b);
  member_a.join();
  batcher.EndQuery();
  batcher.EndQuery();
  EXPECT_EQ(pairs_a.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(pairs_b.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(bins_a.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(bins_b.status().code(), StatusCode::kCancelled);
}

/// An attached executor that breaks one way: it fails the bin scan with
/// kUnavailable (a backend that went away), or answers the pair or bin
/// scan with a result of the wrong shape. Otherwise it runs the direct
/// scans.
class FaultyCountExecutor : public CountExecutor {
 public:
  enum class Fault { kUnavailableBins, kShortPairs, kShortBins, kShortBinRow };

  FaultyCountExecutor(const TransactionDatabase& db, Fault fault)
      : db_(db), fault_(fault) {}

  Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const override {
    if (fault_ == Fault::kUnavailableBins) {
      return Status::Unavailable("count backend went away");
    }
    PRIVBASIS_ASSIGN_OR_RETURN(auto bins,
                               CountBasisBins(db_, basis_set, 0, cancel));
    if (fault_ == Fault::kShortBins) bins.pop_back();
    if (fault_ == Fault::kShortBinRow) bins.front().pop_back();
    return bins;
  }

  Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items,
      const CancelToken* cancel) const override {
    PRIVBASIS_ASSIGN_OR_RETURN(auto pairs,
                               CountPairSupports(db_, items, 0, cancel));
    if (fault_ == Fault::kShortPairs) pairs.pop_back();
    return pairs;
  }

 private:
  const TransactionDatabase& db_;
  Fault fault_;
};

/// An attached executor that counts the calls of each op and answers
/// them with the direct scans.
class RecordingCountExecutor : public CountExecutor {
 public:
  explicit RecordingCountExecutor(const TransactionDatabase& db) : db_(db) {}

  Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const override {
    bin_calls.fetch_add(1);
    return CountBasisBins(db_, basis_set, 0, cancel);
  }

  Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items,
      const CancelToken* cancel) const override {
    pair_calls.fetch_add(1);
    return CountPairSupports(db_, items, 0, cancel);
  }

  mutable std::atomic<size_t> pair_calls{0};
  mutable std::atomic<size_t> bin_calls{0};

 private:
  const TransactionDatabase& db_;
};

/// k = 20 over 12 items keeps η·k above λ, and a zero fast-path cap
/// sends every λ to basis construction, so the pair step always runs.
QuerySpec PairStepSpec() {
  QuerySpec spec = QuerySpec().WithTopK(20).WithEpsilon(1.0).WithSeed(5);
  spec.pb.single_basis_lambda_cap = 0;
  return spec;
}

TEST(CountExecutorTest, UnavailableExecutorFailsClosedWithFullCharge) {
  auto dataset = SmallDataset(5.0);
  const QuerySpec spec = PairStepSpec();
  dataset->AttachCountExecutor(std::make_shared<FaultyCountExecutor>(
      dataset->db(), FaultyCountExecutor::Fault::kUnavailableBins));
  auto release = Engine::Run(*dataset, spec);
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kUnavailable)
      << release.status();
  // Fail closed: the aborted lease charges the full reservation. A
  // broken executor can lose a query, never ε.
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), spec.epsilon);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);

  // Detached, the dataset counts through a direct executor again and
  // serves.
  dataset->AttachCountExecutor(nullptr);
  EXPECT_NE(dynamic_cast<const DirectCountExecutor*>(
                dataset->EnsureCountExecutor().get()),
            nullptr);
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release ok, Engine::Run(*dataset, spec));
  EXPECT_FALSE(ok.itemsets.empty());
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(),
                   spec.epsilon + ok.epsilon_spent);
}

// A full-data query counts only through the dataset's executor: one pair
// call and one bin call. A subsampled query counts its sample through an
// executor of its own and never calls the dataset's.
TEST(CountExecutorTest, QueryCountsOnlyThroughDatasetExecutor) {
  auto dataset = SmallDataset();
  auto recorder = std::make_shared<RecordingCountExecutor>(dataset->db());
  dataset->AttachCountExecutor(recorder);
  const QuerySpec spec = PairStepSpec();
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release release, Engine::Run(*dataset, spec));
  ASSERT_GE(release.lambda, 2u) << "the pair step needs two items";
  EXPECT_EQ(recorder->pair_calls.load(), 1u);
  EXPECT_EQ(recorder->bin_calls.load(), 1u);

  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      Release sampled,
      Engine::Run(*dataset, QuerySpec(spec).WithAmplification(0.5)));
  EXPECT_FALSE(sampled.itemsets.empty());
  EXPECT_EQ(recorder->pair_calls.load(), 1u);
  EXPECT_EQ(recorder->bin_calls.load(), 1u);
}

TEST(CountExecutorTest, WrongSizedCountsFailInternalWithFullCharge) {
  using Fault = FaultyCountExecutor::Fault;
  for (const Fault fault :
       {Fault::kShortPairs, Fault::kShortBins, Fault::kShortBinRow}) {
    auto dataset = SmallDataset(5.0);
    const QuerySpec spec = PairStepSpec();
    dataset->AttachCountExecutor(
        std::make_shared<FaultyCountExecutor>(dataset->db(), fault));
    auto release = Engine::Run(*dataset, spec);
    ASSERT_FALSE(release.ok()) << static_cast<int>(fault);
    EXPECT_EQ(release.status().code(), StatusCode::kInternal)
        << release.status();
    EXPECT_EQ(dataset->accountant()->spent_epsilon(), spec.epsilon);
    EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  }
}

// A fused round whose inner count comes back the wrong shape fails every
// member with kInternal instead of splitting rows that are not there.
TEST(CountExecutorTest, BatchedWrongSizedCountsFailInternal) {
  using Fault = FaultyCountExecutor::Fault;
  const TransactionDatabase db = MakeRandomDb({.seed = 7});
  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1}));
  for (const Fault fault : {Fault::kShortPairs, Fault::kShortBins}) {
    BatchingCountExecutor batcher(
        std::make_shared<FaultyCountExecutor>(db, fault),
        {.window_us = 2'000'000, .max_batch = 2});
    batcher.BeginQuery();
    batcher.BeginQuery();
    Result<std::vector<uint64_t>> pairs_a = Status::Internal("unset");
    Result<std::vector<std::vector<uint64_t>>> bins_a =
        Status::Internal("unset");
    std::thread member_a([&] {
      pairs_a = batcher.PairSupports({0, 1, 2}, nullptr);
      bins_a = batcher.BasisBinCounts(basis_set, nullptr);
    });
    auto pairs_b = batcher.PairSupports({2, 3}, nullptr);
    auto bins_b = batcher.BasisBinCounts(basis_set, nullptr);
    member_a.join();
    batcher.EndQuery();
    batcher.EndQuery();
    if (fault == Fault::kShortPairs) {
      EXPECT_EQ(pairs_a.status().code(), StatusCode::kInternal);
      EXPECT_EQ(pairs_b.status().code(), StatusCode::kInternal);
      EXPECT_TRUE(bins_a.ok() && bins_b.ok());
    } else {
      EXPECT_TRUE(pairs_a.ok() && pairs_b.ok());
      EXPECT_EQ(bins_a.status().code(), StatusCode::kInternal);
      EXPECT_EQ(bins_b.status().code(), StatusCode::kInternal);
    }
  }
}

}  // namespace
}  // namespace privbasis
