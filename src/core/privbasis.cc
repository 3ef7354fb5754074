#include "core/privbasis.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/logspace.h"
#include "common/thread_pool.h"
#include "core/construct_basis.h"
#include "dp/budget.h"
#include "dp/exponential_mechanism.h"
#include "fim/topk.h"

namespace privbasis {

uint32_t GetLambda(const TransactionDatabase& db, uint64_t fk1_support,
                   double epsilon, Rng& rng) {
  // Quality of rank j (1-based): (1 − |f_itemj − θ|)·N = N − |c_j − θ·N|
  // in count units. Ranks sharing an item count share a quality, so we
  // offer one Gumbel per support group of the database's item order.
  const SupportGroups& groups = db.ItemSupportGroups();
  if (groups.NumGroups() == 0) return 1;  // empty universe: nothing to rank
  const double n = static_cast<double>(db.NumTransactions());
  const double theta_count = static_cast<double>(fk1_support);
  const double factor = epsilon / 2.0;  // GS_q = 1, standard EM exponent

  GumbelMaxSampler sampler(&rng);
  for (size_t g = 0; g < groups.NumGroups(); ++g) {
    const double quality =
        n - std::abs(static_cast<double>(groups.Value(g)) - theta_count);
    sampler.OfferGroup(g, factor * quality,
                       static_cast<double>(groups.Size(g)));
  }
  const size_t winner = sampler.WinnerKey();
  const size_t rank =
      groups.Begin(winner) + rng.UniformInt(groups.Size(winner));
  return static_cast<uint32_t>(rank + 1);  // 1-based rank = λ
}

namespace {

Result<std::vector<size_t>> SelectFromPool(GroupedEmPool& pool, size_t count,
                                           double epsilon, bool monotonic,
                                           Rng& rng) {
  if (count > pool.NumRemaining()) {
    return Status::InvalidArgument(
        "GetFreqElements: requested " + std::to_string(count) + " of " +
        std::to_string(pool.NumRemaining()) + " candidates");
  }
  if (count == 0) return std::vector<size_t>{};
  // Per-round budget ε/count; quality = support (GS 1, monotone: adding a
  // transaction can only raise supports).
  const double per_round = epsilon / static_cast<double>(count);
  const double factor = per_round / (monotonic ? 1.0 : 2.0);
  return pool.SelectK(rng, count, factor);
}

}  // namespace

Result<std::vector<size_t>> GetFreqElements(
    std::span<const uint64_t> candidate_supports, size_t count,
    double epsilon, bool monotonic, Rng& rng) {
  GroupedEmPool pool(candidate_supports);
  return SelectFromPool(pool, count, epsilon, monotonic, rng);
}

Result<std::vector<size_t>> GetFreqElements(const SupportGroups& candidates,
                                            size_t count, double epsilon,
                                            bool monotonic, Rng& rng) {
  GroupedEmPool pool(candidates);
  return SelectFromPool(pool, count, epsilon, monotonic, rng);
}

Result<std::vector<uint64_t>> CountPairSupports(
    const TransactionDatabase& db, const std::vector<Item>& items,
    size_t num_threads, const CancelToken* cancel) {
  const size_t m = items.size();
  std::unordered_map<Item, uint32_t> local;
  local.reserve(m * 2);
  for (uint32_t i = 0; i < m; ++i) local.emplace(items[i], i);

  std::vector<uint64_t> counts(m * m, 0);
  const size_t n = db.NumTransactions();
  if (m < 2 || n == 0) return counts;

  // The scan splits into contiguous transaction ranges on the pool, one
  // exact m×m count array per range, summed in range order, so the
  // counts are identical at every thread count.
  const size_t threads = EffectiveThreads(num_threads);
  const size_t num_ranges = CountScanRanges(n, threads, m * m);
  constexpr size_t kCancelChunk = 1024;
  std::atomic<bool> cancelled{false};
  std::vector<std::vector<uint64_t>> range_counts(
      num_ranges, std::vector<uint64_t>(m * m, 0));
  ThreadPool::Global().ParallelFor(
      0, n, (n + num_ranges - 1) / num_ranges, threads,
      [&](size_t range_begin, size_t range_end, size_t r) {
        std::vector<uint64_t>& local_counts = range_counts[r];
        std::vector<uint32_t> present;
        for (size_t t = range_begin; t < range_end; ++t) {
          if ((t - range_begin) % kCancelChunk == 0) {
            if (cancelled.load(std::memory_order_relaxed)) return;
            if (IsCancelled(cancel)) {
              cancelled.store(true, std::memory_order_relaxed);
              return;
            }
          }
          present.clear();
          for (Item it : db.Transaction(t)) {
            auto found = local.find(it);
            if (found != local.end()) present.push_back(found->second);
          }
          for (size_t a = 0; a < present.size(); ++a) {
            for (size_t b = a + 1; b < present.size(); ++b) {
              uint32_t i = std::min(present[a], present[b]);
              uint32_t j = std::max(present[a], present[b]);
              ++local_counts[static_cast<size_t>(i) * m + j];
            }
          }
        }
      });
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("pair counting cancelled mid-scan");
  }
  for (const std::vector<uint64_t>& partial : range_counts) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += partial[i];
  }
  return counts;
}

Status ValidatePrivBasisOptions(size_t k, double epsilon,
                                const PrivBasisOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be > 0 and finite");
  }
  const double alpha_sum = options.alpha1 + options.alpha2 + options.alpha3;
  if (options.alpha1 <= 0 || options.alpha2 <= 0 || options.alpha3 <= 0 ||
      alpha_sum > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        "alpha1, alpha2, alpha3 must be positive and sum to at most 1");
  }
  if (!(options.eta >= 1.0) || !std::isfinite(options.eta)) {
    return Status::InvalidArgument(
        "eta must be >= 1 and finite (GetLambda targets the "
        "ceil(eta*k)-th itemset)");
  }
  // The margin rank ceil(eta*k) and the default lambda cap 3*k are
  // size_t; casting an out-of-range double is undefined behaviour, and
  // 3*k would wrap.
  if (k > std::numeric_limits<size_t>::max() / 3) {
    return Status::InvalidArgument("k is too large (3*k must fit in size_t)");
  }
  const double size_limit =
      std::ldexp(1.0, std::numeric_limits<size_t>::digits);
  if (!(std::ceil(static_cast<double>(k) * options.eta) < size_limit)) {
    return Status::InvalidArgument(
        "eta*k is too large (ceil(eta*k) must fit in size_t)");
  }
  // ConstructBasisSet needs ℓ ≥ 3 and BasisFreq refuses a basis longer
  // than its cap. Both fail only after ε is reserved, so check here.
  const size_t bin_cap = options.basis_freq.max_basis_length;
  if (options.max_basis_length < 3 || options.max_basis_length > bin_cap) {
    return Status::InvalidArgument(
        "max_basis_length must be in [3, " + std::to_string(bin_cap) + "]");
  }
  if (options.single_basis_lambda_cap > bin_cap) {
    return Status::InvalidArgument("single_basis_lambda_cap must be <= " +
                                   std::to_string(bin_cap));
  }
  return Status::OK();
}

namespace detail {

Result<PrivBasisResult> RunPrivBasisImpl(const TransactionDatabase& db,
                                         const CountExecutor& exec, size_t k,
                                         double epsilon, Rng& rng,
                                         const PrivBasisOptions& options,
                                         PrivacyAccountant& accountant) {
  PRIVBASIS_RETURN_NOT_OK(ValidatePrivBasisOptions(k, epsilon, options));
  if (db.NumTransactions() == 0 || db.UniverseSize() == 0) {
    return Status::InvalidArgument("empty database");
  }

  PrivBasisResult result;

  // Step 1: λ.
  uint64_t fk1_support = options.fk1_support_hint;
  if (fk1_support == 0) {
    size_t k1 = static_cast<size_t>(
        std::ceil(static_cast<double>(k) * options.eta));
    PRIVBASIS_ASSIGN_OR_RETURN(
        TopKResult top,
        MineTopK(db, k1, /*max_length=*/0, /*num_threads=*/0,
                 options.cancel));
    fk1_support = top.kth_support;
  }
  PRIVBASIS_RETURN_NOT_OK(
      accountant.Consume(options.alpha1 * epsilon, "GetLambda"));
  uint32_t lambda = GetLambda(db, fk1_support, options.alpha1 * epsilon, rng);
  size_t lambda_cap = options.lambda_cap != 0
                          ? options.lambda_cap
                          : std::min<size_t>(3 * k, db.UniverseSize());
  lambda = static_cast<uint32_t>(
      std::min<size_t>(std::max<size_t>(1, lambda),
                       std::min<size_t>(lambda_cap, db.UniverseSize())));
  result.lambda = lambda;

  const double alpha3_eps = (1.0 - options.alpha1 - options.alpha2) * epsilon;

  if (lambda <= options.single_basis_lambda_cap) {
    // Fast path: one basis holding the λ most frequent items.
    PRIVBASIS_RETURN_NOT_OK(
        accountant.Consume(options.alpha2 * epsilon, "GetFreqItems"));
    PRIVBASIS_ASSIGN_OR_RETURN(
        std::vector<size_t> picks,
        GetFreqElements(db.ItemSupportGroups(), lambda,
                        options.alpha2 * epsilon, options.monotonic_em, rng));
    std::vector<Item> f;
    f.reserve(picks.size());
    for (size_t idx : picks) f.push_back(static_cast<Item>(idx));
    result.basis_set = BasisSet({Itemset(std::move(f))});
  } else {
    // λ2 heuristic (§4.4).
    double lambda2_naive =
        options.eta * static_cast<double>(k) - static_cast<double>(lambda);
    double lambda2 = 0.0;
    if (lambda2_naive > 0.0) {
      lambda2 = options.naive_lambda2
                    ? lambda2_naive
                    : lambda2_naive /
                          std::sqrt(std::max(
                              1.0, lambda2_naive /
                                       static_cast<double>(lambda)));
    }
    size_t lambda2_count = static_cast<size_t>(std::llround(lambda2));
    const double beta1 =
        options.alpha2 * static_cast<double>(lambda) /
        (static_cast<double>(lambda) + static_cast<double>(lambda2_count));
    const double beta2 = options.alpha2 - beta1;

    // Step 2: the λ most frequent items.
    PRIVBASIS_RETURN_NOT_OK(
        accountant.Consume(beta1 * epsilon, "GetFreqItems"));
    PRIVBASIS_ASSIGN_OR_RETURN(
        std::vector<size_t> item_picks,
        GetFreqElements(db.ItemSupportGroups(), lambda, beta1 * epsilon,
                        options.monotonic_em, rng));
    std::vector<Item> f;
    f.reserve(item_picks.size());
    for (size_t idx : item_picks) f.push_back(static_cast<Item>(idx));

    // Step 3: the λ2 most frequent pairs within F.
    std::vector<Itemset> p;
    if (lambda2_count > 0 && f.size() >= 2) {
      PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint64_t> pair_counts,
                                 exec.PairSupports(f, options.cancel));
      if (pair_counts.size() != f.size() * f.size()) {
        return Status::Internal(
            "executor returned " + std::to_string(pair_counts.size()) +
            " pair counts for " + std::to_string(f.size()) + " items");
      }
      std::vector<std::pair<uint32_t, uint32_t>> pair_index;
      std::vector<uint64_t> qualities;
      pair_index.reserve(f.size() * (f.size() - 1) / 2);
      for (uint32_t i = 0; i < f.size(); ++i) {
        for (uint32_t j = i + 1; j < f.size(); ++j) {
          pair_index.push_back({i, j});
          qualities.push_back(pair_counts[static_cast<size_t>(i) * f.size() + j]);
        }
      }
      lambda2_count = std::min(lambda2_count, pair_index.size());
      if (lambda2_count > 0 && beta2 > 0.0) {
        PRIVBASIS_RETURN_NOT_OK(
            accountant.Consume(beta2 * epsilon, "GetFreqPairs"));
        PRIVBASIS_ASSIGN_OR_RETURN(
            std::vector<size_t> pair_picks,
            GetFreqElements(qualities, lambda2_count, beta2 * epsilon,
                            options.monotonic_em, rng));
        for (size_t idx : pair_picks) {
          p.push_back(Itemset{f[pair_index[idx].first],
                              f[pair_index[idx].second]});
        }
      }
    }
    result.lambda2 = static_cast<uint32_t>(p.size());

    // Step 4: basis construction (no privacy cost).
    ConstructBasisOptions cb;
    cb.max_basis_length = options.max_basis_length;
    PRIVBASIS_ASSIGN_OR_RETURN(result.basis_set, ConstructBasisSet(f, p, cb));
  }

  // Step 5: noisy counts over C(B) and top-k selection.
  BasisFreqOptions bf_options = options.basis_freq;
  bf_options.exec = &exec;
  PRIVBASIS_ASSIGN_OR_RETURN(
      BasisFreqResult bf,
      BasisFreq(db, result.basis_set, k, alpha3_eps, rng, &accountant,
                bf_options));
  result.topk = std::move(bf.topk);
  result.epsilon_spent = accountant.spent_epsilon();
  return result;
}

}  // namespace detail

}  // namespace privbasis
