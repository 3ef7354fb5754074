#include "stages.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/rng.h"
#include "core/construct_basis.h"
#include "core/privbasis.h"
#include "dp/budget.h"
#include "server/http.h"
#include "server/wire.h"
#include "store/wal.h"

namespace perfbench {

using namespace privbasis;

namespace {

/// Forwards to the dataset's executor and clocks the bin counting, so
/// BasisFreq's scan and its noise-side work are timed apart.
class TimedCountExecutor : public CountExecutor {
 public:
  explicit TimedCountExecutor(const CountExecutor& inner) : inner_(inner) {}

  size_t NumShards() const override { return inner_.NumShards(); }
  Result<std::vector<std::vector<uint64_t>>> BasisBinCounts(
      const BasisSet& basis_set, const CancelToken* cancel) const override {
    const auto start = Clock::now();
    auto out = inner_.BasisBinCounts(basis_set, cancel);
    bin_ms_ += MsSince(start);
    return out;
  }
  Result<std::vector<uint64_t>> PairSupports(
      const std::vector<Item>& items,
      const CancelToken* cancel) const override {
    return inner_.PairSupports(items, cancel);
  }
  Result<std::vector<uint64_t>> SupportOfMany(
      std::span<const Itemset> queries,
      const CancelToken* cancel) const override {
    return inner_.SupportOfMany(queries, cancel);
  }
  Result<std::vector<uint64_t>> ItemSupports(
      const CancelToken* cancel) const override {
    return inner_.ItemSupports(cancel);
  }

  double bin_ms() const { return bin_ms_; }

 private:
  const CountExecutor& inner_;
  mutable double bin_ms_ = 0;
};

}  // namespace

// Mirrors detail::RunPrivBasisImpl (core/privbasis.cc) step for step: the
// same budget split, λ clamp, λ2 heuristic and RNG draw order, so the
// release is bit-identical to Engine::Run's at the same seed. The engine
// passes the cached margin as the fk1 hint; so does this.
Result<TracedQuery> RunTraced(const Dataset& dataset, const QuerySpec& spec,
                              const CountExecutor& exec) {
  const PrivBasisOptions& o = spec.pb;
  const TransactionDatabase& db = dataset.db();
  const size_t k = spec.k;
  const double eps = spec.epsilon;
  PRIVBASIS_ASSIGN_OR_RETURN(uint64_t fk1,
                             dataset.MarginSupport(k, o.eta, nullptr));

  TracedQuery out;
  StageTimes& ms = out.ms;
  Rng rng(spec.seed);
  PrivacyAccountant ledger(eps);
  TimedCountExecutor timed(exec);

  PRIVBASIS_RETURN_NOT_OK(ledger.Consume(o.alpha1 * eps, "GetLambda"));
  auto start = Clock::now();
  uint32_t lambda = GetLambda(db, fk1, o.alpha1 * eps, rng);
  ms.lambda = MsSince(start);
  const size_t lambda_cap = o.lambda_cap != 0
                                ? o.lambda_cap
                                : std::min<size_t>(3 * k, db.UniverseSize());
  lambda = static_cast<uint32_t>(
      std::min<size_t>(std::max<size_t>(1, lambda),
                       std::min<size_t>(lambda_cap, db.UniverseSize())));
  out.release.lambda = lambda;
  const double alpha3_eps = (1.0 - o.alpha1 - o.alpha2) * eps;

  BasisSet basis_set;
  if (lambda <= o.single_basis_lambda_cap) {
    PRIVBASIS_RETURN_NOT_OK(ledger.Consume(o.alpha2 * eps, "GetFreqItems"));
    start = Clock::now();
    PRIVBASIS_ASSIGN_OR_RETURN(
        std::vector<size_t> picks,
        GetFreqElements(db.ItemSupports(), lambda, o.alpha2 * eps,
                        o.monotonic_em, rng));
    ms.item_select = MsSince(start);
    start = Clock::now();
    std::vector<Item> f;
    for (size_t idx : picks) f.push_back(static_cast<Item>(idx));
    basis_set = BasisSet({Itemset(std::move(f))});
    ms.basis_build = MsSince(start);
  } else {
    const double lambda2_naive =
        o.eta * static_cast<double>(k) - static_cast<double>(lambda);
    double lambda2 = 0.0;
    if (lambda2_naive > 0.0) {
      lambda2 = o.naive_lambda2
                    ? lambda2_naive
                    : lambda2_naive /
                          std::sqrt(std::max(
                              1.0, lambda2_naive /
                                       static_cast<double>(lambda)));
    }
    size_t lambda2_count = static_cast<size_t>(std::llround(lambda2));
    const double beta1 =
        o.alpha2 * static_cast<double>(lambda) /
        (static_cast<double>(lambda) + static_cast<double>(lambda2_count));
    const double beta2 = o.alpha2 - beta1;

    PRIVBASIS_RETURN_NOT_OK(ledger.Consume(beta1 * eps, "GetFreqItems"));
    start = Clock::now();
    PRIVBASIS_ASSIGN_OR_RETURN(
        std::vector<size_t> item_picks,
        GetFreqElements(db.ItemSupports(), lambda, beta1 * eps,
                        o.monotonic_em, rng));
    std::vector<Item> f;
    for (size_t idx : item_picks) f.push_back(static_cast<Item>(idx));
    ms.item_select = MsSince(start);

    std::vector<Itemset> p;
    if (lambda2_count > 0 && f.size() >= 2) {
      start = Clock::now();
      PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint64_t> pair_counts,
                                 exec.PairSupports(f, nullptr));
      ms.pair_count = MsSince(start);
      if (pair_counts.size() != f.size() * f.size()) {
        return Status::Internal("executor returned a malformed pair table");
      }
      start = Clock::now();
      std::vector<std::pair<uint32_t, uint32_t>> pair_index;
      std::vector<uint64_t> qualities;
      for (uint32_t i = 0; i < f.size(); ++i) {
        for (uint32_t j = i + 1; j < f.size(); ++j) {
          pair_index.push_back({i, j});
          qualities.push_back(
              pair_counts[static_cast<size_t>(i) * f.size() + j]);
        }
      }
      lambda2_count = std::min(lambda2_count, pair_index.size());
      if (lambda2_count > 0 && beta2 > 0.0) {
        PRIVBASIS_RETURN_NOT_OK(ledger.Consume(beta2 * eps, "GetFreqPairs"));
        PRIVBASIS_ASSIGN_OR_RETURN(
            std::vector<size_t> pair_picks,
            GetFreqElements(qualities, lambda2_count, beta2 * eps,
                            o.monotonic_em, rng));
        for (size_t idx : pair_picks) {
          p.push_back(Itemset{f[pair_index[idx].first],
                              f[pair_index[idx].second]});
        }
      }
      ms.pair_select = MsSince(start);
    }
    out.release.lambda2 = static_cast<uint32_t>(p.size());

    ConstructBasisOptions cb;
    cb.max_basis_length = o.max_basis_length;
    start = Clock::now();
    PRIVBASIS_ASSIGN_OR_RETURN(basis_set, ConstructBasisSet(f, p, cb));
    ms.basis_build = MsSince(start);
  }

  BasisFreqOptions bf_options = o.basis_freq;
  bf_options.exec = &timed;
  start = Clock::now();
  PRIVBASIS_ASSIGN_OR_RETURN(
      BasisFreqResult bf,
      BasisFreq(db, basis_set, k, alpha3_eps, rng, &ledger, bf_options));
  const double basis_freq_total = MsSince(start);
  ms.bin_count = timed.bin_ms();
  ms.basis_freq = basis_freq_total - ms.bin_count;

  out.candidates = bf.num_candidates;
  out.release.method = QueryMethod::kPrivBasis;
  out.release.itemsets = std::move(bf.topk);
  out.release.basis_set = std::move(basis_set);
  out.release.epsilon_requested = eps;
  out.release.epsilon_spent = ledger.spent_epsilon();
  return out;
}

void StageSummary::Add(const TracedQuery& traced, double engine_run_ms) {
  ++n_;
  sum_.lambda += traced.ms.lambda;
  sum_.item_select += traced.ms.item_select;
  sum_.pair_count += traced.ms.pair_count;
  sum_.pair_select += traced.ms.pair_select;
  sum_.basis_build += traced.ms.basis_build;
  sum_.bin_count += traced.ms.bin_count;
  sum_.basis_freq += traced.ms.basis_freq;
  engine_ms_ += engine_run_ms;
  const Release& r = traced.release;
  lambda_ += r.lambda;
  lambda2_ += r.lambda2;
  width_ += static_cast<double>(r.basis_set.Width());
  max_len_ += static_cast<double>(r.basis_set.Length());
  candidates_ += static_cast<double>(traced.candidates);
  released_ += static_cast<double>(r.itemsets.size());
}

void StageSummary::Emit(Report* report) const {
  const double n = std::max<double>(1.0, static_cast<double>(n_));
  auto per_query = [&](const char* name, double total) {
    report->Metric(name, total / n, "ms", n_);
  };
  per_query("core.lambda_ms", sum_.lambda);
  per_query("core.item_select_ms", sum_.item_select);
  per_query("core.pair_count_ms", sum_.pair_count);
  per_query("core.pair_select_ms", sum_.pair_select);
  per_query("core.basis_build_ms", sum_.basis_build);
  per_query("core.bin_count_ms", sum_.bin_count);
  per_query("core.basis_freq_ms", sum_.basis_freq);
  per_query("engine.run_ms", engine_ms_);
  // Engine::Run and the recomposition are separate calls, so where the
  // engine's own work (validation, lease, commit) is below their timing
  // noise the difference can dip under 0; it reads 0 then.
  per_query("engine.other_ms", std::max(0.0, engine_ms_ - sum_.Sum()));
  report->Metric("core.lambda", lambda_ / n, "count", n_);
  report->Metric("core.lambda2", lambda2_ / n, "count", n_);
  report->Metric("core.basis_width", width_ / n, "count", n_);
  report->Metric("core.basis_max_len", max_len_ / n, "count", n_);
  report->Metric("core.candidates", candidates_ / n, "count", n_);
  report->Metric("core.candidate_yield",
                 candidates_ > 0 ? released_ / candidates_ : 0.0, "ratio",
                 n_);
  report->Metric("trace.coverage",
                 engine_ms_ > 0 ? sum_.Sum() / engine_ms_ : 0.0, "ratio", n_);
}

size_t CacheBuilds(const Dataset::CacheCounters& before,
                   const Dataset::CacheCounters& after) {
  return (after.stats_builds - before.stats_builds) +
         (after.index_builds - before.index_builds) +
         (after.margin_mines - before.margin_mines) +
         (after.truth_mines - before.truth_mines) +
         (after.tf_builds - before.tf_builds) +
         (after.shard_builds - before.shard_builds);
}

std::string QueryBody(const std::string& dataset_id, const QuerySpec& spec) {
  json::Value body;
  body.Set("dataset", dataset_id);
  body.Set("k", spec.k);
  body.Set("epsilon", spec.epsilon);
  body.Set("seed", spec.seed);
  return body.Dump();
}

std::string WireCost::Add(const std::string& dataset_id,
                          const QuerySpec& spec, const Release& release) {
  const std::string body = QueryBody(dataset_id, spec);
  std::string wire =
      "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;

  auto start = Clock::now();
  server::HttpRequest request;
  const server::HttpParseResult parsed =
      server::ParseHttpRequest(&wire, server::HttpLimits{}, &request);
  if (parsed.outcome != server::HttpParseOutcome::kOk) {
    return "request bytes did not parse";
  }
  auto value = json::Parse(request.body);
  if (!value.ok()) return "request body is not JSON";
  auto parsed_spec = server::QuerySpecFromJson(*value);
  parse_ms_.push_back(MsSince(start));
  if (!parsed_spec.ok() || parsed_spec->seed != spec.seed ||
      parsed_spec->k != spec.k) {
    return "request spec did not round-trip";
  }

  start = Clock::now();
  server::HttpResponse response;
  response.body = server::ReleaseToJson(release).Dump();
  const std::string bytes = server::SerializeHttpResponse(response);
  serialize_ms_.push_back(MsSince(start));
  response_bytes_.push_back(static_cast<double>(bytes.size()));
  return {};
}

void WireCost::Emit(Report* report) const {
  report->Metric("server.parse_ms", Mean(parse_ms_), "ms", parse_ms_.size());
  report->Metric("server.serialize_ms", Mean(serialize_ms_), "ms",
                 serialize_ms_.size());
  report->Metric("server.response_bytes", Mean(response_bytes_), "bytes",
                 response_bytes_.size());
}

void WalCost(const std::string& path, const std::string& fsync, size_t count,
             Report* report) {
  ::unlink(path.c_str());
  auto mode = store::ParseFsyncMode(fsync);
  auto wal = mode.ok() ? store::BudgetWal::Open(path, *mode)
                       : Result<std::unique_ptr<store::BudgetWal>>(
                             mode.status());
  if (!wal.ok()) {
    report->Check(false, "open scratch WAL: " + wal.status().ToString());
    return;
  }
  struct stat before {};
  ::stat(path.c_str(), &before);
  std::vector<double> ms;
  for (size_t i = 0; i < count; ++i) {
    const auto start = Clock::now();
    auto txn = (*wal)->AppendReserve("ds-1", 1.0, "pb");
    Status committed = txn.ok() ? (*wal)->AppendCommit(*txn, "ds-1", 1.0, "pb")
                                : txn.status();
    ms.push_back(MsSince(start));
    if (!committed.ok()) {
      report->Check(false, "WAL append: " + committed.ToString());
      break;
    }
  }
  struct stat after {};
  ::stat(path.c_str(), &after);
  wal->reset();
  ::unlink(path.c_str());
  report->Metric("store.wal_append_ms", Mean(ms), "ms", ms.size());
  report->Metric("store.wal_bytes_per_query",
                 ms.empty() ? 0.0
                            : static_cast<double>(after.st_size -
                                                  before.st_size) /
                                  static_cast<double>(ms.size()),
                 "bytes", ms.size());
}

}  // namespace perfbench
