// The in-process workloads: one closed-loop caller of Engine::Run on a
// warm Dataset. Each isolates one stage of the PrivBasis pipeline (see
// perfbench/README.md for the why of each size).
#include <cmath>
#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "engine/dataset.h"
#include "engine/engine.h"
#include "eval/metrics.h"
#include "stages.h"
#include "workloads.h"

namespace perfbench {

using namespace privbasis;

namespace {

struct InProcessWorkload {
  const char* name;
  SyntheticProfile (*profile)(double scale);
  double scale;
  size_t k;
  /// Fixed tail percentile: the highest of p60..p95 that keeps at least
  /// kMinTailBeyond samples beyond it even in a 20 s window (runs last
  /// 25 s) if queries take 1.6 times as long as on the slowest host this
  /// commit was measured on: kosarak ≈57 queries there (p70: 17 beyond), pumsb ≈430
  /// (p95: 21), aol ≈40 (p60: 16).
  double tail_percentile;
  /// Utility (fnr, median_re) is averaged over the first this-many query
  /// seeds, run after the window if the window did not reach them.
  size_t utility_queries;
};

constexpr InProcessWorkload kWorkloads[] = {
    {"kosarak-k300", &SyntheticProfile::Kosarak, 0.05, 300, 70.0, 64},
    {"pumsb-k200", &SyntheticProfile::PumsbStar, 1.0, 200, 95.0, 256},
    {"aol-k100", &SyntheticProfile::Aol, 0.1, 100, 60.0, 48},
};

const InProcessWorkload* Find(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Query streams under one workload seed.
constexpr uint64_t kSetupStream = 1;
constexpr uint64_t kWindowStream = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;

QuerySpec SpecFor(const InProcessWorkload& w, uint64_t seed) {
  return QuerySpec().WithTopK(w.k).WithEpsilon(kEpsilon).WithSeed(seed);
}

}  // namespace

bool IsInProcessWorkload(const std::string& name) {
  return Find(name) != nullptr;
}

void RunInProcess(const RunOptions& options, Report* report) {
  const InProcessWorkload& w = *Find(options.workload);
  const SyntheticProfile profile = w.profile(w.scale);

  // ---- set-up: generate, cold margin mine, first (cold) query ---------
  std::shared_ptr<Dataset> dataset;
  std::vector<double> setup_s, generate_ms, margin_ms;
  HostSpeed setup_host;
  double ledger_expected = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dataset.reset();
    const auto start = Clock::now();
    auto db = GenerateDataset(profile, kGenerationSeed);
    generate_ms.push_back(MsSince(start));
    if (!db.ok()) {
      report->Op("generate: " + db.status().ToString());
      return;
    }
    dataset = Dataset::Create(std::move(*db));
    const auto margin_start = Clock::now();
    auto margin = dataset->MarginSupport(w.k, PrivBasisOptions{}.eta);
    margin_ms.push_back(MsSince(margin_start));
    if (!margin.ok()) {
      report->Op("margin: " + margin.status().ToString());
      return;
    }
    auto first = Engine::Run(
        *dataset, SpecFor(w, QuerySeed(options.seed, kSetupStream, rep)));
    setup_s.push_back(MsSince(start) / 1000.0);
    for (int i = 0; i < 3; ++i) setup_host.Sample();
    report->Op(first.ok() ? CheckRelease(*first, w.k)
                          : first.status().ToString());
    ledger_expected = first.ok() ? first->epsilon_spent : 0.0;
  }

  // ---- untimed: the traced run's executor -----------------------------
  std::shared_ptr<const CountExecutor> exec;
  if (options.trace) exec = dataset->EnsureCountExecutor();
  const Dataset::CacheCounters before = dataset->cache_counters();

  // ---- timed window ---------------------------------------------------
  std::vector<double> latency_ms, end_ms;
  std::vector<Release> utility_releases;
  StageSummary stages;
  WireCost wire;
  HostSpeed host;
  const CpuTicks window_ticks = ReadCpuTicks();
  const auto window_start = Clock::now();
  double window_ms = 0, last_host_sample_ms = -HostSpeed::kSampleEveryMs;
  for (uint64_t i = 0; window_ms < options.seconds * 1000.0; ++i) {
    const QuerySpec spec =
        SpecFor(w, QuerySeed(options.seed, kWindowStream, i));
    // The traced run alternates which of the pair goes first, so neither
    // side always finds the caches the other just warmed.
    Result<TracedQuery> traced = Status::Internal("not traced");
    if (options.trace && i % 2 == 1) traced = RunTraced(*dataset, spec, *exec);
    const auto start = Clock::now();
    auto release = Engine::Run(*dataset, spec);
    const double ms = MsSince(start);
    if (options.trace && i % 2 == 0) traced = RunTraced(*dataset, spec, *exec);
    window_ms = MsSince(window_start);

    latency_ms.push_back(ms);
    end_ms.push_back(window_ms);
    if (window_ms - last_host_sample_ms >= HostSpeed::kSampleEveryMs) {
      host.Sample(window_ms);
      last_host_sample_ms = window_ms;
    }
    if (!release.ok()) {
      report->Op("query: " + release.status().ToString());
      continue;
    }
    std::string error = CheckRelease(*release, w.k);
    ledger_expected += release->epsilon_spent;
    if (options.trace && error.empty()) {
      if (!traced.ok()) {
        error = "traced run: " + traced.status().ToString();
      } else if (std::string diff = CompareReleases(traced->release, *release);
                 !diff.empty()) {
        error = "traced release differs from Engine::Run: " + diff;
      } else {
        stages.Add(*traced, ms);
        error = wire.Add("ds-1", spec, *release);
      }
    }
    report->Op(error);
    if (utility_releases.size() < w.utility_queries) {
      utility_releases.push_back(std::move(*release));
    }
  }
  const Dataset::CacheCounters after = dataset->cache_counters();
  // Before the ground truth below: mining it builds the dataset's
  // vertical index, which no query on this unsharded dataset touches.
  const double peak_rss_mb = SelfPeakRssMb();
  const double steal_share = StealShareSince(window_ticks);

  // ---- untimed: utility over a fixed seed prefix, ledger conservation --
  auto truth = dataset->Truth(w.k);
  if (!truth.ok()) {
    report->Check(false, "ground truth: " + truth.status().ToString());
    return;
  }
  for (uint64_t i = utility_releases.size(); i < w.utility_queries; ++i) {
    auto release = Engine::Run(
        *dataset, SpecFor(w, QuerySeed(options.seed, kWindowStream, i)));
    report->Op(release.ok() ? CheckRelease(*release, w.k)
                            : release.status().ToString());
    if (!release.ok()) return;
    ledger_expected += release->epsilon_spent;
    utility_releases.push_back(std::move(*release));
  }
  std::vector<double> fnr, re;
  for (const Release& release : utility_releases) {
    const UtilityMetrics u = ComputeUtility((*truth)->topk.itemsets,
                                            release.itemsets,
                                            *(*truth)->index);
    fnr.push_back(u.fnr);
    re.push_back(u.relative_error);
  }
  const double spent = dataset->accountant()->spent_epsilon();
  report->Check(std::abs(spent - ledger_expected) <= 1e-9 * ledger_expected,
                "ledger spent " + std::to_string(spent) +
                    " != sum of per-query spends " +
                    std::to_string(ledger_expected));
  const size_t cache_builds = CacheBuilds(before, after);
  report->Check(cache_builds == 0, "a warm query rebuilt a dataset cache");

  // ---- metrics --------------------------------------------------------
  const size_t n = latency_ms.size();
  const double window_budget_ms = options.seconds * 1000.0;
  const std::vector<double> scaled_ms =
      host.AtReference(latency_ms, end_ms, window_budget_ms);
  const Tail tail = TailOf(scaled_ms, w.tail_percentile);
  // The traced run interleaves a recomposed query with each Engine::Run,
  // halving the samples; it reports no tail.
  if (!options.trace) {
    report->Check(tail.beyond >= kMinTailBeyond,
                  "only " + std::to_string(tail.beyond) +
                      " samples beyond the tail percentile");
  }
  report->Metric("query_p50_ms",
                 MedianOfBlockMedians(
                     SplitIntoBlocks(scaled_ms, end_ms, window_budget_ms)),
                 "ms", n);
  report->Metric("query_tail_ms", tail.value, "ms", n);
  report->Fact("query_tail_percentile", tail.percentile);
  report->Fact("query_tail_beyond", tail.beyond);
  report->Fact("query_quantiles_ms", QuantileFact(scaled_ms));
  // One closed-loop caller: queries per second of its query time.
  report->Metric("throughput_qps", 1000.0 / Mean(scaled_ms), "1/s", n);
  report->Fact("raw_query_p50_ms",
               MedianOfBlockMedians(
                   SplitIntoBlocks(latency_ms, end_ms, window_budget_ms)));
  report->Fact("raw_throughput_qps",
               static_cast<double>(n) / (window_ms / 1000.0));
  report->Fact("host_kernel_ms", host.MedianKernelMs());
  report->Fact("host_kernel_samples", host.samples());
  report->Fact("host_steal_share", steal_share);
  report->Metric("setup_s", Median(setup_s) * setup_host.Factor(), "s",
                 setup_s.size());
  report->Fact("raw_setup_s", Median(setup_s));
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB", 1);
  // Reported as recall = 1 − FNR: FNR itself reads 0 on some seeds of an
  // easy workload, and a metric judged by its relative change must not.
  report->Metric("recall", 1.0 - Mean(fnr), "ratio", fnr.size());
  report->Fact("fnr", Mean(fnr));
  report->Metric("median_re", Mean(re), "ratio", re.size());
  report->Fact("window_s", window_ms / 1000.0);
  report->Fact("num_transactions", dataset->db().NumTransactions());
  report->Fact("universe_size", dataset->db().UniverseSize());

  if (!options.trace) return;
  stages.Emit(report);
  wire.Emit(report);
  report->Metric("engine.margin_ms", Median(margin_ms), "ms", margin_ms.size());
  report->Metric("data.generate_ms", Median(generate_ms), "ms",
                 generate_ms.size());
  report->Metric("engine.cache_builds", static_cast<double>(cache_builds),
                 "count", 1);
  // No server in the path: the served-only layers read zero here (see
  // perfbench/README.md: a layer is read only on the workloads that run
  // it).
  for (const char* name : {"server.overhead_ms", "server.budget_read_ms",
                           "server.register_ms"}) {
    report->Metric(name, 0.0, "ms", 0);
  }
  report->Metric("server.budget_bytes", 0.0, "bytes", 0);
  WalCost(options.work_dir + "/trace.wal", kFsyncPolicy, 64, report);
}

}  // namespace perfbench
