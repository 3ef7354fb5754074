// Perf-trajectory smoke suite: times every counting-engine hot path with
// min-of-N wall timings and emits one PRIVBASIS_JSON line per phase —
// the input `tools/perf_trajectory.py` scrapes into BENCH_<rev>.json.
//
// Unlike the Google-Benchmark micro benches this is a plain binary with a
// fixed, fast (~seconds) workload, so CI can run it on every push and
// diff the numbers against the committed baseline. Dense-intersection
// phases run at both SIMD levels (tagged simd=scalar/avx2) for a
// built-in A/B; everything else runs at the active level.
//
// Knobs: PRIVBASIS_SMOKE_REPS (min-of-N repetitions, default 5, min 3),
// PRIVBASIS_SMOKE_SCALE (dataset scale multiplier, default 1.0), plus
// the usual PRIVBASIS_THREADS / PRIVBASIS_SIMD / PRIVBASIS_BITMAP_DENSITY.
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/basis_freq.h"
#include "data/synthetic.h"
#include "data/vertical_index.h"
#include "engine/engine.h"
#include "eval/ground_truth.h"
#include "fim/fpgrowth.h"
#include "fim/fptree.h"
#include "server/server.h"
#include "server/wire.h"

namespace privbasis::bench {
namespace {

size_t SmokeReps() {
  const int64_t reps = GetEnvInt("PRIVBASIS_SMOKE_REPS", 5);
  return static_cast<size_t>(std::max<int64_t>(3, reps));
}

double SmokeScale() {
  const double scale = GetEnvDouble("PRIVBASIS_SMOKE_SCALE", 1.0);
  return std::clamp(scale, 0.01, 10.0);
}

/// Runs `fn` reps times, collecting wall seconds per run, and emits the
/// PRIVBASIS_JSON line. `fn` must do the full phase work each call.
void TimePhase(const char* phase, const std::function<void()>& fn,
               std::initializer_list<std::pair<const char*, std::string>>
                   tags = {}) {
  const size_t reps = SmokeReps();
  std::vector<double> samples;
  samples.reserve(reps);
  for (size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  EmitJsonSamples(phase, samples, tags);
}

void RunSuite() {
  const double scale = SmokeScale();
  TransactionDatabase mushroom = Unwrap(
      GenerateDataset(SyntheticProfile::Mushroom(1.0 * scale), 42),
      "GenerateDataset(mushroom)");
  TransactionDatabase kosarak = Unwrap(
      GenerateDataset(SyntheticProfile::Kosarak(0.05 * scale), 42),
      "GenerateDataset(kosarak)");

  // Dense intersections at both SIMD levels (A/B built in).
  {
    VerticalIndex index(mushroom);
    auto queries = DenseQueries(mushroom, 512, 4, 7);
    std::vector<simd::Level> levels{simd::Level::kScalar};
    if (simd::Avx2Supported()) levels.push_back(simd::Level::kAvx2);
    // EmitJsonSamples stamps the active simd level, so the two runs land
    // under distinct trajectory keys without an explicit tag.
    for (simd::Level level : levels) {
      const simd::Level prev = simd::SetLevel(level);
      TimePhase(
          "intersect_dense",
          [&] {
            uint64_t sink = 0;
            for (const auto& q : queries) sink += index.SupportOf(q);
            if (sink == 0) std::abort();
          },
          {{"dataset", "mushroom"}});
      simd::SetLevel(prev);
    }
  }

  // Batched support counting over the pool.
  {
    VerticalIndex index(kosarak);
    auto queries = DenseQueries(kosarak, 2048, 3, 11);
    std::vector<uint64_t> out(queries.size());
    TimePhase(
        "support_of_many",
        [&] { index.SupportOfMany(queries, std::span<uint64_t>(out)); },
        {{"dataset", "kosarak"}});
  }

  // Index construction (CSR fill + bitmap build).
  TimePhase(
      "index_build",
      [&] {
        VerticalIndex index(kosarak);
        if (index.NumTransactions() == 0) std::abort();
      },
      {{"dataset", "kosarak"}});

  // BasisFreq packed-mask scan, zero noise so counting dominates.
  {
    BasisSet basis = MakeFrequentItemBasis(kosarak, 8, 8);
    Rng rng(1);
    BasisFreqOptions options;
    options.inject_noise = false;
    TimePhase(
        "basis_freq_scan",
        [&] {
          auto result = BasisFreq(kosarak, basis, 100, 1.0, rng, nullptr,
                                  options);
          UnwrapStatus(result.status(), "BasisFreq");
        },
        {{"dataset", "kosarak"}});
  }

  // Global FP-tree construction alone, then a full mine.
  TimePhase(
      "fptree_build",
      [&] {
        FpTree tree(kosarak, kosarak.NumTransactions() / 100);
        if (tree.NumNodes() == 0) std::abort();
      },
      {{"dataset", "kosarak"}});
  {
    MiningOptions options;
    options.min_support = mushroom.NumTransactions() * 40 / 100;
    TimePhase(
        "fpgrowth_mine",
        [&] {
          auto result = MineFpGrowth(mushroom, options);
          UnwrapStatus(result.status(), "MineFpGrowth");
        },
        {{"dataset", "mushroom"}});
  }

  // Ground-truth top-k (the path behind every figure bench).
  TimePhase(
      "ground_truth",
      [&] {
        auto truth = ComputeGroundTruth(kosarak, 200);
        UnwrapStatus(truth.status(), "ComputeGroundTruth");
      },
      {{"dataset", "kosarak"}});

  // Engine facade, cold vs warm Dataset handle. "Setup" is the
  // data-dependent state a PrivBasis query needs (the exact top-⌈ηk⌉
  // margin): a cold handle mines it, a warm handle answers from the
  // memoized cache — the whole point of sharing Dataset across queries.
  // The query phases time a full Engine::Run either way; the mechanism
  // cost (selection + BasisFreq scan) is common to both.
  {
    const size_t k = 200;
    const QuerySpec spec =
        QuerySpec().WithTopK(k).WithEpsilon(1.0).WithSeed(9);
    TimePhase(
        "engine_setup_cold",
        [&] {
          auto handle = Dataset::Borrow(kosarak);
          if (!handle->MarginSupport(k, spec.pb.eta).ok()) std::abort();
        },
        {{"dataset", "kosarak"}});

    auto warm = Dataset::Borrow(kosarak);
    if (!warm->MarginSupport(k, spec.pb.eta).ok()) std::abort();
    TimePhase(
        "engine_setup_warm",
        [&] {
          if (!warm->MarginSupport(k, spec.pb.eta).ok()) std::abort();
        },
        {{"dataset", "kosarak"}});

    TimePhase(
        "engine_query_cold",
        [&] {
          auto handle = Dataset::Borrow(kosarak);
          auto release = Engine::Run(*handle, spec);
          UnwrapStatus(release.status(), "Engine::Run (cold)");
        },
        {{"dataset", "kosarak"}});
    TimePhase(
        "engine_query_warm",
        [&] {
          auto release = Engine::Run(*warm, spec);
          UnwrapStatus(release.status(), "Engine::Run (warm)");
        },
        {{"dataset", "kosarak"}});
  }

  // Query-server round trip over loopback HTTP: the full service path
  // (accept, parse, route, Engine::Run on a warm handle, serialize) for
  // a batch of 16 requests. Measures the wire + dispatch overhead the
  // server adds on top of engine_query_warm.
  {
    server::ServerOptions options;
    options.num_threads = 4;
    server::QueryServer qserver(options);
    UnwrapStatus(qserver.Start(), "QueryServer::Start");
    const std::string id =
        *qserver.registry().Register(Dataset::Borrow(kosarak));
    const std::string body =
        "{\"dataset\":\"" + id + "\",\"k\":50,\"epsilon\":1.0,\"seed\":9}";
    // Warm the handle's caches once so the phase times steady-state
    // requests, not the first-touch mine.
    {
      auto warm_up = server::HttpCall(qserver.host(), qserver.port(), "POST",
                                      "/v1/query", body, 60'000);
      UnwrapStatus(warm_up.status(), "server warm-up query");
      if (warm_up->status != 200) std::abort();
    }
    TimePhase(
        "server_latency",
        [&] {
          for (int i = 0; i < 16; ++i) {
            auto response = server::HttpCall(qserver.host(), qserver.port(),
                                             "POST", "/v1/query", body,
                                             60'000);
            UnwrapStatus(response.status(), "server query");
            if (response->status != 200) std::abort();
          }
        },
        {{"dataset", "kosarak"}});
    qserver.Stop();
  }

  // Oversubscribed serving with the admission machinery active: 8
  // concurrent clients against 4 workers + a bounded queue (deep enough
  // that nothing sheds — this phase tracks the admitted path's tail
  // latency, not shed timing). Emits per-request samples plus p50/p99:
  // the overload-safety regression signal is the p99 the bounded queue
  // and cost-model bookkeeping add under 2x concurrency.
  {
    server::ServerOptions options;
    options.num_threads = 4;
    options.admission.slo_ms = 30'000;
    options.admission.max_queue_depth = 16;
    server::QueryServer qserver(options);
    UnwrapStatus(qserver.Start(), "QueryServer::Start (overload)");
    const std::string id =
        *qserver.registry().Register(Dataset::Borrow(kosarak));
    const std::string body =
        "{\"dataset\":\"" + id + "\",\"k\":50,\"epsilon\":1.0,\"seed\":9}";
    {
      auto warm_up = server::HttpCall(qserver.host(), qserver.port(), "POST",
                                      "/v1/query", body, 60'000);
      UnwrapStatus(warm_up.status(), "server warm-up query (overload)");
      if (warm_up->status != 200) std::abort();
    }
    constexpr size_t kClients = 8;
    constexpr size_t kPerClient = 8;
    std::vector<double> latencies(kClients * kPerClient, 0.0);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t r = 0; r < kPerClient; ++r) {
          WallTimer timer;
          auto response = server::HttpCall(qserver.host(), qserver.port(),
                                           "POST", "/v1/query", body,
                                           60'000);
          UnwrapStatus(response.status(), "server query (overload)");
          if (response->status != 200) std::abort();
          latencies[c * kPerClient + r] = timer.ElapsedSeconds();
        }
      });
    }
    for (auto& client : clients) client.join();
    qserver.Stop();
    std::sort(latencies.begin(), latencies.end());
    const double p50 = latencies[latencies.size() / 2];
    const double p99 =
        latencies[static_cast<size_t>(
            0.99 * static_cast<double>(latencies.size() - 1))];
    EmitJsonSamples("server_overload", latencies, {{"dataset", "kosarak"}},
                    {{"p50_ms", p50 * 1e3}, {"p99_ms", p99 * 1e3}});
  }

  // Same-dataset fan-out: 8 concurrent clients firing the identical
  // query at one dataset, with the query batcher off and then on. The
  // batched server groups the candidate-support phases of concurrent
  // admitted requests into one shared scan, so a round of 8 queries
  // costs ~1 scan instead of 8; releases stay bit-identical either way
  // (exact counts merge before any noise draw). Emits one phase per
  // mode plus the throughput ratio, batching_speedup. The ratio grows
  // with counting's share of a query: three runs per scale (min of 7
  // rounds, 4-vCPU x86-64 VM) read 1.28-1.52 at PRIVBASIS_SMOKE_SCALE=1.0
  // and 1.06-1.29 at the CI scale of 0.3.
  {
    constexpr size_t kClients = 8;
    auto run_fanout = [&](server::ServerOptions options) {
      server::QueryServer qserver(options);
      UnwrapStatus(qserver.Start(), "QueryServer::Start (fanout)");
      const std::string id =
          *qserver.registry().Register(Dataset::Borrow(kosarak));
      const std::string body =
          "{\"dataset\":\"" + id + "\",\"k\":50,\"epsilon\":1.0,\"seed\":9}";
      {
        auto warm_up = server::HttpCall(qserver.host(), qserver.port(), "POST",
                                        "/v1/query", body, 60'000);
        UnwrapStatus(warm_up.status(), "server warm-up query (fanout)");
        if (warm_up->status != 200) std::abort();
      }
      const size_t reps = SmokeReps();
      std::vector<double> samples;
      samples.reserve(reps);
      for (size_t r = 0; r < reps; ++r) {
        WallTimer timer;
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (size_t c = 0; c < kClients; ++c) {
          clients.emplace_back([&] {
            auto response = server::HttpCall(qserver.host(), qserver.port(),
                                             "POST", "/v1/query", body,
                                             60'000);
            UnwrapStatus(response.status(), "server query (fanout)");
            if (response->status != 200) std::abort();
          });
        }
        for (auto& client : clients) client.join();
        samples.push_back(timer.ElapsedSeconds());
      }
      qserver.Stop();
      return samples;
    };
    auto min_of = [](const std::vector<double>& samples) {
      double min_s = samples[0];
      for (double s : samples) min_s = std::min(min_s, s);
      return min_s;
    };
    server::ServerOptions plain;
    plain.num_threads = kClients;
    plain.batch_window_us = 0;  // explicitly off, immune to env overrides
    const std::vector<double> plain_samples = run_fanout(plain);
    server::ServerOptions batched;
    batched.num_threads = kClients;
    batched.batch_window_us = 20'000;
    batched.max_batch = kClients;
    const std::vector<double> batched_samples = run_fanout(batched);
    const double speedup = min_of(plain_samples) / min_of(batched_samples);
    EmitJsonSamples("server_fanout_plain", plain_samples,
                    {{"dataset", "kosarak"}});
    EmitJsonSamples("server_fanout_batched", batched_samples,
                    {{"dataset", "kosarak"}},
                    {{"batching_speedup", speedup}});
  }
}

}  // namespace
}  // namespace privbasis::bench

int main() {
  privbasis::bench::RunSuite();
  return 0;
}
