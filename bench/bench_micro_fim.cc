// Microbenchmarks for the mining substrate: FP-Growth at falling
// thresholds, and exact top-k mining (the evaluation's ground-truth
// path).
#include <benchmark/benchmark.h>

#include "data/synthetic.h"
#include "fim/fpgrowth.h"
#include "fim/topk.h"

namespace privbasis {
namespace {

const TransactionDatabase& Mushroom() {
  static TransactionDatabase db = [] {
    auto r = GenerateDataset(SyntheticProfile::Mushroom(1.0), 42);
    if (!r.ok()) std::abort();
    return std::move(r).value();
  }();
  return db;
}

const TransactionDatabase& Kosarak() {
  static TransactionDatabase db = [] {
    auto r = GenerateDataset(SyntheticProfile::Kosarak(0.05), 42);
    if (!r.ok()) std::abort();
    return std::move(r).value();
  }();
  return db;
}

void BM_FpGrowthMushroom(benchmark::State& state) {
  const auto& db = Mushroom();
  MiningOptions options;
  options.min_support =
      db.NumTransactions() * static_cast<uint64_t>(state.range(0)) / 100;
  for (auto _ : state) {
    auto result = MineFpGrowth(db, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FpGrowthMushroom)->Arg(60)->Arg(50)->Arg(40);

void BM_TopKKosarak(benchmark::State& state) {
  const auto& db = Kosarak();
  for (auto _ : state) {
    auto result = MineTopK(db, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopKKosarak)->Arg(100)->Arg(200)->Arg(400);

/// Ground-truth mining scaling: exact top-k with root conditional trees
/// dispatched across the pool (result is thread-count independent).
void BM_TopKThreads(benchmark::State& state) {
  const auto& db = Kosarak();
  for (auto _ : state) {
    auto result =
        MineTopK(db, 200, 0, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopKThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace privbasis

BENCHMARK_MAIN();
