// Microbenchmarks for Algorithm 1 (BasisFreq), against the paper's
// running-time analysis O(w·|D| + w·3^ℓ): runtime should scale linearly
// in the width w and exponentially in the length ℓ (the zeta-transform
// superset sum makes the second term w·ℓ·2^ℓ).
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "core/basis_freq.h"
#include "data/synthetic.h"

namespace privbasis {
namespace {

using ::privbasis::bench::MakeFrequentItemBasis;

TransactionDatabase MakeDb() {
  SyntheticProfile profile = SyntheticProfile::Kosarak(0.05);
  auto db = GenerateDataset(profile, 42);
  if (!db.ok()) std::abort();
  return std::move(db).value();
}

const TransactionDatabase& Db() {
  static TransactionDatabase db = MakeDb();
  return db;
}

void BM_BasisFreqWidth(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis =
      MakeFrequentItemBasis(db, static_cast<size_t>(state.range(0)), 6);
  Rng rng(1);
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BasisFreqWidth)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Complexity(benchmark::oN);

void BM_BasisFreqLength(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis =
      MakeFrequentItemBasis(db, 4, static_cast<size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BasisFreqLength)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

/// Sharded-scan scaling: same pipeline at increasing thread counts. The
/// output is bit-identical across args (see BasisFreqOptions), so this
/// isolates pure scan parallelism.
void BM_BasisFreqThreads(benchmark::State& state) {
  const auto& db = Db();
  BasisSet basis = MakeFrequentItemBasis(db, 8, 8);
  Rng rng(1);
  BasisFreqOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = BasisFreq(db, basis, 100, 1.0, rng, nullptr, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BasisFreqThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace privbasis

BENCHMARK_MAIN();
