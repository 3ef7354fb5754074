// Dataset: an immutable, shared_ptr-shared handle over one
// TransactionDatabase plus everything expensive that queries against it
// keep re-deriving — dataset statistics, the VerticalIndex, the exact
// top-k margin supports PrivBasis needs for its fk1 hint, full ground
// truth for evaluation, and prepared TfRunner instances.
//
// All of it is built lazily and memoized thread-safely, so a service
// holding one Dataset pays the data-dependent setup cost ONCE and every
// subsequent Engine::Run pays only the mechanism cost. Locking is
// per-cache-entry: every entry (the stats, the index, each margin k1,
// each ground-truth k, each TF configuration) has its own build mutex,
// so concurrent COLD builds of *different* entries proceed in parallel —
// 16 clients first-touching a fresh handle through the query server do
// not serialize behind one another — while two racers on the SAME entry
// still build it exactly once (the second blocks, then reads). A failed
// build caches nothing; the next caller retries. The memoized
// quantities are exact data-dependent statistics, not noise draws, so
// caching changes nothing statistically: a warm query returns the
// bit-identical release a cold one would (tests/engine_test.cc enforces
// this).
//
// Each Dataset owns an Accountant — the privacy-budget ledger every query
// on this data draws from (engine/accountant.h) — and the CountExecutor
// its full-data queries count through (core/count_exec.h).
#ifndef PRIVBASIS_ENGINE_DATASET_H_
#define PRIVBASIS_ENGINE_DATASET_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "baseline/tf.h"
#include "common/annotations.h"
#include "common/status.h"
#include "core/count_exec.h"
#include "data/dataset_stats.h"
#include "data/synthetic.h"
#include "data/transaction_db.h"
#include "data/vertical_index.h"
#include "engine/accountant.h"
#include "eval/ground_truth.h"

namespace privbasis {

/// Construction-time knobs of a Dataset handle. (A namespace-scope struct
/// rather than a nested one so it can appear as a `= {}` default argument
/// inside the class body.)
struct DatasetOptions {
  /// Total ε this dataset may ever spend across all queries.
  /// kUnlimited tracks spend without refusing any query.
  double total_epsilon = Accountant::kUnlimited;
  /// Parallelism for cache construction (index build, top-k mining) and
  /// for every full-data query's counting scans, which all run through
  /// the dataset's direct executor (a batcher's fused rounds too); 0 =
  /// the PRIVBASIS_THREADS env knob.
  size_t num_threads = 0;
};

class Dataset {
 public:
  using Options = DatasetOptions;

  /// Takes ownership of `db`.
  static std::shared_ptr<Dataset> Create(TransactionDatabase db,
                                         Options options = {});

  /// Loads a FIMI-format transaction file (data/dataset_io.h).
  static Result<std::shared_ptr<Dataset>> FromFimiFile(
      const std::string& path, Options options = {});

  /// Generates one of the paper's synthetic profiles (data/synthetic.h).
  static Result<std::shared_ptr<Dataset>> FromProfile(
      const SyntheticProfile& profile, uint64_t seed, Options options = {});

  /// Non-owning view over a caller-owned database, which must outlive the
  /// returned handle. Exists for harnesses and tests that already hold a
  /// TransactionDatabase by value; new code should prefer Create().
  static std::shared_ptr<Dataset> Borrow(const TransactionDatabase& db,
                                         Options options = {});

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  const TransactionDatabase& db() const { return *db_; }
  const Options& options() const { return options_; }

  /// The privacy-budget ledger all queries on this dataset draw from.
  const std::shared_ptr<Accountant>& accountant() const {
    return accountant_;
  }

  /// Memoized dataset statistics (N, |I|, density, ...).
  const DatasetStats& Stats() const;

  /// Memoized hybrid tid-list index (built on first use).
  std::shared_ptr<const VerticalIndex> Index() const;

  /// The executor every full-data PrivBasis query on this dataset counts
  /// its pair supports and bin histograms through: the attached one (the
  /// server's batcher), else the DirectCountExecutor over db() and
  /// options().num_threads that the handle is built with. Never nullptr,
  /// and it builds nothing: the direct executor holds no index. The
  /// caller's copy keeps the executor alive across an
  /// AttachCountExecutor.
  std::shared_ptr<const CountExecutor> EnsureCountExecutor() const;

  /// Installs an externally built executor (the server attaches a
  /// BatchingCountExecutor at dataset registration when batching is on;
  /// tests attach faulty ones). nullptr restores a direct executor.
  /// Meant to be called before the dataset serves queries.
  void AttachCountExecutor(std::shared_ptr<const CountExecutor> exec);

  /// Memoized support of the ⌈η·k⌉-th most frequent itemset — the
  /// PrivBasis fk1 hint. Exactly the quantity the mechanism would mine
  /// internally, so warm and cold queries are bit-identical. `cancel` is
  /// per-call state for a COLD build only (a cancelled build caches
  /// nothing — the next caller retries); cache hits never poll it.
  Result<uint64_t> MarginSupport(size_t k, double eta,
                                 const CancelToken* cancel = nullptr) const;

  /// Memoized evaluation ground truth at `k`: the exact top-k, its
  /// Table 2(a) stats, both η-margin supports, and the shared Index().
  /// One mining pass also warms the MarginSupport cache for η = 1.1/1.2.
  Result<std::shared_ptr<const GroundTruth>> Truth(size_t k) const;

  /// Memoized TF preprocessing (top-k mining + explicit candidate set +
  /// support index) for one (k, TfOptions) configuration. `cancel` is a
  /// per-call parameter, never part of the cache key: it can abort a
  /// cold build (which then caches nothing), but a cached runner is
  /// shared by every later query regardless of their tokens.
  Result<std::shared_ptr<const TfRunner>> Tf(
      size_t k, const TfOptions& options,
      const CancelToken* cancel = nullptr) const;

  /// How many times each expensive cache entry was actually built —
  /// a second query on a warm Dataset must not move these, and N racers
  /// on one cold entry must move them by exactly one (tests and the
  /// bench_smoke warm/cold phases assert on them).
  struct CacheCounters {
    size_t stats_builds = 0;
    size_t index_builds = 0;
    size_t margin_mines = 0;
    size_t truth_mines = 0;
    size_t tf_builds = 0;
    /// Always 0: a Dataset never partitions itself. Kept because the
    /// benchmark driver sums it into its cache-build count.
    size_t shard_builds = 0;
  };
  CacheCounters cache_counters() const;

 private:
  Dataset(std::shared_ptr<const TransactionDatabase> db, Options options);

  /// One lazily built cache entry with its own build lock. `value` is
  /// written exactly once, under `mu`, before `built` flips to true; a
  /// failed build leaves `built` false so the next caller retries.
  template <typename T>
  struct CacheCell {
    Mutex mu;
    bool built PB_GUARDED_BY(mu) = false;
    T value PB_GUARDED_BY(mu){};
  };

  /// Keyed cache entries: a small map mutex guards only the cell table
  /// (find-or-insert is O(log n) pointer work); the expensive build runs
  /// under the individual cell's lock, so different keys build in
  /// parallel.
  template <typename K, typename V>
  struct KeyedCache {
    Mutex map_mu;
    std::map<K, std::shared_ptr<CacheCell<V>>> cells PB_GUARDED_BY(map_mu);

    std::shared_ptr<CacheCell<V>> CellFor(const K& key) PB_EXCLUDES(map_mu) {
      MutexLock lock(map_mu);
      auto& cell = cells[key];
      if (cell == nullptr) cell = std::make_shared<CacheCell<V>>();
      return cell;
    }
  };

  /// Mines MineTopK(k1) into the k1 margin cell (no-op when built).
  Result<uint64_t> BuildMarginSupport(size_t k1,
                                      const CancelToken* cancel) const;

  using TfKey = std::tuple<size_t, size_t, uint64_t, double, int>;
  static TfKey MakeTfKey(size_t k, const TfOptions& options);

  std::shared_ptr<const TransactionDatabase> db_;
  Options options_;
  std::shared_ptr<Accountant> accountant_;

  mutable CacheCell<DatasetStats> stats_;
  mutable CacheCell<std::shared_ptr<const VerticalIndex>> index_;
  /// The attached executor, or the direct one.
  mutable Mutex executor_mu_;
  std::shared_ptr<const CountExecutor> executor_ PB_GUARDED_BY(executor_mu_);
  mutable KeyedCache<size_t, uint64_t> margins_;  // k1 -> support
  mutable KeyedCache<size_t, std::shared_ptr<const GroundTruth>> truths_;
  mutable KeyedCache<TfKey, std::shared_ptr<const TfRunner>> tf_runners_;
  // Build counters are independent atomics: they are bumped inside
  // different cell locks, never one common one.
  mutable std::atomic<size_t> stats_builds_{0};
  mutable std::atomic<size_t> index_builds_{0};
  mutable std::atomic<size_t> margin_mines_{0};
  mutable std::atomic<size_t> truth_mines_{0};
  mutable std::atomic<size_t> tf_builds_{0};
};

}  // namespace privbasis

#endif  // PRIVBASIS_ENGINE_DATASET_H_
