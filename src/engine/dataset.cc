#include "engine/dataset.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/batch_exec.h"
#include "data/dataset_io.h"
#include "fim/topk.h"

namespace privbasis {

Dataset::Dataset(std::shared_ptr<const TransactionDatabase> db,
                 Options options)
    : db_(std::move(db)),
      options_(options),
      accountant_(std::make_shared<Accountant>(options.total_epsilon)) {
  AttachCountExecutor(nullptr);
}

std::shared_ptr<Dataset> Dataset::Create(TransactionDatabase db,
                                         Options options) {
  return std::shared_ptr<Dataset>(new Dataset(
      std::make_shared<const TransactionDatabase>(std::move(db)), options));
}

Result<std::shared_ptr<Dataset>> Dataset::FromFimiFile(const std::string& path,
                                                       Options options) {
  PRIVBASIS_ASSIGN_OR_RETURN(LoadedDataset loaded, ReadFimiFile(path));
  return Create(std::move(loaded.db), options);
}

Result<std::shared_ptr<Dataset>> Dataset::FromProfile(
    const SyntheticProfile& profile, uint64_t seed, Options options) {
  PRIVBASIS_ASSIGN_OR_RETURN(TransactionDatabase db,
                             GenerateDataset(profile, seed));
  return Create(std::move(db), options);
}

std::shared_ptr<Dataset> Dataset::Borrow(const TransactionDatabase& db,
                                         Options options) {
  // Aliasing handle: shares the caller's storage, deletes nothing.
  return std::shared_ptr<Dataset>(new Dataset(
      std::shared_ptr<const TransactionDatabase>(&db,
                                                 [](const auto*) {}),
      options));
}

const DatasetStats& Dataset::Stats() const {
  MutexLock lock(stats_.mu);
  if (!stats_.built) {
    stats_builds_.fetch_add(1, std::memory_order_relaxed);
    stats_.value = ComputeDatasetStats(*db_);
    stats_.built = true;
  }
  // Safe to return by reference: the cell is a member (stable address)
  // and the value is never rewritten once built.
  return stats_.value;
}

std::shared_ptr<const VerticalIndex> Dataset::Index() const {
  MutexLock lock(index_.mu);
  if (!index_.built) {
    index_builds_.fetch_add(1, std::memory_order_relaxed);
    index_.value = std::make_shared<const VerticalIndex>(
        *db_, VerticalIndex::Options{.num_threads = options_.num_threads});
    index_.built = true;
  }
  return index_.value;
}

std::shared_ptr<const CountExecutor> Dataset::EnsureCountExecutor() const {
  MutexLock lock(executor_mu_);
  return executor_;
}

void Dataset::AttachCountExecutor(std::shared_ptr<const CountExecutor> exec) {
  if (exec == nullptr) {
    exec = std::make_shared<const DirectCountExecutor>(db_,
                                                       options_.num_threads);
  }
  MutexLock lock(executor_mu_);
  executor_ = std::move(exec);
}

Result<uint64_t> Dataset::BuildMarginSupport(size_t k1,
                                             const CancelToken* cancel) const {
  auto cell = margins_.CellFor(k1);
  MutexLock lock(cell->mu);
  if (cell->built) return cell->value;
  margin_mines_.fetch_add(1, std::memory_order_relaxed);
  PRIVBASIS_ASSIGN_OR_RETURN(
      TopKResult top, MineTopK(*db_, k1, /*max_length=*/0,
                               options_.num_threads, cancel));
  cell->value = top.kth_support;
  cell->built = true;
  return cell->value;
}

Result<uint64_t> Dataset::MarginSupport(size_t k, double eta,
                                        const CancelToken* cancel) const {
  // Identical arithmetic to RunPrivBasisImpl's internal computation, so a
  // cache hit yields the bit-identical fk1 hint.
  const size_t k1 =
      static_cast<size_t>(std::ceil(static_cast<double>(k) * eta));
  return BuildMarginSupport(k1, cancel);
}

Result<std::shared_ptr<const GroundTruth>> Dataset::Truth(size_t k) const {
  auto cell = truths_.CellFor(k);
  MutexLock lock(cell->mu);
  if (cell->built) return cell->value;
  truth_mines_.fetch_add(1, std::memory_order_relaxed);

  // One shared implementation with eval/ground_truth.cc, attaching this
  // handle's VerticalIndex instead of building another. (Index() takes
  // the index cell's own lock — independent of this truth cell's.)
  PRIVBASIS_ASSIGN_OR_RETURN(
      GroundTruth truth,
      ComputeGroundTruth(*db_, k, Index(), options_.num_threads));
  // The one mining pass also warms the margin cells for η = 1.1/1.2 —
  // the keys MarginSupport would compute for those etas. Lock order is
  // truth cell → margin cell, and MarginSupport takes margin cells only,
  // so there is no cycle. A margin cell that lost the race to its own
  // miner keeps the mined value (both are the same exact statistic).
  if (!truth.topk.itemsets.empty()) {
    const size_t k11 =
        static_cast<size_t>(std::ceil(1.1 * static_cast<double>(k)));
    const size_t k12 =
        static_cast<size_t>(std::ceil(1.2 * static_cast<double>(k)));
    const std::pair<size_t, uint64_t> warm[] = {
        {k11, truth.fk1_support_eta11}, {k12, truth.fk1_support_eta12}};
    for (const auto& [k1, support] : warm) {
      auto margin_cell = margins_.CellFor(k1);
      MutexLock margin_lock(margin_cell->mu);
      if (!margin_cell->built) {
        margin_cell->value = support;
        margin_cell->built = true;
      }
    }
  }
  cell->value = std::make_shared<const GroundTruth>(std::move(truth));
  cell->built = true;
  return cell->value;
}

Dataset::TfKey Dataset::MakeTfKey(size_t k, const TfOptions& options) {
  return TfKey{k, options.m, options.explicit_limit, options.rho,
               static_cast<int>(options.selection)};
}

Result<std::shared_ptr<const TfRunner>> Dataset::Tf(
    size_t k, const TfOptions& options, const CancelToken* cancel) const {
  auto cell = tf_runners_.CellFor(MakeTfKey(k, options));
  MutexLock lock(cell->mu);
  if (cell->built) return cell->value;
  tf_builds_.fetch_add(1, std::memory_order_relaxed);
  PRIVBASIS_ASSIGN_OR_RETURN(TfRunner runner,
                             TfRunner::Create(*db_, k, options, cancel));
  cell->value = std::make_shared<const TfRunner>(std::move(runner));
  cell->built = true;
  return cell->value;
}

Dataset::CacheCounters Dataset::cache_counters() const {
  CacheCounters counters;
  counters.stats_builds = stats_builds_.load(std::memory_order_relaxed);
  counters.index_builds = index_builds_.load(std::memory_order_relaxed);
  counters.margin_mines = margin_mines_.load(std::memory_order_relaxed);
  counters.truth_mines = truth_mines_.load(std::memory_order_relaxed);
  counters.tf_builds = tf_builds_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace privbasis
