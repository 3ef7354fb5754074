#include "fim/topk.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <unordered_set>

#include "common/annotations.h"
#include "common/thread_pool.h"
#include "fim/fptree.h"

namespace privbasis {

namespace {

/// Canonical "is a better than b" for top-k selection.
bool Better(const FrequentItemset& a, const FrequentItemset& b) {
  if (a.support != b.support) return a.support > b.support;
  if (a.items.size() != b.items.size()) return a.items.size() < b.items.size();
  return a.items < b.items;
}

/// Bounded pool of the k best patterns seen so far, ordered worst-first so
/// the pruning threshold is O(1) to read.
class BestK {
 public:
  explicit BestK(size_t k) : k_(k) {}

  /// Current pruning threshold: supports strictly below this can never
  /// enter the pool.
  uint64_t Threshold() const {
    return pool_.size() < k_ ? 0 : pool_.begin()->support;
  }

  void Offer(FrequentItemset candidate) {
    if (pool_.size() == k_ && !Better(candidate, *pool_.begin())) return;
    pool_.insert(std::move(candidate));
    if (pool_.size() > k_) pool_.erase(pool_.begin());
  }

  std::vector<FrequentItemset> Take() {
    std::vector<FrequentItemset> out(pool_.begin(), pool_.end());
    std::reverse(out.begin(), out.end());  // best first
    return out;
  }

 private:
  struct WorstFirst {
    bool operator()(const FrequentItemset& a,
                    const FrequentItemset& b) const {
      return Better(b, a);
    }
  };
  size_t k_;
  std::set<FrequentItemset, WorstFirst> pool_;
};

struct TopKContext {
  size_t max_length;
  uint64_t floor_support;  // static lower bound on the final threshold
  BestK* best;             // shared across root tasks, guarded by mu
  Mutex* mu;
  /// Monotone cache of best->Threshold(), readable without the lock. A
  /// stale (lower) value only weakens pruning — never drops a pattern —
  /// so lock-free readers stay exact and deterministic.
  std::atomic<uint64_t>* threshold_cache;
  /// Cooperative cancel: a fired token flips `cancelled` and every task
  /// unwinds at its next branch boundary.
  const CancelToken* cancel;
  std::atomic<bool>* cancelled;
};

bool PollCancel(const TopKContext& ctx) {
  if (ctx.cancelled->load(std::memory_order_relaxed)) return true;
  if (!IsCancelled(ctx.cancel)) return false;
  ctx.cancelled->store(true, std::memory_order_relaxed);
  return true;
}

uint64_t CurrentThreshold(const TopKContext& ctx) {
  return std::max<uint64_t>(
      ctx.floor_support,
      std::max<uint64_t>(
          1, ctx.threshold_cache->load(std::memory_order_relaxed)));
}

void OfferLocked(const TopKContext& ctx, FrequentItemset candidate) {
  MutexLock lock(*ctx.mu);
  ctx.best->Offer(std::move(candidate));
  ctx.threshold_cache->store(ctx.best->Threshold(),
                             std::memory_order_relaxed);
}

/// Recursive FP-Growth specialized for top-k: ranks are visited in
/// descending in-tree support (the RanksBySupport permutation — a
/// conditional tree's rank order is not support order) so the pool
/// threshold rises as fast as possible, and branches upper-bounded below
/// the threshold are pruned.
void GrowTopK(const FpTree& tree, std::vector<Item>* suffix,
              TopKContext* ctx) {
  for (uint32_t rank : tree.RanksBySupport()) {
    if (PollCancel(*ctx)) return;
    uint64_t support = tree.SupportAt(rank);
    uint64_t threshold = CurrentThreshold(*ctx);
    // Every pattern in this branch has support <= `support`; we iterate in
    // descending support order, so all later branches are bounded too.
    if (support < threshold) break;
    suffix->push_back(tree.ItemAt(rank));
    OfferLocked(*ctx,
                FrequentItemset{Itemset(std::vector<Item>(*suffix)), support});
    const bool at_cap =
        ctx->max_length != 0 && suffix->size() >= ctx->max_length;
    if (!at_cap) {
      FpTree cond = tree.ConditionalTree(rank, CurrentThreshold(*ctx));
      if (!cond.Empty()) GrowTopK(cond, suffix, ctx);
    }
    suffix->pop_back();
  }
}

}  // namespace

Result<TopKResult> MineTopK(const TransactionDatabase& db, size_t k,
                            size_t max_length, size_t num_threads,
                            const CancelToken* cancel) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  // Static floor: the k most frequent items are themselves k itemsets, so
  // the k-th best support is >= the k-th item support. This keeps the
  // initial FP-tree small on sparse data with huge universes. The
  // database's support groups give that support without a sort.
  const SupportGroups& groups = db.ItemSupportGroups();
  uint64_t floor_support = 1;
  for (size_t g = 0; g < groups.NumGroups(); ++g) {
    if (groups.Begin(g) + groups.Size(g) >= k) {
      floor_support = std::max<uint64_t>(1, groups.Value(g));
      break;
    }
  }

  BestK best(k);
  Mutex best_mu;
  std::atomic<uint64_t> threshold_cache{0};
  std::atomic<bool> cancelled{false};
  TopKContext ctx{max_length, floor_support, &best,      &best_mu,
                  &threshold_cache, cancel, &cancelled};
  FpTree tree(db, floor_support);

  // Each root rank is one pool task over the shared, immutable tree. The
  // final pool is the canonical top-k of every pattern offered; pruning
  // only ever skips branches strictly below the rising threshold — which
  // can never reach the final top-k — so the result is identical at any
  // thread count (threads = 1 reproduces the sequential rank loop).
  const size_t threads = EffectiveThreads(num_threads);
  ThreadPool::Global().ParallelFor(
      0, tree.NumRanks(), 1, threads, [&](size_t, size_t, size_t r) {
        if (PollCancel(ctx)) return;
        const uint32_t rank = static_cast<uint32_t>(r);
        const uint64_t support = tree.SupportAt(rank);
        if (support < CurrentThreshold(ctx)) return;
        std::vector<Item> suffix{tree.ItemAt(rank)};
        OfferLocked(ctx, FrequentItemset{Itemset(std::vector<Item>(suffix)),
                                         support});
        if (max_length == 0 || max_length > 1) {
          FpTree cond = tree.ConditionalTree(rank, CurrentThreshold(ctx));
          if (!cond.Empty()) GrowTopK(cond, &suffix, &ctx);
        }
      });
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("top-k mine cancelled mid-scan");
  }

  TopKResult result;
  result.itemsets = best.Take();
  result.kth_support =
      result.itemsets.empty() ? 0 : result.itemsets.back().support;
  return result;
}

TopKStats ComputeTopKStats(const std::vector<FrequentItemset>& topk) {
  TopKStats stats;
  std::unordered_set<Item> items;
  for (const auto& fi : topk) {
    for (Item it : fi.items) items.insert(it);
    if (fi.items.size() == 2) ++stats.lambda2;
    if (fi.items.size() == 3) ++stats.lambda3;
  }
  stats.lambda = static_cast<uint32_t>(items.size());
  stats.fk_count = topk.empty() ? 0 : topk.back().support;
  return stats;
}

}  // namespace privbasis
