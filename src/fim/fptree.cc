#include "fim/fptree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"

namespace privbasis {

namespace {

/// Per-thread construction scratch. FP-growth builds thousands of tiny
/// conditional trees per mine; reusing these buffers keeps the per-tree
/// allocation count at the handful of arrays the tree actually owns.
struct BuildScratch {
  std::vector<uint64_t> cond_support;
  std::vector<uint32_t> remap;
  std::vector<uint32_t> data;
  std::vector<FpTree::PathRef> paths;
  std::vector<std::pair<uint64_t, uint64_t>> keyed;
  std::vector<uint32_t> path;
  std::vector<uint32_t> spine;
  std::vector<uint64_t> cursor;
};

BuildScratch& TlsScratch() {
  static thread_local BuildScratch scratch;
  return scratch;
}

}  // namespace

FpTree::FpTree(const TransactionDatabase& db, uint64_t min_support,
               size_t num_threads) {
  // Rank items with support >= min_support by descending support
  // (ties: ascending id) so prefixes are maximally shared: a prefix of
  // the database's item order.
  const SupportGroups& groups = db.ItemSupportGroups();
  size_t num_frequent = 0;
  for (size_t g = 0; g < groups.NumGroups(); ++g) {
    if (groups.Value(g) < min_support) break;
    num_frequent = groups.Begin(g) + groups.Size(g);
  }
  const std::span<const uint32_t> frequent =
      groups.Order().first(num_frequent);
  rank_items_.assign(frequent.begin(), frequent.end());
  std::vector<uint32_t> item_to_rank(db.UniverseSize(), kNil);
  for (uint32_t r = 0; r < rank_items_.size(); ++r) {
    item_to_rank[rank_items_[r]] = r;
  }

  // Filter/map every transaction to its rank path, fanned over the pool
  // into per-shard buffers. Shard boundaries depend only on the grain,
  // and the buffers concatenate in shard order, so the result is
  // identical at every thread count.
  const size_t n = db.NumTransactions();
  const size_t grain = std::max<size_t>(1024, n / 256);
  const size_t num_shards = (n + grain - 1) / grain;
  const size_t threads = EffectiveThreads(num_threads);

  if (rank_items_.size() <= 64) {
    // Packed path: a transaction's frequent ranks OR into one 64-bit key
    // while scanning — no per-transaction sort, no path arena.
    std::vector<std::vector<uint64_t>> shard_keys(num_shards);
    ThreadPool::Global().ParallelFor(
        0, n, grain, threads, [&](size_t b, size_t e, size_t s) {
          auto& keys = shard_keys[s];
          for (size_t t = b; t < e; ++t) {
            uint64_t key = 0;
            for (Item it : db.Transaction(t)) {
              const uint32_t r = item_to_rank[it];
              if (r != kNil) key |= uint64_t{1} << (63 - r);
            }
            if (key != 0) keys.push_back(key);
          }
        });
    size_t total = 0;
    for (const auto& keys : shard_keys) total += keys.size();
    std::vector<uint64_t> keys;
    keys.reserve(total);
    for (const auto& shard : shard_keys) {
      keys.insert(keys.end(), shard.begin(), shard.end());
    }
    shard_keys.clear();
    BuildFromRawKeys(keys);
    return;
  }

  struct ShardPaths {
    std::vector<uint32_t> data;
    std::vector<uint32_t> lengths;
  };
  std::vector<ShardPaths> shards(num_shards);
  ThreadPool::Global().ParallelFor(
      0, n, grain, threads, [&](size_t b, size_t e, size_t s) {
        auto& shard = shards[s];
        std::vector<uint32_t> path;
        for (size_t t = b; t < e; ++t) {
          path.clear();
          for (Item it : db.Transaction(t)) {
            const uint32_t r = item_to_rank[it];
            if (r != kNil) path.push_back(r);
          }
          if (path.empty()) continue;
          std::sort(path.begin(), path.end());
          shard.data.insert(shard.data.end(), path.begin(), path.end());
          shard.lengths.push_back(static_cast<uint32_t>(path.size()));
        }
      });

  size_t total_tokens = 0;
  size_t total_paths = 0;
  for (const auto& shard : shards) {
    total_tokens += shard.data.size();
    total_paths += shard.lengths.size();
  }
  std::vector<uint32_t> data;
  data.reserve(total_tokens);
  std::vector<PathRef> paths;
  paths.reserve(total_paths);
  for (const auto& shard : shards) {
    uint64_t offset = data.size();
    for (uint32_t length : shard.lengths) {
      paths.push_back(PathRef{offset, length, 1});
      offset += length;
    }
    data.insert(data.end(), shard.data.begin(), shard.data.end());
  }
  shards.clear();
  BuildFromPaths(data, paths);
}

void FpTree::BuildFromKeys(
    std::vector<std::pair<uint64_t, uint64_t>>& keyed) {
  // Descending key order: paths sharing any prefix occupy one contiguous
  // key range, and within a parent the branches appear by descending next
  // bit = ascending next rank. That is exactly the hierarchical grouping
  // the stack merge needs, on a plain integer sort.
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  MergeSortedKeyed(keyed);
}

void FpTree::BuildFromRawKeys(std::vector<uint64_t>& keys) {
  std::sort(keys.begin(), keys.end(), std::greater<>());
  auto& keyed = TlsScratch().keyed;
  keyed.clear();
  for (uint64_t key : keys) {
    if (!keyed.empty() && keyed.back().first == key) {
      ++keyed.back().second;
    } else {
      keyed.emplace_back(key, 1);
    }
  }
  MergeSortedKeyed(keyed);
}

void FpTree::MergeSortedKeyed(
    const std::vector<std::pair<uint64_t, uint64_t>>& keyed) {
  node_rank_.assign(1, kNil);
  node_parent_.assign(1, kNil);
  node_count_.assign(1, 0);
  std::vector<uint32_t>& spine = TlsScratch().spine;
  spine.clear();
  uint64_t prev_key = 0;
  for (const auto& [key, count] : keyed) {
    if (key == prev_key) {
      // Identical path: bump every node along the current spine.
      for (uint32_t id : spine) node_count_[id] += count;
      continue;
    }
    // Shared prefix length = number of set bits above the first bit where
    // the previous key diverges.
    size_t lcp = 0;
    uint64_t rest = key;
    if (prev_key != 0) {
      const int hb = 63 - std::countl_zero(prev_key ^ key);
      if (hb < 63) {
        rest = key & ((uint64_t{1} << (hb + 1)) - 1);
        lcp = static_cast<size_t>(std::popcount(key & ~rest));
      }
    }
    spine.resize(lcp);
    for (size_t i = 0; i < lcp; ++i) node_count_[spine[i]] += count;
    while (rest != 0) {
      const uint32_t r = static_cast<uint32_t>(std::countl_zero(rest));
      rest &= ~(uint64_t{1} << (63 - r));
      const uint32_t id = static_cast<uint32_t>(node_rank_.size());
      node_rank_.push_back(r);
      node_parent_.push_back(spine.empty() ? 0 : spine.back());
      node_count_.push_back(count);
      spine.push_back(id);
    }
    prev_key = key;
  }
  FinishIndexes();
}

void FpTree::BuildFromPaths(const std::vector<uint32_t>& data,
                            std::vector<PathRef>& paths) {
  // Lexicographic path order makes shared prefixes adjacent: each path's
  // longest common prefix with any earlier path is its prefix match with
  // the current right spine, so the whole tree merges with one stack and
  // nodes land in DFS pre-order.
  std::sort(paths.begin(), paths.end(),
            [&](const PathRef& a, const PathRef& b) {
              return std::lexicographical_compare(
                  data.begin() + a.offset,
                  data.begin() + a.offset + a.length,
                  data.begin() + b.offset,
                  data.begin() + b.offset + b.length);
            });

  node_rank_.assign(1, kNil);
  node_parent_.assign(1, kNil);
  node_count_.assign(1, 0);
  node_rank_.reserve(data.size() + 1);
  node_parent_.reserve(data.size() + 1);
  node_count_.reserve(data.size() + 1);
  std::vector<uint32_t>& spine = TlsScratch().spine;
  spine.clear();
  for (const PathRef& p : paths) {
    const uint32_t* ranks = data.data() + p.offset;
    size_t lcp = 0;
    while (lcp < spine.size() && lcp < p.length &&
           node_rank_[spine[lcp]] == ranks[lcp]) {
      ++lcp;
    }
    spine.resize(lcp);
    for (size_t i = 0; i < lcp; ++i) node_count_[spine[i]] += p.count;
    for (size_t i = lcp; i < p.length; ++i) {
      const uint32_t id = static_cast<uint32_t>(node_rank_.size());
      node_rank_.push_back(ranks[i]);
      node_parent_.push_back(spine.empty() ? 0 : spine.back());
      node_count_.push_back(p.count);
      spine.push_back(id);
    }
  }
  FinishIndexes();
}

void FpTree::FinishIndexes() {
  // Children CSR by counting sort over parents. Filling in ascending node
  // id preserves creation order, which the sorted merge makes ascending
  // rank within each slice — hence binary-searchable.
  const size_t num_nodes = node_rank_.size();
  child_offsets_.assign(num_nodes + 1, 0);
  for (size_t id = 1; id < num_nodes; ++id) {
    ++child_offsets_[node_parent_[id] + 1];
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    child_offsets_[i + 1] += child_offsets_[i];
  }
  children_.resize(num_nodes - 1);
  {
    std::vector<uint64_t>& cursor = TlsScratch().cursor;
    cursor.assign(child_offsets_.begin(), child_offsets_.end() - 1);
    for (size_t id = 1; id < num_nodes; ++id) {
      children_[cursor[node_parent_[id]]++] = static_cast<uint32_t>(id);
    }
  }

  // Per-rank node index and in-tree supports in one counting sort.
  const size_t num_ranks = rank_items_.size();
  rank_node_offsets_.assign(num_ranks + 1, 0);
  for (size_t id = 1; id < num_nodes; ++id) {
    ++rank_node_offsets_[node_rank_[id] + 1];
  }
  for (size_t r = 0; r < num_ranks; ++r) {
    rank_node_offsets_[r + 1] += rank_node_offsets_[r];
  }
  rank_nodes_.resize(num_nodes - 1);
  rank_supports_.assign(num_ranks, 0);
  {
    std::vector<uint64_t>& cursor = TlsScratch().cursor;
    cursor.assign(rank_node_offsets_.begin(), rank_node_offsets_.end() - 1);
    for (size_t id = 1; id < num_nodes; ++id) {
      rank_supports_[node_rank_[id]] += node_count_[id];
      rank_nodes_[cursor[node_rank_[id]]++] = static_cast<uint32_t>(id);
    }
  }

  ranks_by_support_.resize(num_ranks);
  std::iota(ranks_by_support_.begin(), ranks_by_support_.end(), 0);
  std::sort(ranks_by_support_.begin(), ranks_by_support_.end(),
            [&](uint32_t a, uint32_t b) {
              if (rank_supports_[a] != rank_supports_[b]) {
                return rank_supports_[a] > rank_supports_[b];
              }
              return a < b;
            });
}

uint32_t FpTree::FindChild(uint32_t node, uint32_t rank) const {
  const auto kids = Children(node);
  auto it = std::lower_bound(kids.begin(), kids.end(), rank,
                             [&](uint32_t child, uint32_t r) {
                               return node_rank_[child] < r;
                             });
  if (it != kids.end() && node_rank_[*it] == rank) return *it;
  return kNil;
}

FpTree FpTree::ConditionalTree(uint32_t rank, uint64_t min_support) const {
  // Pass 1: conditional supports of every rank occurring on prefix paths,
  // streamed over the contiguous per-rank node index. Only ranks < `rank`
  // can appear above a `rank` node (paths strictly ascend).
  BuildScratch& scratch = TlsScratch();
  std::vector<uint64_t>& cond_support = scratch.cond_support;
  cond_support.assign(rank, 0);
  for (uint32_t n : NodesOfRank(rank)) {
    const uint64_t c = node_count_[n];
    for (uint32_t p = node_parent_[n]; p != 0; p = node_parent_[p]) {
      cond_support[node_rank_[p]] += c;
    }
  }

  FpTree cond;
  // Monotone remap: surviving ranks keep their relative order, so the
  // bottom-up walks below emit rank-sorted paths (or their packed keys)
  // directly.
  std::vector<uint32_t>& remap = scratch.remap;
  remap.assign(rank, kNil);
  for (uint32_t r = 0; r < rank; ++r) {
    if (cond_support[r] >= min_support) {
      remap[r] = static_cast<uint32_t>(cond.rank_items_.size());
      cond.rank_items_.push_back(rank_items_[r]);
    }
  }

  if (cond.rank_items_.size() <= 64) {
    // Packed path: OR the surviving ranks into one key per prefix path.
    std::vector<std::pair<uint64_t, uint64_t>>& keyed = scratch.keyed;
    keyed.clear();
    for (uint32_t n : NodesOfRank(rank)) {
      uint64_t key = 0;
      for (uint32_t p = node_parent_[n]; p != 0; p = node_parent_[p]) {
        const uint32_t nr = remap[node_rank_[p]];
        if (nr != kNil) key |= uint64_t{1} << (63 - nr);
      }
      if (key != 0) keyed.emplace_back(key, node_count_[n]);
    }
    cond.BuildFromKeys(keyed);
    return cond;
  }

  // Pass 2: extract the filtered prefix paths. A node→root walk visits
  // ranks strictly descending, so appending the path buffer reversed
  // yields an ascending path — no per-path sort.
  std::vector<uint32_t>& data = scratch.data;
  std::vector<PathRef>& paths = scratch.paths;
  std::vector<uint32_t>& path = scratch.path;
  data.clear();
  paths.clear();
  for (uint32_t n : NodesOfRank(rank)) {
    path.clear();
    for (uint32_t p = node_parent_[n]; p != 0; p = node_parent_[p]) {
      const uint32_t nr = remap[node_rank_[p]];
      if (nr != kNil) path.push_back(nr);
    }
    if (path.empty()) continue;
    paths.push_back(PathRef{data.size(), static_cast<uint32_t>(path.size()),
                            node_count_[n]});
    data.insert(data.end(), path.rbegin(), path.rend());
  }
  cond.BuildFromPaths(data, paths);
  return cond;
}

}  // namespace privbasis
