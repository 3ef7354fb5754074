#include "core/batch_exec.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/basis_freq.h"
#include "core/privbasis.h"

namespace privbasis {

namespace {

/// The cancel token a fused scan runs under. Member deadlines differ,
/// but counts merge exactly, so the shared scan may only be cut short
/// once EVERY member is past its deadline — the max. If any member has
/// no deadline the scan is uninterruptible (nullptr); members with
/// fired tokens still fail closed via the per-member post-check.
const CancelToken* FusedToken(const std::vector<const CancelToken*>& cancels,
                              std::optional<CancelToken>& storage) {
  std::chrono::steady_clock::time_point latest{};
  for (const CancelToken* token : cancels) {
    if (token == nullptr || !token->has_deadline()) return nullptr;
    latest = std::max(latest, token->deadline());
  }
  storage.emplace(latest);
  return &*storage;
}

}  // namespace

// ------------------------------------------------------ DirectCountExecutor

Result<std::vector<std::vector<uint64_t>>> DirectCountExecutor::BasisBinCounts(
    const BasisSet& basis_set, const CancelToken* cancel) const {
  return CountBasisBins(*db_, basis_set, num_threads_, cancel);
}

Result<std::vector<uint64_t>> DirectCountExecutor::PairSupports(
    const std::vector<Item>& items, const CancelToken* cancel) const {
  return CountPairSupports(*db_, items, num_threads_, cancel);
}

// ---------------------------------------------------- BatchingCountExecutor

BatchingCountExecutor::BatchingCountExecutor(
    std::shared_ptr<const CountExecutor> inner, Options options,
    std::shared_ptr<BatchStats> stats)
    : inner_(std::move(inner)), options_(options), stats_(std::move(stats)) {}

BatchingCountExecutor::~BatchingCountExecutor() = default;

void BatchingCountExecutor::BeginQuery(int64_t window_hint_us) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (window_hint_us > 0) {
    window_hint_us_.store(window_hint_us, std::memory_order_relaxed);
  }
}

void BatchingCountExecutor::EndQuery() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

bool BatchingCountExecutor::Passthrough() const {
  return options_.window_us <= 0 || options_.max_batch <= 1 ||
         inflight_.load(std::memory_order_relaxed) <= 1;
}

template <typename Req, typename Resp, typename Fuse>
Result<Resp> BatchingCountExecutor::RunBatched(Gate<Req, Resp>& gate,
                                               const Req& req,
                                               const CancelToken* cancel,
                                               Fuse&& fuse) const {
  using R = Round<Req, Resp>;
  std::shared_ptr<R> round;
  size_t my_index = 0;
  bool leader = false;
  {
    MutexLock g(gate.mu);
    if (gate.current == nullptr) {
      gate.current = std::make_shared<R>();
      leader = true;
    }
    round = gate.current;
    MutexLock r(round->mu);
    my_index = round->reqs.size();
    round->reqs.push_back(&req);
    round->cancels.push_back(cancel);
    if (round->reqs.size() >= options_.max_batch) {
      // Full: detach so the next arrival starts a fresh round.
      round->closed = true;
      gate.current = nullptr;
    }
    round->cv.NotifyAll();  // the leader re-evaluates its target
  }

  if (leader) {
    // Wait (bounded) for co-riders. The target is the live in-flight
    // count — when this query is the only one left, there is nobody to
    // wait for and the round closes immediately.
    int64_t window_us = options_.window_us;
    const int64_t hint = window_hint_us_.load(std::memory_order_relaxed);
    if (hint > 0 && hint < window_us) window_us = hint;
    const auto close_at = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(window_us);
    {
      MutexLock r(round->mu);
      for (;;) {
        if (round->closed) break;
        const size_t target = std::clamp<size_t>(
            static_cast<size_t>(
                std::max<int64_t>(1, inflight_.load(std::memory_order_relaxed))),
            size_t{1}, options_.max_batch);
        if (round->reqs.size() >= target) break;
        if (round->cv.WaitUntil(round->mu, close_at) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    // Close under gate → round lock order (a max_batch joiner may have
    // closed and detached it already).
    {
      MutexLock g(gate.mu);
      MutexLock r(round->mu);
      if (!round->closed) {
        round->closed = true;
        if (gate.current == round) gate.current = nullptr;
      }
    }
    // The member list is frozen; snapshot it so the fused scan runs
    // without any lock held.
    std::vector<const Req*> member_reqs;
    std::vector<const CancelToken*> member_cancels;
    {
      MutexLock r(round->mu);
      member_reqs = round->reqs;
      member_cancels = round->cancels;
    }
    const size_t n = member_reqs.size();
    if (n > 1 && stats_ != nullptr) {
      stats_->batches.fetch_add(1, std::memory_order_relaxed);
      stats_->batched_queries.fetch_add(n, std::memory_order_relaxed);
      stats_->scans_saved.fetch_add(n - 1, std::memory_order_relaxed);
    }
    Result<std::vector<Resp>> fused = fuse(member_reqs, member_cancels);
    {
      MutexLock r(round->mu);
      if (fused.ok()) {
        round->resps = std::move(*fused);
        if (round->resps.size() != n) {
          round->status = Status::Internal("fused batch split mismatch");
        }
      } else {
        round->status = fused.status();
      }
      round->done = true;
    }
    round->cv.NotifyAll();
  }

  Resp mine;
  {
    MutexLock r(round->mu);
    while (!round->done) round->cv.Wait(round->mu);
    if (!round->status.ok()) return round->status;
    mine = std::move(round->resps[my_index]);
  }
  // A shared scan only honors the LATEST member deadline; fail this
  // member closed if its own token fired meanwhile — exactly what its
  // solo scan would have done.
  if (IsCancelled(cancel)) {
    return Status::Cancelled("query cancelled during batched count");
  }
  return mine;
}

Result<std::vector<std::vector<uint64_t>>>
BatchingCountExecutor::BasisBinCounts(const BasisSet& basis_set,
                                      const CancelToken* cancel) const {
  if (Passthrough()) return inner_->BasisBinCounts(basis_set, cancel);
  using Resp = std::vector<std::vector<uint64_t>>;
  const BasisBinReq req{&basis_set};
  return RunBatched(
      bin_gate_, req, cancel,
      [this](const std::vector<const BasisBinReq*>& reqs,
             const std::vector<const CancelToken*>& cancels)
          -> Result<std::vector<Resp>> {
        if (reqs.size() == 1) {
          PRIVBASIS_ASSIGN_OR_RETURN(
              Resp bins,
              inner_->BasisBinCounts(*reqs[0]->basis_set, cancels[0]));
          std::vector<Resp> out;
          out.push_back(std::move(bins));
          return out;
        }
        // One scan over the concatenated bases; per-basis bin rows are
        // independent, so splitting rows back by member width is exact.
        std::optional<CancelToken> storage;
        const CancelToken* token = FusedToken(cancels, storage);
        BasisSet fused_set;
        for (const BasisBinReq* r : reqs) {
          for (const Itemset& basis : r->basis_set->bases()) {
            fused_set.Add(basis);
          }
        }
        PRIVBASIS_ASSIGN_OR_RETURN(Resp bins,
                                   inner_->BasisBinCounts(fused_set, token));
        if (bins.size() != fused_set.Width()) {
          return Status::Internal("fused bin count has the wrong shape");
        }
        std::vector<Resp> out;
        out.reserve(reqs.size());
        size_t row = 0;
        for (const BasisBinReq* r : reqs) {
          const size_t width = r->basis_set->Width();
          out.emplace_back(std::make_move_iterator(bins.begin() + row),
                           std::make_move_iterator(bins.begin() + row + width));
          row += width;
        }
        return out;
      });
}

Result<std::vector<uint64_t>> BatchingCountExecutor::PairSupports(
    const std::vector<Item>& items, const CancelToken* cancel) const {
  if (Passthrough()) return inner_->PairSupports(items, cancel);
  using Resp = std::vector<uint64_t>;
  const PairReq req{&items};
  return RunBatched(
      pair_gate_, req, cancel,
      [this](const std::vector<const PairReq*>& reqs,
             const std::vector<const CancelToken*>& cancels)
          -> Result<std::vector<Resp>> {
        if (reqs.size() == 1) {
          PRIVBASIS_ASSIGN_OR_RETURN(
              Resp counts, inner_->PairSupports(*reqs[0]->items, cancels[0]));
          std::vector<Resp> out;
          out.push_back(std::move(counts));
          return out;
        }
        // One inner scan over the union of the members' items, in
        // first-seen order. A member's position maps to its item's place
        // in the union, except a repeat of an item earlier in the same
        // member, which maps to none: its solo scan gives that position
        // no column, so its pairs read 0.
        constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
        std::vector<Item> fused_items;
        std::unordered_map<Item, uint32_t> fused_position;
        std::vector<size_t> last_member;  // per union item: member index + 1
        std::vector<std::vector<uint32_t>> positions(reqs.size());
        for (size_t r = 0; r < reqs.size(); ++r) {
          for (Item item : *reqs[r]->items) {
            const auto [it, inserted] = fused_position.emplace(
                item, static_cast<uint32_t>(fused_items.size()));
            if (inserted) {
              fused_items.push_back(item);
              last_member.push_back(0);
            }
            const uint32_t p = it->second;
            positions[r].push_back(last_member[p] == r + 1 ? kAbsent : p);
            last_member[p] = r + 1;
          }
        }
        std::optional<CancelToken> storage;
        const CancelToken* token = FusedToken(cancels, storage);
        PRIVBASIS_ASSIGN_OR_RETURN(const Resp fused,
                                   inner_->PairSupports(fused_items, token));
        const size_t u = fused_items.size();
        if (fused.size() != u * u) {
          return Status::Internal("fused pair count has the wrong shape");
        }
        std::vector<Resp> out;
        out.reserve(reqs.size());
        for (const std::vector<uint32_t>& pos : positions) {
          const size_t m = pos.size();
          Resp dense(m * m, 0);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = i + 1; j < m; ++j) {
              if (pos[i] == kAbsent || pos[j] == kAbsent) continue;
              dense[i * m + j] = fused[std::min(pos[i], pos[j]) * u +
                                       std::max(pos[i], pos[j])];
            }
          }
          out.push_back(std::move(dense));
        }
        return out;
      });
}

}  // namespace privbasis
