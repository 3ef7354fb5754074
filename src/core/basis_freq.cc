#include "core/basis_freq.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "common/distributions.h"
#include "common/failpoint.h"
#include "common/math_util.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/count_exec.h"
#include "core/error_variance.h"

namespace privbasis {

namespace {

/// In-place sum-over-supersets (zeta) transform: after the call,
/// bins[mask] = Σ_{super ⊇ mask} original bins[super]. O(len · 2^len).
void SupersetSumFast(std::vector<double>* bins, size_t len) {
  auto& b = *bins;
  for (size_t bit = 0; bit < len; ++bit) {
    const uint64_t step = uint64_t{1} << bit;
    for (uint64_t mask = 0; mask < b.size(); ++mask) {
      if (!(mask & step)) b[mask] += b[mask | step];
    }
  }
}

/// Naive superset sums, O(3^len): for each mask, enumerate supersets by
/// iterating over submasks of the complement.
std::vector<double> SupersetSumNaive(const std::vector<double>& bins,
                                     size_t len) {
  const uint64_t full = (uint64_t{1} << len) - 1;
  std::vector<double> out(bins.size(), 0.0);
  for (uint64_t mask = 0; mask <= full; ++mask) {
    const uint64_t free = full & ~mask;
    double sum = bins[mask];
    // Enumerate non-empty submasks of `free`.
    for (uint64_t sub = free; sub != 0; sub = (sub - 1) & free) {
      sum += bins[mask | sub];
    }
    out[mask] = sum;
  }
  return out;
}

/// Running inverse-variance fusion state for one candidate itemset
/// (Algorithm 1 lines 17–24).
struct FusedEstimate {
  double noisy_count = 0.0;
  double variance_units = 0.0;
};

}  // namespace

Result<std::vector<std::vector<uint64_t>>> CountBasisBins(
    const TransactionDatabase& db, const BasisSet& basis_set,
    size_t num_threads, const CancelToken* cancel) {
  const size_t w = basis_set.Width();

  // Per-basis bit layout, and the packed-mask decision: when the
  // concatenated per-basis bit fields fit in one 64-bit word, every
  // item's memberships collapse into a single precomputed OR-word, and
  // the per-transaction mask computation becomes one fused gather+OR
  // kernel call, with per-basis masks recovered by shifts. Wider basis
  // sets build a flat CSR table of per-item (basis, bit) memberships
  // instead — one contiguous array probe per token. Both paths produce
  // identical integer bins; only the table the chosen path needs is
  // built.
  const uint32_t universe = db.UniverseSize();
  std::vector<size_t> basis_len(w);
  std::vector<uint32_t> bit_offset(w, 0);
  std::vector<uint64_t> len_mask(w, 0);
  uint64_t total_bits = 0;
  for (size_t i = 0; i < w; ++i) {
    basis_len[i] = basis_set.basis(i).size();
    // Clamp to 63: only a zero-length basis after exactly 64 packed bits
    // can land here, and (word >> 63) & 0 is the correct empty mask while
    // a shift by 64 would be UB.
    bit_offset[i] = static_cast<uint32_t>(std::min<uint64_t>(total_bits, 63));
    len_mask[i] = (basis_len[i] >= 64) ? ~uint64_t{0}
                                       : (uint64_t{1} << basis_len[i]) - 1;
    total_bits += basis_len[i];
  }

  std::vector<std::vector<uint64_t>> bins(w);
  for (size_t i = 0; i < w; ++i) {
    bins[i].assign(uint64_t{1} << basis_len[i], 0);
  }
  const size_t n = db.NumTransactions();
  if (w == 0 || n == 0) return bins;

  const bool packed = total_bits <= 64 && universe < (uint32_t{1} << 31);
  std::vector<uint64_t> item_word;
  std::vector<uint32_t> memb_offsets;
  std::vector<std::pair<uint32_t, uint32_t>> memb_entries;
  if (packed) {
    item_word.assign(universe, 0);
    for (size_t i = 0; i < w; ++i) {
      const Itemset& b = basis_set.basis(i);
      for (uint32_t bit = 0; bit < b.size(); ++bit) {
        if (b[bit] < universe) {
          item_word[b[bit]] |= uint64_t{1} << (bit_offset[i] + bit);
        }
      }
    }
  } else {
    memb_offsets.assign(universe + 1, 0);
    for (size_t i = 0; i < w; ++i) {
      for (Item item : basis_set.basis(i)) {
        if (item < universe) ++memb_offsets[item + 1];
      }
    }
    for (uint32_t i = 0; i < universe; ++i) {
      memb_offsets[i + 1] += memb_offsets[i];
    }
    memb_entries.resize(memb_offsets[universe]);
    std::vector<uint32_t> cursor(memb_offsets.begin(),
                                 memb_offsets.end() - 1);
    for (size_t i = 0; i < w; ++i) {
      const Itemset& b = basis_set.basis(i);
      for (uint32_t bit = 0; bit < b.size(); ++bit) {
        const Item item = b[bit];
        if (item < universe) {
          memb_entries[cursor[item]++] = {static_cast<uint32_t>(i), bit};
        }
      }
    }
  }

  // One scan of D; each transaction lands in exactly one bin per basis
  // (the bin of its intersection mask). The scan is sharded across the
  // pool into per-shard exact integer bins and the reduction runs in
  // shard order, so the counts are bit-identical at every shard and
  // thread count.
  uint64_t total_bins = 0;
  for (size_t i = 0; i < w; ++i) total_bins += uint64_t{1} << basis_len[i];
  const size_t threads = EffectiveThreads(num_threads);
  const size_t num_shards = CountScanRanges(n, threads, total_bins);
  // Cancellation granularity: one poll per kCancelChunk transactions (and
  // one per shard entry), so a fired token stops the scan within one
  // chunk rather than after the full shard. The failpoint site lets tests
  // inject a deterministic slowdown into the scan itself.
  constexpr size_t kCancelChunk = 1024;
  std::atomic<bool> cancelled{false};
  auto poll_cancel = [&] {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    if (!IsCancelled(cancel)) return false;
    cancelled.store(true, std::memory_order_relaxed);
    return true;
  };
  std::vector<std::vector<std::vector<uint64_t>>> shard_bins(num_shards);
  ThreadPool::Global().ParallelFor(
      0, n, (n + num_shards - 1) / num_shards, threads,
      [&](size_t shard_begin, size_t shard_end, size_t s) {
        failpoint::Hit("basis_freq_chunk");
        if (poll_cancel()) return;
        auto& local = shard_bins[s];
        local.resize(w);
        for (size_t i = 0; i < w; ++i) {
          local[i].assign(uint64_t{1} << basis_len[i], 0);
        }
        if (packed) {
          for (size_t t = shard_begin; t < shard_end; ++t) {
            if ((t - shard_begin) % kCancelChunk == 0 && t != shard_begin) {
              failpoint::Hit("basis_freq_chunk");
              if (poll_cancel()) return;
            }
            const auto txn = db.Transaction(t);
            const uint64_t word =
                simd::OrGatherWords(item_word.data(), txn.data(), txn.size());
            for (size_t i = 0; i < w; ++i) {
              ++local[i][(word >> bit_offset[i]) & len_mask[i]];
            }
          }
          return;
        }
        std::vector<uint64_t> masks(w, 0);
        for (size_t t = shard_begin; t < shard_end; ++t) {
          if ((t - shard_begin) % kCancelChunk == 0 && t != shard_begin) {
            failpoint::Hit("basis_freq_chunk");
            if (poll_cancel()) return;
          }
          for (Item it : db.Transaction(t)) {
            const uint32_t mb = memb_offsets[it];
            const uint32_t me = memb_offsets[it + 1];
            for (uint32_t idx = mb; idx < me; ++idx) {
              const auto [basis, bit] = memb_entries[idx];
              masks[basis] |= uint64_t{1} << bit;
            }
          }
          for (size_t i = 0; i < w; ++i) {
            ++local[i][masks[i]];
            masks[i] = 0;
          }
        }
      });
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("BasisFreq scan cancelled mid-shard");
  }
  for (size_t i = 0; i < w; ++i) {
    for (uint64_t mask = 0; mask < bins[i].size(); ++mask) {
      uint64_t count = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        if (!shard_bins[s].empty()) count += shard_bins[s][i][mask];
      }
      bins[i][mask] = count;
    }
  }
  return bins;
}

Result<BasisFreqResult> BasisFreq(const TransactionDatabase& db,
                                  const BasisSet& basis_set, size_t k,
                                  double epsilon, Rng& rng,
                                  PrivacyAccountant* accountant,
                                  const BasisFreqOptions& options) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  if (basis_set.Length() > options.max_basis_length) {
    return Status::InvalidArgument(
        "basis length " + std::to_string(basis_set.Length()) +
        " exceeds cap " + std::to_string(options.max_basis_length));
  }
  if (accountant != nullptr) {
    PRIVBASIS_RETURN_NOT_OK(accountant->Consume(epsilon, "BasisFreq"));
  }

  const size_t w = basis_set.Width();
  BasisFreqResult result;
  if (w == 0) return result;

  // Lines 7–11 run FIRST: the exact bin counts — from a direct scan, or
  // through the executor. Counting consumes no randomness, so hoisting
  // it above the noise draws leaves the RNG stream untouched and the
  // release bit-identical either way.
  PRIVBASIS_ASSIGN_OR_RETURN(
      std::vector<std::vector<uint64_t>> counts,
      options.exec != nullptr
          ? options.exec->BasisBinCounts(basis_set, options.cancel)
          : CountBasisBins(db, basis_set, options.num_threads,
                           options.cancel));
  if (counts.size() != w) {
    return Status::Internal("executor returned " +
                            std::to_string(counts.size()) +
                            " bin vectors for width " + std::to_string(w));
  }
  for (size_t i = 0; i < w; ++i) {
    const uint64_t want = uint64_t{1} << basis_set.basis(i).size();
    if (counts[i].size() != want) {
      return Status::Internal("executor bin vector " + std::to_string(i) +
                              " has " + std::to_string(counts[i].size()) +
                              " bins, want " + std::to_string(want));
    }
  }

  // Lines 2–6: initialize bins with Lap(w/ε) noise (count domain), then
  // fold in the exact counts by replaying the sequential `+= 1.0`
  // accumulation (AddOnesSequentially) — bit-identical to the original
  // count-then-noise single-threaded loop.
  std::vector<std::vector<double>> bins(w);
  const double noise_scale = static_cast<double>(w) / epsilon;
  for (size_t i = 0; i < w; ++i) {
    bins[i].assign(counts[i].size(), 0.0);
    if (options.inject_noise) {
      for (auto& cell : bins[i]) cell = SampleLaplace(rng, noise_scale);
    }
  }
  for (size_t i = 0; i < w; ++i) {
    for (uint64_t mask = 0; mask < bins[i].size(); ++mask) {
      if (counts[i][mask] != 0) {
        bins[i][mask] = AddOnesSequentially(bins[i][mask], counts[i][mask]);
      }
    }
  }
  counts.clear();

  // Lines 12–26: per basis, superset sums recover subset counts; fuse
  // multi-basis estimates by inverse-variance weighting.
  std::unordered_map<Itemset, FusedEstimate, ItemsetHash> candidates;
  for (size_t i = 0; i < w; ++i) {
    const Itemset& b = basis_set.basis(i);
    const size_t len = b.size();
    std::vector<double> sums;
    if (options.use_fast_superset_sum) {
      sums = std::move(bins[i]);
      SupersetSumFast(&sums, len);
    } else {
      sums = SupersetSumNaive(bins[i], len);
    }
    std::vector<Item> scratch;
    const uint64_t full = (uint64_t{1} << len) - 1;
    for (uint64_t mask = 1; mask <= full; ++mask) {
      scratch.clear();
      for (size_t bit = 0; bit < len; ++bit) {
        if (mask & (uint64_t{1} << bit)) scratch.push_back(b[bit]);
      }
      const double nc = sums[mask];
      const double nv = VarianceUnits(len, scratch.size());
      auto [entry, inserted] =
          candidates.try_emplace(Itemset::FromSorted(scratch));
      if (inserted) {
        entry->second = FusedEstimate{nc, nv};
      } else {
        double v = entry->second.variance_units;
        entry->second.noisy_count =
            nv / (v + nv) * entry->second.noisy_count + v / (v + nv) * nc;
        entry->second.variance_units = v * nv / (v + nv);
      }
    }
  }
  result.num_candidates = candidates.size();

  // Line 27: select the k candidates with the highest noisy counts.
  std::vector<NoisyItemset> all;
  all.reserve(candidates.size());
  for (auto& [items, est] : candidates) {
    all.push_back(NoisyItemset{items, est.noisy_count});
  }
  std::sort(all.begin(), all.end(),
            [](const NoisyItemset& a, const NoisyItemset& b) {
              if (a.noisy_count != b.noisy_count) {
                return a.noisy_count > b.noisy_count;
              }
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
  if (k != 0 && all.size() > k) all.resize(k);
  result.topk = std::move(all);
  return result;
}

}  // namespace privbasis
