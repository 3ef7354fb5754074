// The per-query item ordering that PrivBasis steps 1–2 used before the
// database kept its SupportGroups, kept as a test oracle: GetLambda copied
// and sorted every item support on each call, and GroupedEmPool sorted
// every candidate index by (support descending, index ascending) into
// per-group member vectors. support_order_test checks the shipped code
// against it: the same λ, the same picks in the same order, and the same
// next RNG word. O(|I| log |I|) per call, so keep the inputs small.
#ifndef PRIVBASIS_TESTS_SUPPORT_ORDER_REFERENCE_H_
#define PRIVBASIS_TESTS_SUPPORT_ORDER_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "common/logspace.h"
#include "common/rng.h"
#include "common/status.h"

namespace privbasis::testing {

/// GetLambda over `item_supports` of a database with `num_transactions`
/// transactions.
inline uint32_t ReferenceGetLambda(std::span<const uint64_t> item_supports,
                                   size_t num_transactions,
                                   uint64_t fk1_support, double epsilon,
                                   Rng& rng) {
  std::vector<uint64_t> counts(item_supports.begin(), item_supports.end());
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const double n = static_cast<double>(num_transactions);
  const double theta_count = static_cast<double>(fk1_support);
  const double factor = epsilon / 2.0;

  GumbelMaxSampler sampler(&rng);
  size_t run_start = 0;
  while (run_start < counts.size()) {
    size_t run_end = run_start;
    while (run_end < counts.size() && counts[run_end] == counts[run_start]) {
      ++run_end;
    }
    double quality =
        n - std::abs(static_cast<double>(counts[run_start]) - theta_count);
    sampler.OfferGroup(run_start, factor * quality,
                       static_cast<double>(run_end - run_start));
    run_start = run_end;
  }
  size_t winner_run = sampler.WinnerKey();
  size_t run_end = winner_run;
  while (run_end < counts.size() && counts[run_end] == counts[winner_run]) {
    ++run_end;
  }
  size_t rank = winner_run + rng.UniformInt(run_end - winner_run);
  return static_cast<uint32_t>(rank + 1);
}

/// GroupedEmPool with its comparison-sort constructor.
class ReferenceGroupedEmPool {
 public:
  explicit ReferenceGroupedEmPool(std::span<const uint64_t> qualities) {
    remaining_ = qualities.size();
    std::vector<size_t> order(qualities.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (qualities[a] != qualities[b]) return qualities[a] > qualities[b];
      return a < b;
    });
    for (size_t idx : order) {
      if (groups_.empty() || groups_.back().quality != qualities[idx]) {
        groups_.push_back(Group{qualities[idx], {}});
      }
      groups_.back().members.push_back(idx);
    }
  }

  size_t NumRemaining() const { return remaining_; }

  Result<std::vector<size_t>> SelectK(Rng& rng, size_t count, double factor) {
    if (count > remaining_) {
      return Status::InvalidArgument("overdraw");
    }
    std::vector<size_t> out;
    out.reserve(count);
    for (size_t round = 0; round < count; ++round) {
      GumbelMaxSampler sampler(&rng);
      for (size_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].members.empty()) continue;
        sampler.OfferGroup(g,
                           factor * static_cast<double>(groups_[g].quality),
                           static_cast<double>(groups_[g].members.size()));
      }
      auto& members = groups_[sampler.WinnerKey()].members;
      size_t pick = rng.UniformInt(members.size());
      out.push_back(members[pick]);
      members[pick] = members.back();
      members.pop_back();
      --remaining_;
    }
    return out;
  }

 private:
  struct Group {
    uint64_t quality;
    std::vector<size_t> members;
  };
  std::vector<Group> groups_;
  size_t remaining_ = 0;
};

/// GetFreqElements over a span, through the reference pool.
inline Result<std::vector<size_t>> ReferenceGetFreqElements(
    std::span<const uint64_t> candidate_supports, size_t count,
    double epsilon, bool monotonic, Rng& rng) {
  if (count > candidate_supports.size()) {
    return Status::InvalidArgument("overdraw");
  }
  if (count == 0) return std::vector<size_t>{};
  const double per_round = epsilon / static_cast<double>(count);
  const double factor = per_round / (monotonic ? 1.0 : 2.0);
  ReferenceGroupedEmPool pool(candidate_supports);
  return pool.SelectK(rng, count, factor);
}

}  // namespace privbasis::testing

#endif  // PRIVBASIS_TESTS_SUPPORT_ORDER_REFERENCE_H_
