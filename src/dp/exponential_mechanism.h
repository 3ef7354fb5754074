// The exponential mechanism (McSherry & Talwar): select r with probability
// ∝ exp(ε·q(D,r) / (2·GS_q)); the factor 2 drops for monotone quality
// functions (paper §2.1, Eq. 1 and the discussion after it). PrivBasis
// selects through GroupedEmPool below; the per-candidate form lives on
// as a test oracle in tests/exponential_mechanism_reference.h.
//
// All selection happens in log space via the Gumbel-max trick — quality
// scores can be raw counts (up to ~1e15) without overflow.
#ifndef PRIVBASIS_DP_EXPONENTIAL_MECHANISM_H_
#define PRIVBASIS_DP_EXPONENTIAL_MECHANISM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/logspace.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/support_groups.h"

namespace privbasis {

/// Candidates with integer qualities, grouped by quality value, for
/// repeated selection without replacement.
///
/// Candidates sharing a quality are exchangeable under the exponential
/// mechanism, so a round needs one Gumbel draw per *distinct* value
/// instead of one per candidate, then a uniform draw within the winning
/// group. The groups are immutable (common/support_groups.h): a pool
/// either borrows them, as item selection borrows the database's, or
/// builds and owns them from a span. Removals never touch the groups;
/// each one is a swap-with-back recorded in a per-pool overlay, so a
/// pool's own state grows with the number of groups and of picks, not
/// with the number of candidates.
class GroupedEmPool {
 public:
  /// Borrows `groups`, which must outlive the pool.
  explicit GroupedEmPool(const SupportGroups& groups);
  GroupedEmPool(SupportGroups&&) = delete;
  /// Builds and owns the groups of `qualities` (candidate i has quality
  /// qualities[i]).
  explicit GroupedEmPool(std::span<const uint64_t> qualities);
  GroupedEmPool(const GroupedEmPool&) = delete;
  GroupedEmPool& operator=(const GroupedEmPool&) = delete;

  size_t NumGroups() const { return groups_->NumGroups(); }
  size_t NumRemaining() const { return remaining_; }
  uint64_t GroupQuality(size_t group) const { return groups_->Value(group); }

  /// Offers every non-empty group to `sampler` with key = group index and
  /// log-weight factor·quality aggregated over the group's remaining size.
  void OfferAll(GumbelMaxSampler* sampler, double factor) const;

  /// Removes and returns a uniformly random remaining member (a candidate
  /// index) of `group`.
  size_t TakeFrom(size_t group, Rng& rng);

  /// Runs `count` without-replacement rounds with the given per-round
  /// exponent factor; returns the selected candidate indices in order.
  Result<std::vector<size_t>> SelectK(Rng& rng, size_t count, double factor);

 private:
  /// The member at `position` of the groups' Order(), after removals.
  uint32_t MemberAt(size_t position) const;

  SupportGroups owned_;  // empty when borrowing
  const SupportGroups* groups_;
  /// Members taken from each group: group g's remaining members sit at
  /// positions [Begin(g), Begin(g) + Size(g) − taken_[g]).
  std::vector<uint32_t> taken_;
  /// Positions a removal refilled with the group's back member.
  std::unordered_map<size_t, uint32_t> moved_;
  size_t remaining_ = 0;
};

}  // namespace privbasis

#endif  // PRIVBASIS_DP_EXPONENTIAL_MECHANISM_H_
