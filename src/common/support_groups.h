// SupportGroups: candidate ids ordered by descending support, grouped by
// support value.
//
// The exponential mechanism over supports treats candidates of equal
// support as exchangeable, so selection needs only the distinct values
// and the members of each, never a per-query sort: GetLambda offers one
// Gumbel per group, and GroupedEmPool draws a group, then a member. A
// database builds the groups of its item supports once; pair selection
// builds them over each query's pair supports.
#ifndef PRIVBASIS_COMMON_SUPPORT_GROUPS_H_
#define PRIVBASIS_COMMON_SUPPORT_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace privbasis {

/// Immutable grouping of candidates 0..n-1 by support. Group 0 holds the
/// largest support; values strictly descend. Members are stored in CSR
/// form, ascending by id within a group, so Order() is every candidate by
/// descending support with ties broken by ascending id.
class SupportGroups {
 public:
  /// Zero candidates, zero groups.
  SupportGroups() : offsets_{0} {}

  /// Groups `supports` (candidate i has support supports[i]; at most
  /// 2^32 − 1 candidates). A stable LSD radix sort of 16-bit digits
  /// builds it, so supports below 2^16 take one counting pass: O(n +
  /// max support), no comparisons.
  explicit SupportGroups(std::span<const uint64_t> supports);

  size_t NumGroups() const { return values_.size(); }
  size_t NumMembers() const { return members_.size(); }

  /// The support every member of `group` shares.
  uint64_t Value(size_t group) const { return values_[group]; }

  /// Position of `group`'s first member in Order(), i.e. the number of
  /// candidates with a larger support.
  size_t Begin(size_t group) const { return offsets_[group]; }
  size_t Size(size_t group) const {
    return offsets_[group + 1] - offsets_[group];
  }

  /// Every candidate by descending support, ties by ascending id; group
  /// g's members are Order().subspan(Begin(g), Size(g)).
  std::span<const uint32_t> Order() const { return members_; }

 private:
  std::vector<uint64_t> values_;   // distinct supports, descending
  std::vector<uint32_t> offsets_;  // NumGroups() + 1 CSR bounds
  std::vector<uint32_t> members_;  // ids, ascending within a group
};

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_SUPPORT_GROUPS_H_
