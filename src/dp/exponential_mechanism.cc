#include "dp/exponential_mechanism.h"

#include <string>

#include "common/logspace.h"

namespace privbasis {

GroupedEmPool::GroupedEmPool(const SupportGroups& groups)
    : groups_(&groups),
      taken_(groups.NumGroups(), 0),
      remaining_(groups.NumMembers()) {}

GroupedEmPool::GroupedEmPool(std::span<const uint64_t> qualities)
    : owned_(qualities),
      groups_(&owned_),
      taken_(owned_.NumGroups(), 0),
      remaining_(owned_.NumMembers()) {}

void GroupedEmPool::OfferAll(GumbelMaxSampler* sampler, double factor) const {
  for (size_t g = 0; g < groups_->NumGroups(); ++g) {
    const size_t live = groups_->Size(g) - taken_[g];
    if (live == 0) continue;
    sampler->OfferGroup(g, factor * static_cast<double>(groups_->Value(g)),
                        static_cast<double>(live));
  }
}

uint32_t GroupedEmPool::MemberAt(size_t position) const {
  auto it = moved_.find(position);
  return it != moved_.end() ? it->second : groups_->Order()[position];
}

size_t GroupedEmPool::TakeFrom(size_t group, Rng& rng) {
  const size_t live = groups_->Size(group) - taken_[group];
  const size_t pick = groups_->Begin(group) + rng.UniformInt(live);
  const size_t back = groups_->Begin(group) + live - 1;
  const uint32_t idx = MemberAt(pick);
  const uint32_t back_member = MemberAt(back);
  moved_.erase(back);
  if (pick != back) moved_[pick] = back_member;
  ++taken_[group];
  --remaining_;
  return idx;
}

Result<std::vector<size_t>> GroupedEmPool::SelectK(Rng& rng, size_t count,
                                                   double factor) {
  if (count > remaining_) {
    return Status::InvalidArgument(
        "cannot select " + std::to_string(count) + " of " +
        std::to_string(remaining_) + " remaining candidates");
  }
  std::vector<size_t> out;
  out.reserve(count);
  for (size_t round = 0; round < count; ++round) {
    GumbelMaxSampler sampler(&rng);
    OfferAll(&sampler, factor);
    out.push_back(TakeFrom(sampler.WinnerKey(), rng));
  }
  return out;
}

}  // namespace privbasis
