#include "dp/exponential_mechanism.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logspace.h"

namespace privbasis {

double EmExponentFactor(const EmOptions& options) {
  double denom = (options.monotonic ? 1.0 : 2.0) * options.sensitivity;
  return options.epsilon / denom;
}

Result<size_t> ExponentialMechanismSelect(Rng& rng,
                                          std::span<const double> qualities,
                                          const EmOptions& options) {
  if (qualities.empty()) {
    return Status::InvalidArgument("no candidates to select from");
  }
  if (!(options.epsilon > 0.0) || !(options.sensitivity > 0.0)) {
    return Status::InvalidArgument("epsilon and sensitivity must be > 0");
  }
  const double factor = EmExponentFactor(options);
  GumbelMaxSampler sampler(&rng);
  for (size_t i = 0; i < qualities.size(); ++i) {
    sampler.Offer(i, factor * qualities[i]);
  }
  return sampler.WinnerKey();
}

Result<std::vector<size_t>> ExponentialMechanismSelectK(
    Rng& rng, std::span<const double> qualities, size_t count,
    const EmOptions& options) {
  if (count > qualities.size()) {
    return Status::InvalidArgument("cannot select " + std::to_string(count) +
                                   " of " + std::to_string(qualities.size()) +
                                   " candidates without replacement");
  }
  if (!(options.epsilon > 0.0) || !(options.sensitivity > 0.0)) {
    return Status::InvalidArgument("epsilon and sensitivity must be > 0");
  }
  EmOptions per_round = options;
  per_round.epsilon = options.epsilon / static_cast<double>(count);
  const double factor = EmExponentFactor(per_round);

  std::vector<bool> taken(qualities.size(), false);
  std::vector<size_t> out;
  out.reserve(count);
  for (size_t round = 0; round < count; ++round) {
    GumbelMaxSampler sampler(&rng);
    for (size_t i = 0; i < qualities.size(); ++i) {
      if (!taken[i]) sampler.Offer(i, factor * qualities[i]);
    }
    size_t winner = sampler.WinnerKey();
    taken[winner] = true;
    out.push_back(winner);
  }
  return out;
}

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
