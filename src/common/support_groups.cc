#include "common/support_groups.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace privbasis {

namespace {
constexpr int kMaxDigitBits = 16;
}  // namespace

SupportGroups::SupportGroups(std::span<const uint64_t> supports) {
  const size_t n = supports.size();
  assert(n <= std::numeric_limits<uint32_t>::max());
  uint64_t max_support = 0;
  for (uint64_t s : supports) max_support = std::max(max_support, s);

  // Stable LSD radix sort of the ids. Each pass is a counting sort on one
  // digit whose buckets are laid out in descending digit order, so the
  // result descends by support and ties keep the ascending ids the first
  // pass starts from. Passes split the support's bits evenly.
  const int bits = std::max(1, static_cast<int>(std::bit_width(max_support)));
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
  std::vector<uint32_t> next(size_t{1} << digit_bits);
  std::vector<uint32_t> scratch(passes > 1 ? n : 0);
  members_.resize(n);
  for (int p = 0; p < passes; ++p) {
    // The last pass writes members_; earlier ones alternate back from it.
    const bool into_members = (passes - 1 - p) % 2 == 0;
    std::vector<uint32_t>& dst = into_members ? members_ : scratch;
    const std::vector<uint32_t>& src = into_members ? scratch : members_;
    const int shift = p * digit_bits;
    std::fill(next.begin(), next.end(), 0u);
    for (uint64_t s : supports) ++next[(s >> shift) & mask];
    uint32_t position = 0;
    for (size_t d = next.size(); d-- > 0;) {
      const uint32_t count = next[d];
      next[d] = position;
      position += count;
    }
    auto place = [&](uint32_t id) {
      dst[next[(supports[id] >> shift) & mask]++] = id;
    };
    if (p == 0) {
      for (size_t id = 0; id < n; ++id) place(static_cast<uint32_t>(id));
    } else {
      for (uint32_t id : src) place(id);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const uint64_t s = supports[members_[i]];
    if (values_.empty() || s != values_.back()) {
      values_.push_back(s);
      offsets_.push_back(static_cast<uint32_t>(i));
    }
  }
  offsets_.push_back(static_cast<uint32_t>(n));
}

}  // namespace privbasis
