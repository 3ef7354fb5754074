#include "data/transaction_db.h"

#include <algorithm>
#include <cassert>

namespace privbasis {

void TransactionDatabase::Builder::AddTransaction(std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
}

void TransactionDatabase::Builder::AddTransaction(const Itemset& items) {
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
}

Result<TransactionDatabase> TransactionDatabase::Builder::Build() && {
  uint32_t universe = universe_size_;
  uint32_t max_item = 0;
  for (Item it : items_) max_item = std::max(max_item, it);
  if (universe == 0) {
    universe = items_.empty() ? 0 : max_item + 1;
  } else if (!items_.empty() && max_item >= universe) {
    return Status::InvalidArgument(
        "item id " + std::to_string(max_item) +
        " exceeds declared universe size " + std::to_string(universe));
  }
  return TransactionDatabase(universe, std::move(items_),
                             std::move(offsets_));
}

TransactionDatabase::TransactionDatabase(uint32_t universe_size,
                                         std::vector<Item> items,
                                         std::vector<uint64_t> offsets)
    : universe_size_(universe_size),
      items_(std::move(items)),
      offsets_(std::move(offsets)) {
  item_supports_.assign(universe_size_, 0);
  for (Item it : items_) ++item_supports_[it];
  item_groups_ = SupportGroups(item_supports_);
}

uint64_t TransactionDatabase::SupportOf(const Itemset& itemset) const {
  if (itemset.empty()) return NumTransactions();
  uint64_t support = 0;
  for (size_t i = 0; i < NumTransactions(); ++i) {
    if (itemset.IsSubsetOf(Transaction(i))) ++support;
  }
  return support;
}

std::vector<Item> TransactionDatabase::ItemsByFrequency() const {
  const std::span<const uint32_t> order = item_groups_.Order();
  return std::vector<Item>(order.begin(), order.end());
}

TransactionDatabase TransactionDatabase::ProjectOnto(
    const Itemset& keep) const {
  std::vector<char> keep_mask(universe_size_, 0);
  for (Item it : keep) {
    assert(it < universe_size_);
    keep_mask[it] = 1;
  }
  std::vector<Item> items;
  std::vector<uint64_t> offsets;
  offsets.reserve(offsets_.size());
  offsets.push_back(0);
  for (size_t i = 0; i < NumTransactions(); ++i) {
    for (Item it : Transaction(i)) {
      if (keep_mask[it]) items.push_back(it);
    }
    offsets.push_back(items.size());
  }
  return TransactionDatabase(universe_size_, std::move(items),
                             std::move(offsets));
}

}  // namespace privbasis
