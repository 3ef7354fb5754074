// TransactionDatabase: immutable CSR-layout transaction store.
//
// Transactions are kept as one contiguous `items_` array plus an
// `offsets_` array (offsets_[i]..offsets_[i+1] delimit transaction i), the
// classic columnar/CSR layout: a full scan — the hot loop of both miners
// and BasisFreq — touches memory strictly sequentially.
//
// Construction also counts every item's support and groups the items by
// it once (ItemSupportGroups, 4 bytes per item). GetLambda, item
// selection, the top-k miner's floor and the FP-tree's ranking all read
// that order, so none of them sorts |I| supports per call.
#ifndef PRIVBASIS_DATA_TRANSACTION_DB_H_
#define PRIVBASIS_DATA_TRANSACTION_DB_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/support_groups.h"
#include "data/itemset.h"

namespace privbasis {

/// Immutable transaction database over a dense item universe [0, |I|).
/// Construct with Builder. Items within each transaction are sorted
/// ascending and duplicate-free.
class TransactionDatabase {
 public:
  /// Accumulates transactions, then freezes them into a database.
  class Builder {
   public:
    /// Declares the universe size |I|. Items ≥ universe_size are rejected
    /// at Build(). 0 (default) = infer as max item + 1.
    explicit Builder(uint32_t universe_size = 0)
        : universe_size_(universe_size) {
      offsets_.push_back(0);
    }

    /// Appends one transaction; input need not be sorted, duplicates are
    /// removed. Empty transactions are kept (they count toward N).
    void AddTransaction(std::vector<Item> items);
    void AddTransaction(const Itemset& items);

    size_t NumTransactions() const { return offsets_.size() - 1; }

    /// Freezes into an immutable database. Fails if any item id exceeds
    /// the declared universe.
    Result<TransactionDatabase> Build() &&;

   private:
    uint32_t universe_size_;
    std::vector<Item> items_;
    std::vector<uint64_t> offsets_;
  };

  /// Number of transactions N.
  size_t NumTransactions() const { return offsets_.size() - 1; }

  /// Universe size |I| (dense ids in [0, |I|)).
  uint32_t UniverseSize() const { return universe_size_; }

  /// Total number of item occurrences Σ|t| (the paper's |D|).
  uint64_t TotalItemOccurrences() const { return items_.size(); }

  /// Items of transaction `i`, sorted ascending.
  std::span<const Item> Transaction(size_t i) const {
    return std::span<const Item>(items_.data() + offsets_[i],
                                 items_.data() + offsets_[i + 1]);
  }

  /// Per-item absolute supports (counts), indexed by item id.
  const std::vector<uint64_t>& ItemSupports() const { return item_supports_; }

  /// The items grouped by support, built once at construction: distinct
  /// supports descending, each group's item ids ascending.
  const SupportGroups& ItemSupportGroups() const { return item_groups_; }

  /// Frequency of a single item: support / N.
  double ItemFrequency(Item item) const {
    return static_cast<double>(item_supports_[item]) /
           static_cast<double>(NumTransactions());
  }

  /// Exact absolute support of an itemset by full scan. O(Σ|t|); use
  /// VerticalIndex for repeated queries.
  uint64_t SupportOf(const Itemset& itemset) const;

  /// Frequency f(X) = support / N.
  double FrequencyOf(const Itemset& itemset) const {
    return static_cast<double>(SupportOf(itemset)) /
           static_cast<double>(NumTransactions());
  }

  /// Item ids sorted by descending support (ties by ascending id): a copy
  /// of ItemSupportGroups().Order().
  std::vector<Item> ItemsByFrequency() const;

  /// New database containing only items in `keep` (a projection in the
  /// paper's §4.1 sense). Transaction count is preserved; transactions may
  /// become empty. Item ids are NOT remapped.
  TransactionDatabase ProjectOnto(const Itemset& keep) const;

 private:
  TransactionDatabase(uint32_t universe_size, std::vector<Item> items,
                      std::vector<uint64_t> offsets);

  uint32_t universe_size_ = 0;
  std::vector<Item> items_;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> item_supports_;
  SupportGroups item_groups_;
};

}  // namespace privbasis

#endif  // PRIVBASIS_DATA_TRANSACTION_DB_H_
