#include "eval/release_io.h"

#include <limits>

namespace privbasis {

json::Value ItemsetToJson(const Itemset& itemset) {
  json::Value::Array items;
  items.reserve(itemset.size());
  for (Item item : itemset) items.emplace_back(item);
  return json::Value(std::move(items));
}

Result<Itemset> ItemsetFromJson(const json::Value& value) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* array,
                             value.GetArray());
  std::vector<Item> items;
  items.reserve(array->size());
  for (const json::Value& item : *array) {
    PRIVBASIS_ASSIGN_OR_RETURN(uint64_t raw, item.GetUint());
    if (raw > std::numeric_limits<Item>::max()) {
      return Status::InvalidArgument("item id out of range");
    }
    items.push_back(static_cast<Item>(raw));
  }
  return Itemset(std::move(items));
}

json::Value ReleaseItemsetsToJson(const std::vector<NoisyItemset>& released) {
  json::Value::Array array;
  array.reserve(released.size());
  for (const auto& r : released) {
    json::Value::Object obj;
    obj.emplace_back("items", ItemsetToJson(r.items));
    obj.emplace_back("noisy_count", r.noisy_count);
    array.emplace_back(std::move(obj));
  }
  return json::Value(std::move(array));
}

Result<std::vector<NoisyItemset>> ReleaseItemsetsFromJson(
    const json::Value& value) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* array,
                             value.GetArray());
  std::vector<NoisyItemset> out;
  out.reserve(array->size());
  for (size_t i = 0; i < array->size(); ++i) {
    const json::Value& element = (*array)[i];
    const std::string where = "itemset " + std::to_string(i);
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj,
                               element.GetObject());
    if (obj->size() != 2 || element.Find("items") == nullptr ||
        element.Find("noisy_count") == nullptr) {
      return Status::InvalidArgument(
          where + ": expected exactly {\"items\", \"noisy_count\"}");
    }
    auto items = ItemsetFromJson(*element.Find("items"));
    if (!items.ok()) {
      return Status::InvalidArgument(where + ": " +
                                     items.status().message());
    }
    if (items->empty()) {
      return Status::InvalidArgument(where + ": empty itemset");
    }
    PRIVBASIS_ASSIGN_OR_RETURN(double count,
                               element.Find("noisy_count")->GetDouble());
    out.push_back(NoisyItemset{std::move(*items), count});
  }
  return out;
}

}  // namespace privbasis
