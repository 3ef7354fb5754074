#include "server/dataset_registry.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "data/synthetic.h"
#include "data/transaction_db.h"
#include "server/wire.h"

namespace privbasis::server {

namespace {

Result<SyntheticProfile> ProfileByName(const std::string& name,
                                       double scale) {
  if (name == "retail") return SyntheticProfile::Retail(scale);
  if (name == "mushroom") return SyntheticProfile::Mushroom(scale);
  if (name == "pumsb-star") return SyntheticProfile::PumsbStar(scale);
  if (name == "kosarak") return SyntheticProfile::Kosarak(scale);
  if (name == "aol") return SyntheticProfile::Aol(scale);
  return Status::InvalidArgument("unknown profile \"" + name + "\"");
}

Result<TransactionDatabase> BuildInline(const json::Value& transactions,
                                        size_t max_transactions) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* rows,
                             transactions.GetArray());
  if (rows->empty()) {
    return Status::InvalidArgument("\"transactions\" must be non-empty");
  }
  if (rows->size() > max_transactions) {
    // A permanent rejection (the request can never succeed), so 400 —
    // not the retryable 429 the budget refusal uses.
    return Status::InvalidArgument(
        "inline dataset exceeds " + std::to_string(max_transactions) +
        " transactions");
  }
  TransactionDatabase::Builder builder(0);
  for (size_t t = 0; t < rows->size(); ++t) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* row,
                               (*rows)[t].GetArray());
    std::vector<Item> txn;
    txn.reserve(row->size());
    for (const json::Value& item : *row) {
      PRIVBASIS_ASSIGN_OR_RETURN(uint64_t raw, item.GetUint());
      if (raw > std::numeric_limits<Item>::max()) {
        return Status::InvalidArgument("transaction " + std::to_string(t) +
                                       ": item id out of range");
      }
      txn.push_back(static_cast<Item>(raw));
    }
    builder.AddTransaction(txn);
  }
  return std::move(builder).Build();
}

bool ValidDatasetName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  // Names double as snapshot filenames in the state dir.
  return name != "." && name != "..";
}

}  // namespace

Result<std::string> DatasetRegistry::Insert(std::string id,
                                            std::shared_ptr<Dataset> dataset,
                                            bool recovered) {
  MutexLock lock(mu_);
  if (datasets_.count(id) > 0) {
    return Status::FailedPrecondition("dataset \"" + id +
                                      "\" is already registered");
  }
  // The durability hook runs BEFORE the map insert: a dataset must never
  // be findable — spendable — until its snapshot, manifest entry, and
  // budget journal binding are durable. Recovered datasets skip it
  // (their durable records are what they were recovered from).
  if (!recovered && hook_ != nullptr) {
    PRIVBASIS_RETURN_NOT_OK(hook_(id, dataset));
  }
  // The attach hook (the query batcher) runs for recovered datasets
  // too — a dataset reloaded from the state dir must count through the
  // same executor a freshly registered one would.
  if (attach_hook_ != nullptr) {
    PRIVBASIS_RETURN_NOT_OK(attach_hook_(id, dataset));
  }
  datasets_.emplace(id, std::move(dataset));
  return id;
}

Result<std::string> DatasetRegistry::Register(
    std::shared_ptr<Dataset> dataset) {
  std::string id;
  {
    MutexLock lock(mu_);
    id = "ds-" + std::to_string(next_id_++);
  }
  return Insert(std::move(id), std::move(dataset), /*recovered=*/false);
}

Result<std::string> DatasetRegistry::RegisterNamed(
    const std::string& name, std::shared_ptr<Dataset> dataset) {
  if (!ValidDatasetName(name)) {
    return Status::InvalidArgument(
        "dataset name must be 1-128 chars of [A-Za-z0-9._-]: \"" + name +
        "\"");
  }
  if (name.starts_with("ds-")) {
    return Status::InvalidArgument(
        "dataset names must not start with \"ds-\" (reserved for "
        "generated ids): \"" + name + "\"");
  }
  return Insert(name, std::move(dataset), /*recovered=*/false);
}

Status DatasetRegistry::RegisterRecovered(const std::string& id,
                                          std::shared_ptr<Dataset> dataset) {
  if (id.starts_with("ds-")) {
    const size_t n = std::strtoull(id.c_str() + 3, nullptr, 10);
    SetNextId(n + 1);
  }
  return Insert(id, std::move(dataset), /*recovered=*/true).status();
}

void DatasetRegistry::SetNextId(size_t next_id) {
  MutexLock lock(mu_);
  next_id_ = std::max(next_id_, next_id);
}

Result<std::shared_ptr<Dataset>> DatasetRegistry::BuildFromJson(
    const json::Value& request, bool operator_config) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj,
                             request.GetObject());
  // Strict keys, like every other wire object: a typoed "budget" must
  // 400, not silently register an unlimited-ε dataset. Operator configs
  // additionally carry "name" (consumed by the caller, not here).
  if (operator_config) {
    PRIVBASIS_RETURN_NOT_OK(CheckKeys(
        *obj,
        {"name", "path", "transactions", "profile", "scale", "seed",
         "budget", "threads"},
        "dataset"));
  } else {
    PRIVBASIS_RETURN_NOT_OK(CheckKeys(
        *obj,
        {"path", "transactions", "profile", "scale", "seed", "budget",
         "threads"},
        "dataset"));
  }
  const json::Value* path = request.Find("path");
  const json::Value* transactions = request.Find("transactions");
  const json::Value* profile = request.Find("profile");
  const int sources = (path != nullptr) + (transactions != nullptr) +
                      (profile != nullptr);
  if (sources != 1) {
    return Status::InvalidArgument(
        "exactly one of \"path\", \"transactions\", \"profile\" required");
  }
  // "scale"/"seed" only mean something for profile generation; accepting
  // them elsewhere would silently register a dataset with different
  // properties than the client believes (the same fail-open the strict
  // key check exists to prevent).
  if (profile == nullptr &&
      (request.Find("scale") != nullptr || request.Find("seed") != nullptr)) {
    return Status::InvalidArgument(
        "\"scale\"/\"seed\" apply only to \"profile\" registrations");
  }
  Dataset::Options options;
  if (const json::Value* budget = request.Find("budget")) {
    PRIVBASIS_ASSIGN_OR_RETURN(options.total_epsilon, budget->GetDouble());
    if (!(options.total_epsilon > 0.0)) {
      return Status::InvalidArgument("\"budget\" must be > 0");
    }
  }
  if (const json::Value* threads = request.Find("threads")) {
    PRIVBASIS_ASSIGN_OR_RETURN(uint64_t n, threads->GetUint());
    options.num_threads = static_cast<size_t>(n);
  }

  std::shared_ptr<Dataset> dataset;
  if (path != nullptr) {
    // Operator configs come from the server's own command line, not the
    // wire — the path gate protects against remote file probing only.
    if (!limits_.allow_paths && !operator_config) {
      return Status::InvalidArgument(
          "\"path\" registration is disabled on this server (start it "
          "with --allow-path-datasets, or preload datasets at startup)");
    }
    PRIVBASIS_ASSIGN_OR_RETURN(std::string file, path->GetString());
    PRIVBASIS_ASSIGN_OR_RETURN(dataset,
                               Dataset::FromFimiFile(file, options));
  } else if (transactions != nullptr) {
    PRIVBASIS_ASSIGN_OR_RETURN(
        TransactionDatabase db,
        BuildInline(*transactions, limits_.max_inline_transactions));
    dataset = Dataset::Create(std::move(db), options);
  } else {
    PRIVBASIS_ASSIGN_OR_RETURN(std::string name, profile->GetString());
    double scale = 1.0;
    if (const json::Value* s = request.Find("scale")) {
      PRIVBASIS_ASSIGN_OR_RETURN(scale, s->GetDouble());
    }
    if (!(scale > 0.0) || scale > limits_.max_profile_scale) {
      return Status::InvalidArgument(
          "\"scale\" must be in (0, " +
          std::to_string(limits_.max_profile_scale) + "]");
    }
    uint64_t seed = 42;
    if (const json::Value* s = request.Find("seed")) {
      PRIVBASIS_ASSIGN_OR_RETURN(seed, s->GetUint());
    }
    PRIVBASIS_ASSIGN_OR_RETURN(SyntheticProfile prof,
                               ProfileByName(name, scale));
    PRIVBASIS_ASSIGN_OR_RETURN(dataset,
                               Dataset::FromProfile(prof, seed, options));
  }
  return dataset;
}

Result<DatasetRegistry::Registered> DatasetRegistry::RegisterFromJson(
    const json::Value& request) {
  // Bound the registry BEFORE building (the expensive part): each
  // registered dataset is pinned in memory until DELETEd, so the count
  // cap is what stands between a registration loop and an OOM. 429:
  // retryable once something is evicted.
  if (size() >= limits_.max_datasets) {
    return Status::ResourceExhausted(
        "dataset registry is full (" +
        std::to_string(limits_.max_datasets) +
        " handles); DELETE one first");
  }
  PRIVBASIS_ASSIGN_OR_RETURN(
      std::shared_ptr<Dataset> dataset,
      BuildFromJson(request, /*operator_config=*/false));
  PRIVBASIS_ASSIGN_OR_RETURN(std::string id, Register(dataset));
  return Registered{std::move(id), std::move(dataset)};
}

std::shared_ptr<Dataset> DatasetRegistry::Find(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = datasets_.find(id);
  return it == datasets_.end() ? nullptr : it->second;
}

bool DatasetRegistry::Remove(const std::string& id) {
  MutexLock lock(mu_);
  return datasets_.erase(id) > 0;
}

size_t DatasetRegistry::size() const {
  MutexLock lock(mu_);
  return datasets_.size();
}

std::vector<std::string> DatasetRegistry::ids() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(datasets_.size());
  for (const auto& [id, dataset] : datasets_) out.push_back(id);
  return out;
}

}  // namespace privbasis::server
