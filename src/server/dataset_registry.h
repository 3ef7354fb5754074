// DatasetRegistry: the server's id → Dataset handle table.
//
// Registration hands out opaque "ds-N" ids; lookups return the shared_ptr
// itself, so eviction is safe by construction — a Remove() while queries
// are in flight only drops the registry's reference, and the last
// in-flight Engine::Run keeps the Dataset (and its Accountant ledger)
// alive until it finishes. Nothing is ever invalidated under a running
// query.
//
// The registry also owns the policy for *building* datasets out of wire
// requests (file path, inline transactions, or synthetic profile) so the
// HTTP layer stays a thin router.
#ifndef PRIVBASIS_SERVER_DATASET_REGISTRY_H_
#define PRIVBASIS_SERVER_DATASET_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/json.h"
#include "common/status.h"
#include "engine/dataset.h"

namespace privbasis::server {

/// Caps on wire-built datasets (all registration input is untrusted). A
/// namespace-scope struct — like DatasetOptions — so it can appear as a
/// `= {}` default argument inside the class body.
struct DatasetRegistryLimits {
  size_t max_inline_transactions = 1 << 20;
  double max_profile_scale = 10.0;
  /// Ceiling on wire-registered datasets held at once (each one pins a
  /// full TransactionDatabase in memory forever until DELETEd, so an
  /// unbounded count is a one-request-at-a-time OOM). In-process
  /// Register() calls (tests, operator preloads) are not counted
  /// against it.
  size_t max_datasets = 64;
  /// Whether {"path": ...} registrations are accepted. OFF by default:
  /// a server-side file read is an operator decision (arbitrary-path
  /// probing, unbounded file sizes), opted into via the server binary's
  /// --allow-path-datasets. Operator preloads bypass the wire entirely
  /// (Dataset::FromFimiFile + Register).
  bool allow_paths = false;
};

class DatasetRegistry {
 public:
  using Limits = DatasetRegistryLimits;

  explicit DatasetRegistry(Limits limits = {}) : limits_(limits) {}

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Runs for every new registration BEFORE the dataset becomes
  /// findable, under the registry lock — the durability hook (the
  /// StateStore persists the snapshot + manifest and attaches the budget
  /// journal here). A failing hook fails the registration: no dataset
  /// may serve queries whose ε spend the next boot would forget.
  using RegisterHook =
      std::function<Status(const std::string& id,
                           const std::shared_ptr<Dataset>& dataset)>;

  /// Installs the hook (nullptr = none). Set before serving starts; not
  /// synchronized against concurrent registrations.
  void SetRegisterHook(RegisterHook hook) { hook_ = std::move(hook); }

  /// Runs for EVERY dataset becoming findable — wire registrations,
  /// operator preloads, and recovered ones alike (unlike the durability
  /// hook, which recovered datasets skip). Runs after the durability
  /// hook, still before the handle is findable; a failure fails the
  /// registration. The server uses this to attach its query batcher.
  void SetAttachHook(RegisterHook hook) { attach_hook_ = std::move(hook); }

  /// Adds a handle, returning its new "ds-N" id. Ids are never reused.
  /// Fails only if the registration hook does.
  Result<std::string> Register(std::shared_ptr<Dataset> dataset);

  /// Adds a handle under a caller-chosen name (operator preloads). Names
  /// must be non-empty, `[A-Za-z0-9._-]`, must not start with "ds-" (the
  /// generated-id namespace), and must be free. Runs the hook.
  Result<std::string> RegisterNamed(const std::string& name,
                                    std::shared_ptr<Dataset> dataset);

  /// Re-adds a dataset recovered from the StateStore: any id shape,
  /// hook skipped (its durable records already exist). Bumps the "ds-N"
  /// counter past recovered generated ids.
  Status RegisterRecovered(const std::string& id,
                           std::shared_ptr<Dataset> dataset);

  /// Seeds the "ds-N" counter (from the recovered manifest). Only moves
  /// it forward.
  void SetNextId(size_t next_id);

  /// A freshly registered handle: the id AND the shared_ptr itself, so
  /// callers never re-look the id up (a concurrent Remove() between
  /// registration and lookup would hand them nullptr).
  struct Registered {
    std::string id;
    std::shared_ptr<Dataset> dataset;
  };

  /// Builds a Dataset from a wire request and registers it. Exactly one
  /// of the source keys must be present:
  ///   {"path": "transactions.dat"}                 FIMI file (gated by
  ///                                                Limits::allow_paths)
  ///   {"transactions": [[1,2,9], [2,9], ...]}      inline
  ///   {"profile": "mushroom", "scale": 0.5}        synthetic profile
  /// plus optional "budget" (total ε; default unlimited), "seed"
  /// (profile generation; default 42), and "threads" (parallelism of
  /// the dataset's cache builds and of every full-data query's counting
  /// scans; default the env knob). Unknown keys are rejected.
  Result<Registered> RegisterFromJson(const json::Value& request);

  /// Builds (without registering) a Dataset from the same JSON shape.
  /// With `operator_config` (the server binary's --preload-config), a
  /// "name" key is tolerated (the caller consumes it) and "path" is
  /// allowed regardless of Limits::allow_paths — the config comes from
  /// the operator's command line, not the wire.
  Result<std::shared_ptr<Dataset>> BuildFromJson(const json::Value& request,
                                                 bool operator_config);

  /// The handle for `id`, or nullptr. The returned shared_ptr keeps the
  /// dataset alive independent of later Remove() calls.
  std::shared_ptr<Dataset> Find(const std::string& id) const;

  /// Drops the registry's reference; false when `id` is unknown.
  bool Remove(const std::string& id);

  size_t size() const;
  std::vector<std::string> ids() const;

 private:
  /// Inserts under mu_, running the hook first unless `recovered`.
  Result<std::string> Insert(std::string id,
                             std::shared_ptr<Dataset> dataset,
                             bool recovered) PB_EXCLUDES(mu_);

  Limits limits_;
  /// Both hooks are installed before serving starts (SetRegisterHook /
  /// SetAttachHook docs) and immutable afterwards, so they are read
  /// without mu_.
  RegisterHook hook_;
  RegisterHook attach_hook_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Dataset>> datasets_
      PB_GUARDED_BY(mu_);
  size_t next_id_ PB_GUARDED_BY(mu_) = 1;
};

}  // namespace privbasis::server

#endif  // PRIVBASIS_SERVER_DATASET_REGISTRY_H_
