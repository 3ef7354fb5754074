// Wire format of the query server: the JSON mirror of the Engine facade's
// request/response types (engine/query.h) plus the Status → HTTP error
// contract.
//
// Contract properties the tests pin down (tests/wire_test.cc):
//   * Deterministic serialization — fixed member order, canonical
//     numbers — so golden files compare byte for byte.
//   * Lossless round trip — a Release served over HTTP re-parses
//     bit-identical to the in-process struct (noisy counts, ε values,
//     uint64 seeds).
//   * Strict parsing — unknown keys are rejected with kInvalidArgument
//     (a typoed "epsilom" must 400, not silently run at the default ε
//     and spend budget the client did not intend).
//
// QuerySpec JSON (all keys optional; defaults = engine defaults):
//   {"method": "pb"|"tf", "k": 100, "epsilon": 1.0, "seed": 42,
//    "theta": 0.05, "sampling_rate": 0.5, "label": "...",
//    "rules": {"min_confidence": 0.6, "min_support": 0.0,
//              "max_antecedent": 0},
//    "pb": {"alpha1": .., "alpha2": .., "alpha3": .., "eta": ..,
//           "single_basis_lambda_cap": .., "max_basis_length": ..,
//           "monotonic_em": true, "naive_lambda2": false,
//           "lambda_cap": 0, "fk1_support_hint": 0},
//    "tf": {"m": 2, "rho": 0.9, "selection": "em"|"laplace",
//           "explicit_limit": 1000000}}
// The envelope keys "dataset" (the registry handle id) and
// "deadline_ms" (per-query wall-clock deadline, capped by the server's
// request deadline) are the server's, not the spec's; QuerySpecFromJson
// skips them.
#ifndef PRIVBASIS_SERVER_WIRE_H_
#define PRIVBASIS_SERVER_WIRE_H_

#include <initializer_list>

#include "common/json.h"
#include "common/status.h"
#include "engine/query.h"

namespace privbasis::server {

/// Serializes a spec with every field explicit (defaults included), in
/// fixed order — the canonical form golden tests compare against.
json::Value QuerySpecToJson(const QuerySpec& spec);

/// Parses the spec object. Strict: unknown keys (other than the server
/// envelope's "dataset") fail with kInvalidArgument. Values are
/// range-checked here only as far as typing goes; semantic validation is
/// QuerySpec::Validate(), exactly as for in-process callers.
Result<QuerySpec> QuerySpecFromJson(const json::Value& value);

/// Serializes a Release: method, itemsets (via eval/release_io's JSON
/// form), rules, λ/λ2/basis diagnostics, and the ledger-derived budget
/// block. An unlimited budget's remaining ε serializes as null.
json::Value ReleaseToJson(const Release& release);

/// Parses ReleaseToJson output (the client half of the round trip; the
/// in-process tests use it to compare served vs direct releases).
Result<Release> ReleaseFromJson(const json::Value& value);

/// {"error": {"code": "BudgetExhausted", "message": "..."}} — the body of
/// every non-2xx response.
json::Value StatusToJson(const Status& status);

/// The GET /v1/stats payload as a plain struct, so the wire form is
/// golden-testable (tests/wire_test.cc) without a live server — the
/// server fills one from its counters and serializes it here.
struct StatsSnapshot {
  // Query admission breakdown.
  uint64_t queries_admitted = 0;
  uint64_t queries_shed_predicted = 0;
  uint64_t queries_shed_queue = 0;
  uint64_t queries_cancelled = 0;
  uint64_t queries_completed = 0;
  // Connection handling.
  uint64_t connections = 0;
  uint64_t connections_shed = 0;
  // Admission configuration + live cost-model calibration.
  int64_t slo_ms = 0;
  uint64_t max_queue_depth = 0;
  uint64_t queue_depth = 0;
  double ns_per_unit = 0.0;
  double recent_query_ms = 0.0;
  // Same-dataset query batching (core/batch_exec.h): the configured
  // window/size (window_us = 0, max = 0 when off) and the monotone
  // fused-scan counters.
  int64_t batch_window_us = 0;
  uint64_t batch_max = 0;
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  uint64_t scans_saved = 0;
};

/// Serializes the snapshot in fixed member order (the /v1/stats body).
json::Value StatsToJson(const StatsSnapshot& stats);

/// Parses StatsToJson output. Strict: unknown keys are rejected, so a
/// client built against this schema notices a server that grew fields.
Result<StatsSnapshot> StatsFromJson(const json::Value& value);

/// Rejects members of `obj` whose key is not in `allowed` — the strict
/// half of the wire contract, shared by every JSON-accepting endpoint
/// (a typoed "budget" must 400, not silently register an unlimited
/// dataset). `what` names the object in the error message.
Status CheckKeys(const json::Value::Object& obj,
                 std::initializer_list<const char*> allowed,
                 const char* what);

/// The Status → HTTP mapping of the /v1 routes:
///   kOk 200, kInvalidArgument/kOutOfRange 400, kNotFound 404,
///   kFailedPrecondition 409, kBudgetExhausted 429 (the "payment
///   required" refusal — 402 semantics — spelled with the standard
///   too-many-requests code), kResourceExhausted 429, kIoError/kInternal
///   500, kUnavailable 503, kCancelled 408 (deadline expired mid-run).
int HttpStatusForCode(StatusCode code);

}  // namespace privbasis::server

#endif  // PRIVBASIS_SERVER_WIRE_H_
