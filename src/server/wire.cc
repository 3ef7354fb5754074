#include "server/wire.h"

#include <cmath>
#include <limits>
#include <string>

#include "engine/accountant.h"
#include "eval/release_io.h"

namespace privbasis::server {

Status CheckKeys(const json::Value::Object& obj,
                 std::initializer_list<const char*> allowed,
                 const char* what) {
  for (const auto& [key, value] : obj) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(std::string("unknown ") + what +
                                     " key \"" + key + "\"");
    }
  }
  return Status::OK();
}

namespace {

/// Field extraction helpers: absent key = keep the default; present key
/// must have the right type. Each returns the field Status so one bad
/// field names itself in the 400 body.
Status ReadDouble(const json::Value& obj, const char* key, double* out) {
  if (const json::Value* v = obj.Find(key)) {
    auto parsed = v->GetDouble();
    if (!parsed.ok()) {
      return Status::InvalidArgument(std::string("\"") + key + "\": " +
                                     parsed.status().message());
    }
    *out = *parsed;
  }
  return Status::OK();
}

Status ReadBool(const json::Value& obj, const char* key, bool* out) {
  if (const json::Value* v = obj.Find(key)) {
    auto parsed = v->GetBool();
    if (!parsed.ok()) {
      return Status::InvalidArgument(std::string("\"") + key + "\": " +
                                     parsed.status().message());
    }
    *out = *parsed;
  }
  return Status::OK();
}

template <typename T>
Status ReadUint(const json::Value& obj, const char* key, T* out) {
  if (const json::Value* v = obj.Find(key)) {
    auto parsed = v->GetUint();
    if (!parsed.ok()) {
      return Status::InvalidArgument(std::string("\"") + key + "\": " +
                                     parsed.status().message());
    }
    if (*parsed > std::numeric_limits<T>::max()) {
      return Status::InvalidArgument(std::string("\"") + key +
                                     "\": value out of range");
    }
    *out = static_cast<T>(*parsed);
  }
  return Status::OK();
}

Status ReadString(const json::Value& obj, const char* key,
                  std::string* out) {
  if (const json::Value* v = obj.Find(key)) {
    auto parsed = v->GetString();
    if (!parsed.ok()) {
      return Status::InvalidArgument(std::string("\"") + key + "\": " +
                                     parsed.status().message());
    }
    *out = std::move(*parsed);
  }
  return Status::OK();
}

json::Value PbOptionsToJson(const PrivBasisOptions& pb) {
  json::Value v;
  v.Set("alpha1", pb.alpha1);
  v.Set("alpha2", pb.alpha2);
  v.Set("alpha3", pb.alpha3);
  v.Set("eta", pb.eta);
  v.Set("single_basis_lambda_cap", pb.single_basis_lambda_cap);
  v.Set("max_basis_length", pb.max_basis_length);
  v.Set("monotonic_em", pb.monotonic_em);
  v.Set("naive_lambda2", pb.naive_lambda2);
  v.Set("lambda_cap", pb.lambda_cap);
  v.Set("fk1_support_hint", pb.fk1_support_hint);
  return v;
}

Status PbOptionsFromJson(const json::Value& v, PrivBasisOptions* pb) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj, v.GetObject());
  PRIVBASIS_RETURN_NOT_OK(CheckKeys(
      *obj,
      {"alpha1", "alpha2", "alpha3", "eta", "single_basis_lambda_cap",
       "max_basis_length", "monotonic_em", "naive_lambda2", "lambda_cap",
       "fk1_support_hint"},
      "pb option"));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(v, "alpha1", &pb->alpha1));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(v, "alpha2", &pb->alpha2));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(v, "alpha3", &pb->alpha3));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(v, "eta", &pb->eta));
  PRIVBASIS_RETURN_NOT_OK(ReadUint(v, "single_basis_lambda_cap",
                                   &pb->single_basis_lambda_cap));
  PRIVBASIS_RETURN_NOT_OK(
      ReadUint(v, "max_basis_length", &pb->max_basis_length));
  PRIVBASIS_RETURN_NOT_OK(ReadBool(v, "monotonic_em", &pb->monotonic_em));
  PRIVBASIS_RETURN_NOT_OK(ReadBool(v, "naive_lambda2", &pb->naive_lambda2));
  PRIVBASIS_RETURN_NOT_OK(ReadUint(v, "lambda_cap", &pb->lambda_cap));
  PRIVBASIS_RETURN_NOT_OK(
      ReadUint(v, "fk1_support_hint", &pb->fk1_support_hint));
  return Status::OK();
}

json::Value TfOptionsToJson(const TfOptions& tf) {
  json::Value v;
  v.Set("m", tf.m);
  v.Set("rho", tf.rho);
  v.Set("selection", tf.selection == TfOptions::Selection::kLaplaceNoise
                         ? "laplace"
                         : "em");
  v.Set("explicit_limit", tf.explicit_limit);
  return v;
}

Status TfOptionsFromJson(const json::Value& v, TfOptions* tf) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj, v.GetObject());
  PRIVBASIS_RETURN_NOT_OK(CheckKeys(
      *obj, {"m", "rho", "selection", "explicit_limit"}, "tf option"));
  PRIVBASIS_RETURN_NOT_OK(ReadUint(v, "m", &tf->m));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(v, "rho", &tf->rho));
  std::string selection;
  PRIVBASIS_RETURN_NOT_OK(ReadString(v, "selection", &selection));
  if (!selection.empty()) {
    if (selection == "em") {
      tf->selection = TfOptions::Selection::kExponentialMechanism;
    } else if (selection == "laplace") {
      tf->selection = TfOptions::Selection::kLaplaceNoise;
    } else {
      return Status::InvalidArgument(
          "\"selection\": expected \"em\" or \"laplace\", got \"" +
          selection + "\"");
    }
  }
  PRIVBASIS_RETURN_NOT_OK(
      ReadUint(v, "explicit_limit", &tf->explicit_limit));
  return Status::OK();
}

json::Value RuleOptionsToJson(const RuleOptions& rules) {
  json::Value v;
  v.Set("min_confidence", rules.min_confidence);
  v.Set("min_support", rules.min_support);
  v.Set("max_antecedent", rules.max_antecedent);
  return v;
}

Status RuleOptionsFromJson(const json::Value& v, RuleOptions* rules) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj, v.GetObject());
  PRIVBASIS_RETURN_NOT_OK(CheckKeys(
      *obj, {"min_confidence", "min_support", "max_antecedent"},
      "rules option"));
  PRIVBASIS_RETURN_NOT_OK(
      ReadDouble(v, "min_confidence", &rules->min_confidence));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(v, "min_support", &rules->min_support));
  PRIVBASIS_RETURN_NOT_OK(
      ReadUint(v, "max_antecedent", &rules->max_antecedent));
  return Status::OK();
}

/// null ↔ an unlimited budget's infinite remaining ε (JSON has no
/// spelling for infinity; see common/json.h).
json::Value EpsilonOrNull(double epsilon) {
  if (!std::isfinite(epsilon)) return json::Value(nullptr);
  return json::Value(epsilon);
}

Result<double> EpsilonFromJson(const json::Value& v) {
  if (v.is_null()) return std::numeric_limits<double>::infinity();
  return v.GetDouble();
}

}  // namespace

json::Value QuerySpecToJson(const QuerySpec& spec) {
  json::Value v;
  v.Set("method", QueryMethodName(spec.method));
  v.Set("k", spec.k);
  v.Set("epsilon", spec.epsilon);
  v.Set("seed", spec.seed);
  v.Set("theta", spec.theta);
  v.Set("sampling_rate", spec.sampling_rate);
  v.Set("label", spec.label);
  v.Set("rules", spec.derive_rules ? RuleOptionsToJson(spec.rule_options)
                                   : json::Value(nullptr));
  v.Set("pb", PbOptionsToJson(spec.pb));
  v.Set("tf", TfOptionsToJson(spec.tf));
  return v;
}

Result<QuerySpec> QuerySpecFromJson(const json::Value& value) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj,
                             value.GetObject());
  // "dataset" (the registry handle id) and "deadline_ms" (the server's
  // per-query deadline) are envelope keys, not part of the spec.
  PRIVBASIS_RETURN_NOT_OK(CheckKeys(
      *obj,
      {"dataset", "deadline_ms", "method", "k", "epsilon", "seed", "theta",
       "sampling_rate", "label", "rules", "pb", "tf"},
      "query"));

  QuerySpec spec;
  std::string method;
  PRIVBASIS_RETURN_NOT_OK(ReadString(value, "method", &method));
  if (!method.empty()) {
    if (method == "pb") {
      spec.method = QueryMethod::kPrivBasis;
    } else if (method == "tf") {
      spec.method = QueryMethod::kTruncatedFrequency;
    } else {
      return Status::InvalidArgument(
          "\"method\": expected \"pb\" or \"tf\", got \"" + method + "\"");
    }
  }
  PRIVBASIS_RETURN_NOT_OK(ReadUint(value, "k", &spec.k));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(value, "epsilon", &spec.epsilon));
  PRIVBASIS_RETURN_NOT_OK(ReadUint(value, "seed", &spec.seed));
  PRIVBASIS_RETURN_NOT_OK(ReadDouble(value, "theta", &spec.theta));
  PRIVBASIS_RETURN_NOT_OK(
      ReadDouble(value, "sampling_rate", &spec.sampling_rate));
  PRIVBASIS_RETURN_NOT_OK(ReadString(value, "label", &spec.label));
  if (const json::Value* rules = value.Find("rules");
      rules != nullptr && !rules->is_null()) {
    spec.derive_rules = true;
    PRIVBASIS_RETURN_NOT_OK(RuleOptionsFromJson(*rules, &spec.rule_options));
  }
  if (const json::Value* pb = value.Find("pb")) {
    PRIVBASIS_RETURN_NOT_OK(PbOptionsFromJson(*pb, &spec.pb));
  }
  if (const json::Value* tf = value.Find("tf")) {
    PRIVBASIS_RETURN_NOT_OK(TfOptionsFromJson(*tf, &spec.tf));
  }
  return spec;
}

json::Value ReleaseToJson(const Release& release) {
  json::Value v;
  v.Set("method", QueryMethodName(release.method));
  v.Set("itemsets", ReleaseItemsetsToJson(release.itemsets));
  json::Value::Array rules;
  rules.reserve(release.rules.size());
  for (const auto& rule : release.rules) {
    json::Value r;
    r.Set("antecedent", ItemsetToJson(rule.antecedent));
    r.Set("consequent", ItemsetToJson(rule.consequent));
    r.Set("support", rule.support);
    r.Set("confidence", rule.confidence);
    rules.emplace_back(std::move(r));
  }
  v.Set("rules", std::move(rules));
  v.Set("lambda", release.lambda);
  v.Set("lambda2", release.lambda2);
  json::Value::Array basis;
  basis.reserve(release.basis_set.Width());
  for (const Itemset& b : release.basis_set.bases()) {
    basis.push_back(ItemsetToJson(b));
  }
  v.Set("basis", std::move(basis));
  json::Value budget;
  budget.Set("requested", release.epsilon_requested);
  budget.Set("spent", release.epsilon_spent);
  budget.Set("spent_total", release.epsilon_spent_total);
  budget.Set("remaining", EpsilonOrNull(release.epsilon_remaining));
  v.Set("budget", std::move(budget));
  return v;
}

Result<Release> ReleaseFromJson(const json::Value& value) {
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj,
                             value.GetObject());
  PRIVBASIS_RETURN_NOT_OK(CheckKeys(
      *obj,
      {"method", "itemsets", "rules", "lambda", "lambda2", "basis",
       "budget"},
      "release"));
  Release release;
  std::string method;
  PRIVBASIS_RETURN_NOT_OK(ReadString(value, "method", &method));
  if (method == "tf") {
    release.method = QueryMethod::kTruncatedFrequency;
  } else if (method != "pb" && !method.empty()) {
    return Status::InvalidArgument("\"method\": unknown value \"" + method +
                                   "\"");
  }
  if (const json::Value* itemsets = value.Find("itemsets")) {
    PRIVBASIS_ASSIGN_OR_RETURN(release.itemsets,
                               ReleaseItemsetsFromJson(*itemsets));
  }
  if (const json::Value* rules = value.Find("rules")) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* array,
                               rules->GetArray());
    release.rules.reserve(array->size());
    for (const json::Value& r : *array) {
      // Rules are as strict as itemsets: all four keys, nothing else
      // (a typoed "confidnce" must fail, not silently zero the field).
      PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* rule_obj,
                                 r.GetObject());
      PRIVBASIS_RETURN_NOT_OK(CheckKeys(
          *rule_obj, {"antecedent", "consequent", "support", "confidence"},
          "rule"));
      AssociationRule rule;
      const json::Value* antecedent = r.Find("antecedent");
      const json::Value* consequent = r.Find("consequent");
      if (antecedent == nullptr || consequent == nullptr ||
          r.Find("support") == nullptr || r.Find("confidence") == nullptr) {
        return Status::InvalidArgument(
            "rule requires antecedent, consequent, support, confidence");
      }
      PRIVBASIS_ASSIGN_OR_RETURN(rule.antecedent,
                                 ItemsetFromJson(*antecedent));
      PRIVBASIS_ASSIGN_OR_RETURN(rule.consequent,
                                 ItemsetFromJson(*consequent));
      PRIVBASIS_RETURN_NOT_OK(ReadDouble(r, "support", &rule.support));
      PRIVBASIS_RETURN_NOT_OK(ReadDouble(r, "confidence", &rule.confidence));
      release.rules.push_back(std::move(rule));
    }
  }
  PRIVBASIS_RETURN_NOT_OK(ReadUint(value, "lambda", &release.lambda));
  PRIVBASIS_RETURN_NOT_OK(ReadUint(value, "lambda2", &release.lambda2));
  if (const json::Value* basis = value.Find("basis")) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* array,
                               basis->GetArray());
    for (const json::Value& b : *array) {
      PRIVBASIS_ASSIGN_OR_RETURN(Itemset itemset, ItemsetFromJson(b));
      release.basis_set.Add(std::move(itemset));
    }
  }
  if (const json::Value* budget = value.Find("budget")) {
    PRIVBASIS_RETURN_NOT_OK(
        ReadDouble(*budget, "requested", &release.epsilon_requested));
    PRIVBASIS_RETURN_NOT_OK(
        ReadDouble(*budget, "spent", &release.epsilon_spent));
    PRIVBASIS_RETURN_NOT_OK(
        ReadDouble(*budget, "spent_total", &release.epsilon_spent_total));
    if (const json::Value* remaining = budget->Find("remaining")) {
      PRIVBASIS_ASSIGN_OR_RETURN(release.epsilon_remaining,
                                 EpsilonFromJson(*remaining));
    }
  }
  return release;
}

json::Value StatusToJson(const Status& status) {
  json::Value error;
  error.Set("code", StatusCodeToString(status.code()));
  error.Set("message", status.message());
  json::Value v;
  v.Set("error", std::move(error));
  return v;
}

json::Value StatsToJson(const StatsSnapshot& stats) {
  json::Value body;
  json::Value queries;
  queries.Set("admitted", stats.queries_admitted);
  queries.Set("shed_predicted", stats.queries_shed_predicted);
  queries.Set("shed_queue", stats.queries_shed_queue);
  queries.Set("cancelled", stats.queries_cancelled);
  queries.Set("completed", stats.queries_completed);
  body.Set("queries", std::move(queries));
  json::Value connections;
  connections.Set("accepted", stats.connections);
  connections.Set("shed", stats.connections_shed);
  body.Set("connections", std::move(connections));
  json::Value admission;
  admission.Set("slo_ms", stats.slo_ms);
  admission.Set("max_queue_depth", stats.max_queue_depth);
  admission.Set("queue_depth", stats.queue_depth);
  admission.Set("ns_per_unit", stats.ns_per_unit);
  admission.Set("recent_query_ms", stats.recent_query_ms);
  body.Set("admission", std::move(admission));
  json::Value batching;
  batching.Set("window_us", stats.batch_window_us);
  batching.Set("max", stats.batch_max);
  batching.Set("batches", stats.batches);
  batching.Set("batched_queries", stats.batched_queries);
  batching.Set("scans_saved", stats.scans_saved);
  body.Set("batching", std::move(batching));
  return body;
}

Result<StatsSnapshot> StatsFromJson(const json::Value& value) {
  StatsSnapshot stats;
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* obj,
                             value.GetObject());
  PRIVBASIS_RETURN_NOT_OK(CheckKeys(
      *obj, {"queries", "connections", "admission", "batching"},
      "stats"));
  if (const json::Value* queries = value.Find("queries")) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* q,
                               queries->GetObject());
    PRIVBASIS_RETURN_NOT_OK(CheckKeys(
        *q, {"admitted", "shed_predicted", "shed_queue", "cancelled",
             "completed"},
        "stats query"));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*queries, "admitted", &stats.queries_admitted));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*queries, "shed_predicted", &stats.queries_shed_predicted));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*queries, "shed_queue", &stats.queries_shed_queue));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*queries, "cancelled", &stats.queries_cancelled));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*queries, "completed", &stats.queries_completed));
  }
  if (const json::Value* connections = value.Find("connections")) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* c,
                               connections->GetObject());
    PRIVBASIS_RETURN_NOT_OK(
        CheckKeys(*c, {"accepted", "shed"}, "stats connection"));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*connections, "accepted", &stats.connections));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*connections, "shed", &stats.connections_shed));
  }
  if (const json::Value* admission = value.Find("admission")) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* a,
                               admission->GetObject());
    PRIVBASIS_RETURN_NOT_OK(CheckKeys(
        *a,
        {"slo_ms", "max_queue_depth", "queue_depth", "ns_per_unit",
         "recent_query_ms"},
        "stats admission"));
    uint64_t slo_ms = 0;
    PRIVBASIS_RETURN_NOT_OK(ReadUint(*admission, "slo_ms", &slo_ms));
    stats.slo_ms = static_cast<int64_t>(slo_ms);
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*admission, "max_queue_depth", &stats.max_queue_depth));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*admission, "queue_depth", &stats.queue_depth));
    PRIVBASIS_RETURN_NOT_OK(
        ReadDouble(*admission, "ns_per_unit", &stats.ns_per_unit));
    PRIVBASIS_RETURN_NOT_OK(
        ReadDouble(*admission, "recent_query_ms", &stats.recent_query_ms));
  }
  if (const json::Value* batching = value.Find("batching")) {
    PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Object* b,
                               batching->GetObject());
    PRIVBASIS_RETURN_NOT_OK(CheckKeys(
        *b, {"window_us", "max", "batches", "batched_queries", "scans_saved"},
        "stats batching"));
    uint64_t window_us = 0;
    PRIVBASIS_RETURN_NOT_OK(ReadUint(*batching, "window_us", &window_us));
    stats.batch_window_us = static_cast<int64_t>(window_us);
    PRIVBASIS_RETURN_NOT_OK(ReadUint(*batching, "max", &stats.batch_max));
    PRIVBASIS_RETURN_NOT_OK(ReadUint(*batching, "batches", &stats.batches));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*batching, "batched_queries", &stats.batched_queries));
    PRIVBASIS_RETURN_NOT_OK(
        ReadUint(*batching, "scans_saved", &stats.scans_saved));
  }
  return stats;
}

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    // A refused reservation is "payment required" in spirit; 429 is the
    // standard spelling clients retry-budget against.
    case StatusCode::kBudgetExhausted:
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
      return 500;
    // Recovering-after-restart refusal: retryable once ledger replay
    // finishes, so the standard "try again later" code.
    case StatusCode::kUnavailable:
      return 503;
    // A query whose deadline expired mid-run (or whose client-armed
    // token fired): the request timed out from the client's view.
    case StatusCode::kCancelled:
      return 408;
  }
  return 500;
}

}  // namespace privbasis::server
