#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <limits>
#include <utility>

#include "common/cancel.h"
#include "common/env.h"
#include "common/failpoint.h"
#include "engine/accountant.h"
#include "engine/engine.h"
#include "server/wire.h"

namespace privbasis::server {

namespace {

/// "/v1/datasets/ds-3/budget" → {"ds-3", "budget"}; empty id = no match.
struct DatasetPath {
  std::string id;
  std::string tail;  // after the id, without the leading '/'
};

DatasetPath ParseDatasetPath(const std::string& target) {
  static constexpr std::string_view kPrefix = "/v1/datasets/";
  DatasetPath out;
  if (!target.starts_with(kPrefix)) return out;
  const std::string rest = target.substr(kPrefix.size());
  const size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    out.id = rest;
  } else {
    out.id = rest.substr(0, slash);
    out.tail = rest.substr(slash + 1);
  }
  return out;
}

HttpResponse JsonResponse(int status, const json::Value& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump();
  return response;
}

/// Attaches a Retry-After header — only for refusals that time heals
/// (recovering 503s, queue/registry pressure 429s). Budget-exhausted
/// 429s never get one: spent ε does not come back.
HttpResponse WithRetryAfter(HttpResponse response, int64_t seconds) {
  response.headers.emplace_back("Retry-After", std::to_string(seconds));
  return response;
}

}  // namespace

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusForCode(status.code()),
                      StatusToJson(status));
}

QueryServer::QueryServer(ServerOptions options)
    : options_(std::move(options)),
      admission_(options_.admission),
      registry_(options_.registry_limits) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  PRIVBASIS_ASSIGN_OR_RETURN(listen_fd_,
                             net::ListenTcp(options_.host, options_.port));
  PRIVBASIS_ASSIGN_OR_RETURN(port_, net::LocalPort(listen_fd_));
  // Request handlers may block on Engine::Run, so they get their own
  // pool (not the global counting pool); Submit needs ≥ 1 worker.
  pool_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, EffectiveThreads(options_.num_threads)));
  stopping_.store(false, std::memory_order_release);
  batch_window_us_ = options_.batch_window_us >= 0
                         ? options_.batch_window_us
                         : GetEnvInt("PRIVBASIS_BATCH_WINDOW_US", 0);
  max_batch_ = options_.max_batch != 0
                   ? options_.max_batch
                   : static_cast<size_t>(std::max<int64_t>(
                         1, GetEnvInt("PRIVBASIS_MAX_BATCH", 8)));
  // The hook goes in before anything can register (recovery included),
  // so every dataset becoming findable gets its batcher.
  if (BatchingEnabled()) {
    batch_stats_ = std::make_shared<BatchStats>();
    registry_.SetAttachHook(
        [this](const std::string& id,
               const std::shared_ptr<Dataset>& dataset) {
          return AttachBatcher(id, dataset);
        });
  }
  // Recovery runs behind the already-listening socket: a restarting
  // server is reachable immediately (503, retryable) instead of
  // connection-refused, and no route can touch the registry before the
  // ledger replay has finished.
  if (!options_.state_dir.empty()) {
    recovery_state_.store(RecoveryState::kRecovering,
                          std::memory_order_release);
    recovery_thread_ = std::thread([this] { RecoverState(); });
  }
  EventLoop::Options loop_options;
  loop_options.limits = HttpLimits{.max_body_bytes = options_.max_body_bytes};
  loop_options.request_deadline_ms = options_.request_deadline_ms;
  loop_options.max_requests_per_connection =
      options_.max_requests_per_connection;
  EventLoop::Hooks hooks;
  hooks.dispatch = [this](uint64_t conn_id, HttpRequest request) {
    DispatchRequest(conn_id, std::move(request));
  };
  hooks.on_connection = [this] {
    MutexLock lock(mu_);
    ++counters_.connections;
  };
  hooks.error_response = [this](HttpReadOutcome outcome) {
    return ProtocolErrorResponse(outcome);
  };
  loop_ = std::make_unique<EventLoop>(std::move(loop_options),
                                      std::move(hooks));
  if (Status up = loop_->Start(std::move(listen_fd_)); !up.ok()) {
    loop_.reset();
    pool_.reset();
    return up;
  }
  started_ = true;
  return Status::OK();
}

void QueryServer::RecoverState() {
  // Lets the fault-injection tests hold the server in its 503 window
  // (sleep action) or kill it mid-recovery (crash action).
  (void)failpoint::Hit("recovery_start");
  Status status = [&]() -> Status {
    PRIVBASIS_ASSIGN_OR_RETURN(
        store_,
        store::StateStore::Open(options_.state_dir, options_.fsync_mode));
    PRIVBASIS_ASSIGN_OR_RETURN(auto recovered, store_->RecoverDatasets());
    registry_.SetNextId(store_->next_id());
    for (auto& entry : recovered) {
      PRIVBASIS_RETURN_NOT_OK(registry_.RegisterRecovered(
          entry.id, std::move(entry.dataset)));
    }
    // From here on, nothing becomes registered without first being
    // persisted + journal-bound (the hook runs before the registry map
    // insert). No wire registration can have raced us: every route was
    // still answering 503.
    registry_.SetRegisterHook(
        [this](const std::string& id,
               const std::shared_ptr<Dataset>& dataset) {
          return store_->PersistRegistration(id, dataset);
        });
    return Status::OK();
  }();
  {
    MutexLock lock(recovery_mu_);
    recovery_error_ = status;
    recovery_state_.store(status.ok() ? RecoveryState::kReady
                                      : RecoveryState::kFailed,
                          std::memory_order_release);
  }
  recovery_cv_.NotifyAll();
}

Status QueryServer::WaitUntilReady() {
  MutexLock lock(recovery_mu_);
  while (recovery_state_.load(std::memory_order_acquire) ==
         RecoveryState::kRecovering) {
    recovery_cv_.Wait(recovery_mu_);
  }
  return recovery_error_;
}

void QueryServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  if (recovery_thread_.joinable()) recovery_thread_.join();
  // Ordering matters: stop accepting first (frees the port, closes idle
  // connections), then join the pool — its destructor runs every queued
  // task, so each dispatched request still produces its CompleteRequest
  // — and only then flush + close the remaining connections.
  if (loop_ != nullptr) loop_->RequestStop();
  pool_.reset();
  if (loop_ != nullptr) {
    loop_->Join();
    loop_.reset();
  }
  started_ = false;
}

QueryServer::Counters QueryServer::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void QueryServer::DispatchRequest(uint64_t conn_id, HttpRequest request) {
  {
    MutexLock lock(mu_);
    ++counters_.requests;
  }
  auto task = [this, conn_id, request = std::move(request)]() mutable {
    HttpResponse response = Route(request);
    // Client-requested close; the loop adds its own reasons (served
    // count, shutdown) on top.
    response.close_connection =
        response.close_connection || !request.KeepAlive();
    loop_->CompleteRequest(conn_id, std::move(response));
  };
  const size_t max_depth = options_.admission.max_queue_depth;
  if (max_depth == 0) {
    pool_->Submit(std::move(task));
    return;
  }
  if (!pool_->TrySubmit(std::move(task), max_depth)) {
    // Bounded-queue shed: the request would only have waited its
    // deadline out behind max_depth others. Tell the client to come
    // back — the loop writes the tiny 503 without ever blocking a
    // worker, and closes afterwards.
    size_t queue_depth;
    {
      MutexLock lock(mu_);
      ++counters_.connections_shed;
      queue_depth = pool_->QueueDepth();
    }
    HttpResponse shed = ErrorResponse(Status::Unavailable(
        "server at capacity (" + std::to_string(max_depth) +
        " requests queued); retry shortly"));
    shed = WithRetryAfter(std::move(shed),
                          admission_.RetryAfterSeconds(queue_depth));
    shed.close_connection = true;
    loop_->CompleteRequest(conn_id, std::move(shed));
  }
}

HttpResponse QueryServer::ProtocolErrorResponse(HttpReadOutcome outcome) const {
  HttpResponse response;
  switch (outcome) {
    case HttpReadOutcome::kTimeout:
      response = ErrorResponse(Status::ResourceExhausted(
          "request deadline (" +
          std::to_string(options_.request_deadline_ms) + " ms) exceeded"));
      response.status = 408;
      break;
    case HttpReadOutcome::kHeaderTooLarge:
      response = ErrorResponse(
          Status::ResourceExhausted("request headers exceed 16 KiB"));
      response.status = 431;
      break;
    case HttpReadOutcome::kBodyTooLarge:
      response = ErrorResponse(Status::ResourceExhausted(
          "request body exceeds " +
          std::to_string(options_.max_body_bytes) + " bytes"));
      response.status = 413;
      break;
    case HttpReadOutcome::kMalformed:
      response =
          ErrorResponse(Status::InvalidArgument("malformed HTTP request"));
      break;
  }
  return response;
}

HttpResponse QueryServer::Route(const HttpRequest& request) {
  // No route — health checks included — answers before the ledger
  // replay is done: a response computed from an unreplayed registry
  // could spend ε a previous life already spent. 503 = retryable.
  switch (recovery_state_.load(std::memory_order_acquire)) {
    case RecoveryState::kReady:
      break;
    case RecoveryState::kRecovering: {
      // Recovering is the refusal time heals — tell clients when to
      // come back (WAL replay is typically sub-second).
      if (request.target == "/healthz") {
        json::Value body;
        body.Set("status", "recovering");
        return WithRetryAfter(JsonResponse(503, body), 1);
      }
      return WithRetryAfter(
          ErrorResponse(Status::Unavailable(
              "state recovery in progress; retry shortly")),
          1);
    }
    case RecoveryState::kFailed: {
      // Permanently 503 rather than serving a ledger we could not
      // verify (or, worse, a silently fresh one).
      MutexLock lock(recovery_mu_);
      return ErrorResponse(Status::Unavailable(
          "state recovery failed: " + recovery_error_.ToString()));
    }
  }
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      HttpResponse r = ErrorResponse(
          Status::InvalidArgument("use GET /healthz"));
      r.status = 405;
      return r;
    }
    return HandleHealth();
  }
  if (request.target == "/v1/stats") {
    if (request.method != "GET") {
      HttpResponse r = ErrorResponse(
          Status::InvalidArgument("use GET /v1/stats"));
      r.status = 405;
      return r;
    }
    return HandleStats();
  }
  if (request.target == "/v1/query") {
    if (request.method != "POST") {
      HttpResponse r = ErrorResponse(
          Status::InvalidArgument("use POST /v1/query"));
      r.status = 405;
      return r;
    }
    return HandleQuery(request);
  }
  if (request.target == "/v1/datasets") {
    if (request.method != "POST") {
      HttpResponse r = ErrorResponse(
          Status::InvalidArgument("use POST /v1/datasets"));
      r.status = 405;
      return r;
    }
    return HandleRegisterDataset(request);
  }
  const DatasetPath path = ParseDatasetPath(request.target);
  if (!path.id.empty()) {
    // Known path shapes get a real 405 on a verb mismatch so a client
    // can distinguish "wrong method" from "unknown dataset" (404).
    if (path.tail == "budget") {
      if (request.method != "GET") {
        HttpResponse r = ErrorResponse(Status::InvalidArgument(
            "use GET /v1/datasets/:id/budget"));
        r.status = 405;
        return r;
      }
      return HandleBudget(path.id);
    }
    if (path.tail.empty()) {
      if (request.method != "DELETE") {
        HttpResponse r = ErrorResponse(
            Status::InvalidArgument("use DELETE /v1/datasets/:id"));
        r.status = 405;
        return r;
      }
      return HandleEvict(path.id);
    }
  }
  return ErrorResponse(
      Status::NotFound("no route for " + request.method + " " +
                       request.target));
}

Status QueryServer::AttachBatcher(const std::string& id,
                                  const std::shared_ptr<Dataset>& dataset) {
  // Wrap the direct scan so same-dataset queries can share scans.
  // Fused counts merge exactly before any noise draw, so attaching the
  // batcher never changes a release bit. Its fused pair round reads the
  // dataset's index, which is built here, at attach.
  auto batcher = std::make_shared<BatchingCountExecutor>(
      dataset->EnsureCountExecutor(), dataset->Index(),
      dataset->options().num_threads,
      BatchingCountExecutor::Options{.window_us = batch_window_us_,
                                     .max_batch = max_batch_},
      batch_stats_);
  dataset->AttachCountExecutor(batcher);
  MutexLock lock(batchers_mu_);
  batchers_[id] = std::move(batcher);
  return Status::OK();
}

HttpResponse QueryServer::HandleQuery(const HttpRequest& request) {
  auto finish = [this](HttpResponse response) {
    MutexLock lock(mu_);
    if (response.status / 100 == 2) {
      ++counters_.queries_ok;
    } else {
      ++counters_.queries_rejected;
    }
    return response;
  };

  auto parsed = json::Parse(request.body);
  if (!parsed.ok()) return finish(ErrorResponse(parsed.status()));
  const json::Value* dataset_id = parsed->Find("dataset");
  if (dataset_id == nullptr) {
    return finish(ErrorResponse(Status::InvalidArgument(
        "\"dataset\" (a registered handle id) is required")));
  }
  auto id = dataset_id->GetString();
  if (!id.ok()) return finish(ErrorResponse(id.status()));
  auto spec = QuerySpecFromJson(*parsed);
  if (!spec.ok()) return finish(ErrorResponse(spec.status()));

  // Client deadline ("deadline_ms" envelope key), capped by the
  // server's own per-request budget: no query may outlive the window
  // its response could still be written in.
  int64_t deadline_ms = options_.request_deadline_ms;
  if (const json::Value* v = parsed->Find("deadline_ms")) {
    auto client_ms = v->GetUint();
    if (!client_ms.ok()) {
      return finish(ErrorResponse(Status::InvalidArgument(
          std::string("\"deadline_ms\": ") +
          std::string(client_ms.status().message()))));
    }
    if (*client_ms > 0 &&
        *client_ms < static_cast<uint64_t>(deadline_ms)) {
      deadline_ms = static_cast<int64_t>(*client_ms);
    }
  }

  std::shared_ptr<Dataset> dataset = registry_.Find(*id);
  if (dataset == nullptr) {
    return finish(ErrorResponse(
        Status::NotFound("unknown dataset \"" + *id + "\"")));
  }

  // Admission: pure arithmetic over the memoized dataset statistics —
  // a shed here has reserved nothing, drawn no noise, and left the
  // ε ledger untouched. The refusal arrives in milliseconds instead of
  // the 408 the client would otherwise wait a whole deadline for.
  const double work_units = CostModel::WorkUnits(dataset->Stats(), *spec);
  const AdmissionDecision decision =
      admission_.Decide(work_units, pool_->QueueDepth());
  if (!decision.admit) {
    const bool queue_full = decision.reason == ShedReason::kQueueFull;
    {
      MutexLock lock(mu_);
      if (queue_full) {
        ++counters_.queries_shed_queue;
      } else {
        ++counters_.queries_shed_predicted;
      }
    }
    Status refused = Status::ResourceExhausted(
        queue_full
            ? "server overloaded: worker queue at capacity; retry after " +
                  std::to_string(decision.retry_after_s) + " s"
            : "query refused: predicted latency " +
                  std::to_string(decision.predicted_ms) + " ms exceeds the " +
                  std::to_string(options_.admission.slo_ms) + " ms SLO");
    json::Value body = StatusToJson(refused);
    body.Set("predicted_ms", decision.predicted_ms);
    body.Set("slo_ms", options_.admission.slo_ms);
    return finish(WithRetryAfter(JsonResponse(429, body),
                                 decision.retry_after_s));
  }
  {
    MutexLock lock(mu_);
    ++counters_.queries_admitted;
  }

  // Batching bracket: while this query runs, same-dataset co-arrivals
  // may share counting scans with it (core/batch_exec.h). The in-flight
  // count BeginQuery bumps is what sizes batch rounds; the window hint
  // keeps cheap queries from waiting a full window for co-riders that
  // would barely help them.
  std::shared_ptr<BatchingCountExecutor> batcher;
  if (BatchingEnabled()) {
    MutexLock lock(batchers_mu_);
    auto it = batchers_.find(*id);
    if (it != batchers_.end()) batcher = it->second;
  }
  if (batcher != nullptr) {
    int64_t hint_us = batch_window_us_;
    if (decision.predicted_ms > 0 && pool_->QueueDepth() == 0) {
      // Bound the wait to a small fraction of the predicted runtime.
      hint_us = std::clamp<int64_t>(
          static_cast<int64_t>(decision.predicted_ms * 1000.0 / 16.0),
          int64_t{50}, batch_window_us_);
    }
    batcher->BeginQuery(hint_us);
  }
  struct BatchScope {
    std::shared_ptr<BatchingCountExecutor> b;
    ~BatchScope() {
      if (b != nullptr) b->EndQuery();
    }
  } batch_scope{batcher};

  // The full in-process path: central validation, budget reservation
  // (429 before any noise on overdraft), mechanism, ledger commit. The
  // deadline rides along as a cooperative cancel token: mid-scan expiry
  // unwinds within one scan chunk, frees this worker, and charges the
  // full reservation (fail-closed — noise may have been observed).
  const CancelToken token = CancelToken::AfterMs(deadline_ms);
  spec->cancel = &token;
  const auto started = std::chrono::steady_clock::now();
  auto release = Engine::Run(dataset, *spec);
  if (!release.ok()) {
    if (release.status().code() == StatusCode::kCancelled) {
      MutexLock lock(mu_);
      ++counters_.queries_cancelled;
    }
    return finish(ErrorResponse(release.status()));
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  // Every completed query tightens the cost model's ns-per-unit scale.
  admission_.model().Observe(work_units, elapsed_ms);
  {
    MutexLock lock(mu_);
    ++counters_.queries_completed;
  }
  return finish(JsonResponse(200, ReleaseToJson(*release)));
}

HttpResponse QueryServer::HandleRegisterDataset(const HttpRequest& request) {
  auto parsed = json::Parse(request.body);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  auto registered = registry_.RegisterFromJson(*parsed);
  if (!registered.ok()) {
    HttpResponse response = ErrorResponse(registered.status());
    // Registry-full is retryable (after an evict) — unlike a budget
    // 429, where waiting buys nothing.
    if (registered.status().code() == StatusCode::kResourceExhausted) {
      response = WithRetryAfter(std::move(response), 5);
    }
    return response;
  }
  // Use the returned handle, never a re-lookup: a concurrent DELETE of
  // the fresh id must not null this out under us.
  const std::shared_ptr<Dataset>& dataset = registered->dataset;
  json::Value body;
  body.Set("dataset", registered->id);
  body.Set("num_transactions", dataset->db().NumTransactions());
  body.Set("universe_size", dataset->db().UniverseSize());
  json::Value budget;
  const Accountant& accountant = *dataset->accountant();
  budget.Set("total", accountant.total_epsilon() ==
                              std::numeric_limits<double>::infinity()
                          ? json::Value(nullptr)
                          : json::Value(accountant.total_epsilon()));
  body.Set("budget", std::move(budget));
  return JsonResponse(201, body);
}

HttpResponse QueryServer::HandleBudget(const std::string& id) {
  const std::shared_ptr<Dataset> dataset = registry_.Find(id);
  if (dataset == nullptr) {
    return ErrorResponse(Status::NotFound("unknown dataset \"" + id + "\""));
  }
  const Accountant& accountant = *dataset->accountant();
  json::Value body;
  const double total = accountant.total_epsilon();
  body.Set("total", std::isfinite(total) ? json::Value(total)
                                         : json::Value(nullptr));
  body.Set("spent", accountant.spent_epsilon());
  body.Set("reserved", accountant.reserved_epsilon());
  const double remaining = accountant.remaining_epsilon();
  body.Set("remaining", std::isfinite(remaining)
                            ? json::Value(remaining)
                            : json::Value(nullptr));
  json::Value::Array ledger;
  for (const auto& entry : accountant.ledger()) {
    json::Value e;
    e.Set("label", entry.label);
    e.Set("epsilon", entry.epsilon);
    ledger.emplace_back(std::move(e));
  }
  body.Set("ledger", std::move(ledger));
  return JsonResponse(200, body);
}

HttpResponse QueryServer::HandleEvict(const std::string& id) {
  if (registry_.Find(id) == nullptr) {
    return ErrorResponse(Status::NotFound("unknown dataset \"" + id + "\""));
  }
  // Durably forget BEFORE the registry does: if the manifest rewrite
  // fails the dataset stays registered (500, retryable) — the bad
  // outcome would be a dataset the operator saw deleted coming back on
  // restart with its budget ledger still live.
  if (store_ != nullptr) {
    if (Status persisted = store_->PersistEviction(id); !persisted.ok()) {
      return ErrorResponse(persisted);
    }
  }
  if (!registry_.Remove(id)) {
    return ErrorResponse(Status::NotFound("unknown dataset \"" + id + "\""));
  }
  {
    // In-flight queries on the evicted dataset keep their batcher alive
    // through their own shared_ptr brackets.
    MutexLock lock(batchers_mu_);
    batchers_.erase(id);
  }
  HttpResponse response;
  response.status = 204;
  return response;
}

HttpResponse QueryServer::HandleStats() {
  const Counters counters = this->counters();
  StatsSnapshot stats;
  stats.queries_admitted = counters.queries_admitted;
  stats.queries_shed_predicted = counters.queries_shed_predicted;
  stats.queries_shed_queue = counters.queries_shed_queue;
  stats.queries_cancelled = counters.queries_cancelled;
  stats.queries_completed = counters.queries_completed;
  stats.connections = counters.connections;
  stats.connections_shed = counters.connections_shed;
  stats.slo_ms = options_.admission.slo_ms;
  stats.max_queue_depth = options_.admission.max_queue_depth;
  stats.queue_depth = pool_ != nullptr ? pool_->QueueDepth() : 0;
  stats.ns_per_unit = admission_.model().ns_per_unit();
  stats.recent_query_ms = admission_.model().recent_query_ms();
  stats.batch_window_us = batch_window_us_;
  stats.batch_max = BatchingEnabled() ? max_batch_ : 0;
  if (batch_stats_ != nullptr) {
    stats.batches = batch_stats_->batches.load(std::memory_order_relaxed);
    stats.batched_queries =
        batch_stats_->batched_queries.load(std::memory_order_relaxed);
    stats.scans_saved =
        batch_stats_->scans_saved.load(std::memory_order_relaxed);
  }
  return JsonResponse(200, StatsToJson(stats));
}

HttpResponse QueryServer::HandleHealth() {
  const Counters counters = this->counters();
  json::Value body;
  body.Set("status", "ok");
  body.Set("datasets", registry_.size());
  body.Set("connections", counters.connections);
  body.Set("requests", counters.requests);
  body.Set("queries_ok", counters.queries_ok);
  body.Set("queries_rejected", counters.queries_rejected);
  return JsonResponse(200, body);
}

}  // namespace privbasis::server
