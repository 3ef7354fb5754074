// QueryServer: the multi-threaded HTTP/1.1 JSON front end over
// Engine::Run — the service boundary that turns the library into a
// deployable query endpoint.
//
// Routes (all JSON; error bodies are {"error": {code, message}}):
//   POST   /v1/query                 QuerySpec mirror (+ "dataset" id)
//                                    → Release JSON
//   POST   /v1/datasets              register path / inline transactions
//                                    / synthetic profile → {"dataset": id}
//   GET    /v1/datasets/:id/budget   Accountant ledger readback
//   DELETE /v1/datasets/:id          evict (in-flight queries unaffected)
//   GET    /v1/stats                 admission/overload counters + the
//                                    cost model's live calibration
//   GET    /healthz                  liveness + dataset count
//
// Per-request contract (tests/server_test.cc pins these down):
//   * Bounded work: body size ≤ max_body_bytes (413 otherwise), headers
//     ≤ 16 KiB (431), one wall-clock deadline bounds reading the
//     request (408 on mid-read expiry); the response write gets its own
//     equal grace, so a slow-but-successful query whose ε was already
//     committed is never dropped mid-write.
//   * Predictable failure: malformed JSON / unknown keys / invalid spec
//     → 400 with the validator's message; unknown dataset → 404; an
//     Accountant refusal → 429 with the ledger untouched (the refusal
//     happens before any noise is drawn, exactly as in-process).
//   * Served == in-process: a query answered over HTTP is bit-identical
//     to Engine::Run with the same dataset, spec, and seed — the wire
//     layer round-trips doubles losslessly and the server adds no
//     hidden state.
//   * Overload-safe: with admission configured (server/admission.h), a
//     query whose predicted latency blows the SLO or whose arrival
//     finds the worker queue full is refused IMMEDIATELY — 429 with
//     Retry-After and the predicted cost, ε ledger untouched — instead
//     of timing out after consuming a worker. Admitted queries carry a
//     deadline ("deadline_ms" envelope key, capped by
//     request_deadline_ms) propagated as a cooperative cancel token
//     into every mechanism scan: mid-scan expiry unwinds within one
//     scan chunk, answers 408, and charges the full reservation
//     (fail-closed, engine/accountant.h).
//
// Concurrency: ONE epoll event-loop thread (server/event_loop.h) owns
// every connection fd — accepts, incremental reads, response flushes,
// and all per-connection timers. Only a COMPLETE parsed request is
// handed to the worker ThreadPool, so a parked keep-alive client (or a
// slow-writing one) costs a file descriptor, never a worker — the
// thread-per-connection model this replaced let an idle-client storm
// starve real queries out of the pool. Engine::Run inside a worker fans
// out over the global counting pool as usual. Budget integrity under
// contention is the Accountant's reserve/commit protocol — the server
// adds nothing and therefore can't break it (the 16-client hammer test
// checks ε conservation end to end).
//
// Query batching (core/batch_exec.h): with a batch window configured
// (--batch-window-us / PRIVBASIS_BATCH_WINDOW_US), concurrent admitted
// queries against the SAME dataset share their counting scans — each
// dataset's executor is wrapped in a BatchingCountExecutor whose fused
// scans merge exact counts before any noise draw, so every release
// stays bit-identical to its unbatched run at the same seed. ε is
// reserved and committed per query, never per batch.
#ifndef PRIVBASIS_SERVER_SERVER_H_
#define PRIVBASIS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/annotations.h"
#include "common/net.h"
#include "common/thread_pool.h"
#include "core/batch_exec.h"
#include "server/admission.h"
#include "server/dataset_registry.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "store/state_store.h"

namespace privbasis::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  uint16_t port = 0;
  /// Connection-handler threads; 0 = the PRIVBASIS_THREADS env knob.
  size_t num_threads = 0;
  /// Wall-clock budget for reading one request (and, separately, for
  /// writing its response).
  int64_t request_deadline_ms = 30'000;
  size_t max_body_bytes = 1024 * 1024;
  /// Requests served per keep-alive connection before Connection: close.
  size_t max_requests_per_connection = 1024;
  DatasetRegistry::Limits registry_limits;
  /// Durable state directory (store/state_store.h). Empty = ephemeral:
  /// no WAL, no snapshots, everything is lost on exit — the pre-existing
  /// behavior. Non-empty: the budget ledger and registered datasets
  /// survive kill -9; every route answers 503 until boot-time ledger
  /// replay finishes.
  std::string state_dir;
  /// When ledger writes reach disk (only meaningful with a state_dir).
  store::FsyncMode fsync_mode = store::FsyncMode::kCommit;
  /// Overload policy (server/admission.h): cost-model SLO shedding and
  /// the bounded accept queue. Defaults keep both off — the
  /// pre-existing unbounded behavior.
  AdmissionOptions admission;
  /// Same-dataset query batching (core/batch_exec.h): how long a batch
  /// leader waits for co-riders, in microseconds. 0 disables batching;
  /// −1 (the default) reads the PRIVBASIS_BATCH_WINDOW_US env knob
  /// (default 0 = off). Batching never changes results — fused scans
  /// merge exact counts before any noise draw.
  int64_t batch_window_us = -1;
  /// Queries per fused scan. 0 (the default) reads PRIVBASIS_MAX_BATCH
  /// (default 8); 1 disables batching.
  size_t max_batch = 0;
};

class QueryServer {
 public:
  explicit QueryServer(ServerOptions options = {});
  /// Stops if still running.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept thread + worker pool. With a
  /// state_dir, recovery (WAL replay + snapshot reload) proceeds on a
  /// background thread while the socket already accepts — clients get
  /// 503 until WaitUntilReady() would return, never connection refused
  /// followed by an answer from an unreplayed ledger.
  Status Start();

  /// Blocks until recovery finishes (immediately when no state_dir).
  /// Returns the recovery status: after a failure the server stays up
  /// but refuses every route with 503 — an unverifiable ledger must not
  /// serve, and silently serving fresh-and-empty would be worse.
  Status WaitUntilReady();

  /// Stops accepting, waits for in-flight requests (bounded by their
  /// deadlines), and joins all threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Datasets can be pre-registered in process (tests, the server
  /// binary's --preload) or via POST /v1/datasets.
  DatasetRegistry& registry() { return registry_; }

  /// Monotone counters for smoke checks, /healthz, and /v1/stats.
  struct Counters {
    uint64_t connections = 0;
    uint64_t connections_shed = 0;  ///< requests shed 503 (queue full)
    uint64_t requests = 0;
    uint64_t queries_ok = 0;
    uint64_t queries_rejected = 0;  ///< non-2xx /v1/query responses
    // Admission breakdown (queries only; each query lands in exactly
    // one of admitted/shed_*, and every admitted query eventually lands
    // in completed or cancelled or counts as an engine rejection):
    uint64_t queries_admitted = 0;
    uint64_t queries_shed_predicted = 0;  ///< 429: predicted cost > SLO
    uint64_t queries_shed_queue = 0;      ///< 429: worker queue full
    uint64_t queries_cancelled = 0;       ///< 408: deadline fired mid-run
    uint64_t queries_completed = 0;       ///< 200 after admission
  };
  Counters counters() const;

  /// The admission controller (cost model calibration is readable for
  /// tests and /v1/stats).
  const AdmissionController& admission() const { return admission_; }

 private:
  enum class RecoveryState { kReady, kRecovering, kFailed };

  void RecoverState();
  /// Event-loop dispatch hook (loop thread): counts the request and
  /// hands Route() to the worker pool — or sheds with a 503 when the
  /// bounded queue is full. The response returns to the loop via
  /// CompleteRequest.
  void DispatchRequest(uint64_t conn_id, HttpRequest request);
  /// Renders the 400/408/413/431 for a protocol-level read failure —
  /// the same bodies the pre-event-loop per-request contract produced.
  HttpResponse ProtocolErrorResponse(HttpReadOutcome outcome) const;
  /// Pure request → response routing (no socket I/O), so tests can cover
  /// the routing table without a live connection if needed.
  HttpResponse Route(const HttpRequest& request);

  /// Registry attach hook (installed only when batching is on): wraps
  /// the dataset's direct executor in a BatchingCountExecutor that
  /// fuses pairs on the dataset's index (built here).
  Status AttachBatcher(const std::string& id,
                       const std::shared_ptr<Dataset>& dataset);
  /// True once Start() resolved the batching knobs to an active config.
  bool BatchingEnabled() const {
    return batch_window_us_ > 0 && max_batch_ > 1;
  }

  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleRegisterDataset(const HttpRequest& request);
  HttpResponse HandleBudget(const std::string& id);
  HttpResponse HandleEvict(const std::string& id);
  HttpResponse HandleHealth();
  HttpResponse HandleStats();

  ServerOptions options_;
  AdmissionController admission_;
  DatasetRegistry registry_;
  net::Fd listen_fd_;
  uint16_t port_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<EventLoop> loop_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Batching knobs resolved against the env at Start().
  int64_t batch_window_us_ = 0;
  size_t max_batch_ = 8;
  std::shared_ptr<BatchStats> batch_stats_;
  /// Per-dataset batchers so HandleQuery can bracket Engine::Run with
  /// BeginQuery/EndQuery (the live in-flight signal that sizes rounds).
  mutable Mutex batchers_mu_;
  std::map<std::string, std::shared_ptr<BatchingCountExecutor>> batchers_
      PB_GUARDED_BY(batchers_mu_);

  std::unique_ptr<store::StateStore> store_;
  std::thread recovery_thread_;
  std::atomic<RecoveryState> recovery_state_{RecoveryState::kReady};
  Mutex recovery_mu_;
  CondVar recovery_cv_;
  Status recovery_error_ PB_GUARDED_BY(recovery_mu_);

  mutable Mutex mu_;
  Counters counters_ PB_GUARDED_BY(mu_);
};

/// Body for a non-2xx response from `status` (wire's error JSON).
HttpResponse ErrorResponse(const Status& status);

}  // namespace privbasis::server

#endif  // PRIVBASIS_SERVER_SERVER_H_
