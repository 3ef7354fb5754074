// Cost-model admission control for the query server: predict each
// query's work BEFORE running it and refuse — immediately, cheaply, and
// without touching the ε ledger — the requests that would blow the
// latency objective or find the worker queue already full.
//
// Why a cost model and not just a queue bound: the mechanisms' cost
// spread is enormous (a k=5 query on a 6-transaction inline dataset vs
// k=400 with pair counting on kosarak differ by ~5 orders of
// magnitude), so a depth-only bound either sheds cheap queries that
// would have met their deadline or admits expensive ones that time out
// after consuming a worker for the full SLO. Predicting work from the
// spec plus the dataset's memoized statistics (both available in
// microseconds — Dataset::Stats() is cached) lets the server refuse
// exactly the requests it could not serve in time, with a 429 the
// client gets in milliseconds instead of a 408 it waits the whole
// deadline for.
//
// The model is deliberately coarse: per-mechanism work-unit formulas
// over (N, Σ|t|, |I|, k, m, sampling rate) capture the *relative* cost
// ordering, and an EWMA of observed ns-per-unit from completed queries
// calibrates the absolute scale at runtime. The default scale is seeded
// from the tracked bench trajectory (bench/trajectory/
// BENCH_baseline.json: engine_query_warm on the kosarak profile) so the
// very first prediction is the right order of magnitude; every
// completed query then tightens it. Predictions are conservative by
// design — an admitted query that runs long is bounded by deadline
// cancellation (engine/query.h cancel token), so admission errs toward
// admitting.
//
// ε safety: admission runs before QuerySpec validation even reserves
// budget — a shed query has charged nothing, drawn no noise, and can be
// retried verbatim. The decision is pure arithmetic on public
// statistics plus the spec, so it leaks nothing the release would not.
#ifndef PRIVBASIS_SERVER_ADMISSION_H_
#define PRIVBASIS_SERVER_ADMISSION_H_

#include <cstdint>

#include "common/annotations.h"
#include "data/dataset_stats.h"
#include "engine/query.h"

namespace privbasis::server {

/// Server-operator knobs (tools/privbasis_server.cc: --slo-ms,
/// --max-queue).
struct AdmissionOptions {
  /// Latency objective for one admitted query, in ms. A query whose
  /// predicted latency exceeds this is shed with 429 before any work.
  /// 0 disables cost-model shedding (queue-depth shedding remains).
  int64_t slo_ms = 0;
  /// Maximum pending (dispatched but not yet running) requests in the
  /// worker pool before new requests are shed with 503. 0 = unbounded.
  size_t max_queue_depth = 0;
};

/// Why a request was (or was not) admitted.
enum class ShedReason {
  kNone,           ///< admitted
  kPredictedCost,  ///< predicted latency exceeds the SLO → 429
  /// Worker queue at max_queue_depth. A request dispatched to the full
  /// queue is shed (503); once a query holds a worker, it is shed (429)
  /// only if it is ALSO expensive (predicted > SLO/2) — a query already
  /// holding a worker is the capacity, and shedding cheap ones too would
  /// collapse throughput under sustained overload.
  kQueueFull,
};

struct AdmissionDecision {
  bool admit = true;
  ShedReason reason = ShedReason::kNone;
  /// The model's latency prediction for this query (also returned in
  /// the shed body so the client can see why).
  double predicted_ms = 0.0;
  /// Suggested client backoff, seconds ≥ 1 (the Retry-After header).
  int64_t retry_after_s = 1;
};

/// Work-unit prediction + runtime ns-per-unit calibration. Thread-safe;
/// one instance per server.
class CostModel {
 public:
  /// Mechanism-aware work units for one query. Pure arithmetic on the
  /// memoized dataset statistics — never scans data, never draws noise.
  /// Units are arbitrary (ns-per-unit calibration absorbs the scale);
  /// only the relative ordering across specs matters.
  static double WorkUnits(const DatasetStats& stats, const QuerySpec& spec);

  /// Latency prediction at the current calibration.
  double PredictMs(double work_units) const;

  /// Feeds one completed query back into the EWMA calibration.
  void Observe(double work_units, double actual_ms);

  /// Current scale (exposed for /v1/stats and tests).
  double ns_per_unit() const;
  /// EWMA of observed per-query latency (drives Retry-After).
  double recent_query_ms() const;

 private:
  mutable Mutex mu_;
  /// Seeded from the tracked trajectory: the kosarak-profile
  /// engine_query_warm entry (~216 ms) over its ~3.8M predicted work
  /// units ≈ 57 ns/unit. Self-corrects from the first observation on.
  double ns_per_unit_ PB_GUARDED_BY(mu_) = 57.0;
  double recent_query_ms_ PB_GUARDED_BY(mu_) = 50.0;
};

/// The admission decision point: combines the cost model, the SLO, and
/// the live queue depth. Thread-safe.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options)
      : options_(options) {}

  const AdmissionOptions& options() const { return options_; }
  CostModel& model() { return model_; }
  const CostModel& model() const { return model_; }

  /// Decides one query given its predicted work and the current worker
  /// queue depth. Never blocks.
  AdmissionDecision Decide(double work_units, size_t queue_depth) const;

  /// Backoff hint for queue-full sheds: roughly how long until the
  /// queue drains one slot, floored at 1 s.
  int64_t RetryAfterSeconds(size_t queue_depth) const;

 private:
  AdmissionOptions options_;
  CostModel model_;
};

}  // namespace privbasis::server

#endif  // PRIVBASIS_SERVER_ADMISSION_H_
