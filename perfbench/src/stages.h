// The traced run's instruments, all timed from outside the library:
//
//   * RunTraced recomposes detail::RunPrivBasisImpl from its public steps
//     (GetLambda, GetFreqElements, CountExecutor::PairSupports,
//     ConstructBasisSet, BasisFreq) on the same RNG stream, timing each
//     step. Its release must be bit-identical to Engine::Run's.
//   * WireCost times the server's parse and serialize functions on a
//     query's own request and response bytes.
//   * WalCost times BudgetWal appends on a scratch file.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/count_exec.h"
#include "engine/dataset.h"
#include "engine/query.h"
#include "report.h"

namespace perfbench {

/// Per-stage milliseconds of one PrivBasis query.
struct StageTimes {
  double lambda = 0;       ///< GetLambda
  double item_select = 0;  ///< GetFreqElements over item supports
  double pair_count = 0;   ///< CountExecutor::PairSupports
  double pair_select = 0;  ///< GetFreqElements over pair supports
  double basis_build = 0;  ///< ConstructBasisSet (or the single basis)
  double bin_count = 0;    ///< CountExecutor::BasisBinCounts
  double basis_freq = 0;   ///< BasisFreq minus its bin counting

  double Sum() const {
    return lambda + item_select + pair_count + pair_select + basis_build +
           bin_count + basis_freq;
  }
};

struct TracedQuery {
  privbasis::Release release;
  StageTimes ms;
  size_t candidates = 0;  ///< |C(B)|, BasisFreq's candidate count
};

/// One PrivBasis top-k query recomposed from the public stage functions,
/// counting through `exec` (the dataset's EnsureCountExecutor()).
privbasis::Result<TracedQuery> RunTraced(const privbasis::Dataset& dataset,
                                         const privbasis::QuerySpec& spec,
                                         const privbasis::CountExecutor& exec);

/// Accumulates the traced stages of many queries and reports them as
/// core.* metrics plus the structural counts and trace.coverage.
class StageSummary {
 public:
  void Add(const TracedQuery& traced, double engine_run_ms);
  void Emit(Report* report) const;

 private:
  size_t n_ = 0;
  StageTimes sum_;
  double engine_ms_ = 0;
  double lambda_ = 0, lambda2_ = 0, width_ = 0, max_len_ = 0;
  double candidates_ = 0, released_ = 0;
};

/// Dataset cache entries built between two cache_counters() snapshots.
size_t CacheBuilds(const privbasis::Dataset::CacheCounters& before,
                   const privbasis::Dataset::CacheCounters& after);

/// The compact /v1/query body the served clients send.
std::string QueryBody(const std::string& dataset_id,
                      const privbasis::QuerySpec& spec);

/// Times the server's request parse (ParseHttpRequest + json::Parse +
/// QuerySpecFromJson) and response serialize (ReleaseToJson + Dump +
/// SerializeHttpResponse) on one query's bytes.
class WireCost {
 public:
  /// Returns an error string when the bytes do not round-trip.
  std::string Add(const std::string& dataset_id,
                  const privbasis::QuerySpec& spec,
                  const privbasis::Release& release);
  void Emit(Report* report) const;

 private:
  std::vector<double> parse_ms_, serialize_ms_, response_bytes_;
};

/// Appends `count` reserve + commit record pairs to a fresh BudgetWal at
/// `path` under `fsync` ("always" | "commit" | "never") and reports
/// store.wal_append_ms (mean per pair) and store.wal_bytes_per_query.
void WalCost(const std::string& path, const std::string& fsync, size_t count,
             Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
