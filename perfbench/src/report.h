// Shared pieces of the benchmark driver: sample statistics, the metric
// report every workload fills, seed derivation, and small process/clock
// helpers.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "engine/query.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Seed of the `index`-th query of `stream` under one workload seed. Every
/// query seed of a run comes from here, so a run is reproducible from its
/// workload seed alone.
uint64_t QuerySeed(uint64_t workload_seed, uint64_t stream, uint64_t index);

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);

/// The tail latency the benchmark reports: the nearest-rank value at
/// `percentile`, a fixed per-workload choice, so runs of different speed
/// always compare the same order statistic. A run with fewer than
/// kMinTailBeyond samples beyond it fails a check instead.
constexpr size_t kMinTailBeyond = 10;
struct Tail {
  double percentile = 0.0;  ///< in percent, e.g. 95
  double value = 0.0;
  size_t beyond = 0;        ///< samples strictly above the rank
};
Tail TailOf(const std::vector<double>& samples, double percentile);

/// The timed window is cut into this many equal blocks by completion
/// time. Medians over blocks keep a stall of the shared host that lasts a
/// few seconds from moving a whole run.
constexpr int kWindowBlocks = 10;

/// Groups `samples` by block of their completion time `end_ms` (since the
/// window start) in a window of `window_ms`. The last block also holds
/// samples that completed after the window, in flight at its end.
std::vector<std::vector<double>> SplitIntoBlocks(
    const std::vector<double>& samples, const std::vector<double>& end_ms,
    double window_ms);

/// Median of the non-empty blocks' medians.
double MedianOfBlockMedians(const std::vector<std::vector<double>>& blocks);

/// The shared host's clock speed, sampled through a run. On a shared VM
/// every vCPU slows and speeds up together, by up to ±20% within seconds
/// and by a third over an hour, and the queries follow it. Every workload
/// times a fixed kernel — a dependent integer multiply-add chain the
/// compiler cannot shorten — through its window (in process between
/// queries, served on a thread beside the clients) and reports its timings
/// at a reference speed: each timing times kReferenceKernelMs over the
/// median kernel time of its window block.
class HostSpeed {
 public:
  /// The kernel's median time on the 4-vCPU x86-64 VM the benchmark was
  /// tuned on; a fixed constant, so scaled timings compare across runs.
  static constexpr double kReferenceKernelMs = 1.5;
  /// Window time between samples. In process the kernel runs after the
  /// first query that ends this long after the last sample: after every
  /// query on kosarak and aol, every second one on pumsb (≈2% of the
  /// window).
  static constexpr double kSampleEveryMs = 50.0;

  /// Times the kernel once and files it under window time `end_ms`.
  void Sample(double end_ms = 0.0);
  /// Per window block, the factor that scales a timing in it to the
  /// reference speed: kReferenceKernelMs over the block's median kernel
  /// time. A block without a kernel sample uses the run's median.
  std::vector<double> BlockFactors(double window_ms) const;
  /// `samples` (completed at `end_ms`, in a window of `window_ms`) at the
  /// reference speed.
  std::vector<double> AtReference(const std::vector<double>& samples,
                                  const std::vector<double>& end_ms,
                                  double window_ms) const;
  double MedianKernelMs() const;
  /// Scales a timing taken while these samples were drawn to the
  /// reference speed.
  double Factor() const { return kReferenceKernelMs / MedianKernelMs(); }
  size_t samples() const { return kernel_ms_.size(); }

 private:
  std::vector<double> kernel_ms_;
  std::vector<double> end_ms_;
};

/// Cumulative vCPU time of the whole VM, from /proc/stat, and the part of
/// it the hypervisor ran other guests instead (steal).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Steal over all vCPU time since `since`, for the detail line: a run
/// during a steal episode reads slow whatever the program does, and the
/// kernel above does not see it in full.
double StealShareSince(const CpuTicks& since);

/// {"p50": .., "p75": .., "p90": .., "p95": .., "p99": ..} of `samples`,
/// for the detail line.
privbasis::json::Value QuantileFact(const std::vector<double>& samples);

/// Peak resident set of this process / of `pid`, in MiB.
double SelfPeakRssMb();
double PeakRssMbOf(int pid);

/// One run's results: metrics (value, unit, sample count) plus the
/// operation counts and named facts about the run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  void Fact(const std::string& key, privbasis::json::Value value);

  /// One attempted operation; `error` empty = it succeeded and passed
  /// every output check. Failures keep their first few messages.
  void Op(const std::string& error = {});
  /// A whole-run check (ledger conservation, replay equality, ...),
  /// counted as one more operation.
  void Check(bool ok, const std::string& what) {
    Op(ok ? std::string() : "check failed: " + what);
  }
  /// Adds another report's operation counts and errors (a client
  /// thread's log).
  void Absorb(const Report& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }

  privbasis::json::Value ToJson() const;

 private:
  privbasis::json::Value metrics_;
  privbasis::json::Value facts_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// The per-release output checks: at most k itemsets, sorted by noisy
/// count (non-increasing), committed ε within the requested ε. Returns
/// an empty string when all hold.
std::string CheckRelease(const privbasis::Release& release, size_t k);

/// Bit-for-bit equality of the released content of two releases
/// (itemsets with their noisy counts, λ, λ2, basis set, committed ε).
/// Returns an empty string when equal, else what differs.
std::string CompareReleases(const privbasis::Release& a,
                            const privbasis::Release& b);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
