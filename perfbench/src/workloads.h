// The benchmark's workloads. Each one makes its inputs from the workload
// seed (dataset generation seeds are fixed; every query seed derives from
// the workload seed), measures for the requested window with closed-loop
// clients, checks every output, and fills a Report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The privbasis_server binary (served workload only).
  std::string server_bin;
  /// Scratch directory for server state and WAL files.
  std::string work_dir;
};

/// Seed every synthetic dataset is generated with.
constexpr uint64_t kGenerationSeed = 42;
constexpr double kEpsilon = 1.0;
/// The flush policy the served workload runs the server with (the
/// server's default) and the traced WAL cost is measured at.
constexpr const char* kFsyncPolicy = "commit";

/// kosarak-k300 / pumsb-k200 / aol-k100: one in-process Engine::Run
/// caller on a warm Dataset.
bool IsInProcessWorkload(const std::string& name);
void RunInProcess(const RunOptions& options, Report* report);

/// served-mushroom: the privbasis_server binary under two keep-alive
/// client connections running register → queries/budget reads → delete
/// lifecycles.
void RunServed(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
