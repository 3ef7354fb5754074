// perfbench_driver: runs one benchmark workload and prints one line,
//
//   PERFBENCH_REPORT {"correct": ..., "attempted": ..., "metrics": {...},
//                     "facts": {...}, "stamp": {...}}
//
// which perfbench/run.py turns into the benchmark's result line.
//
//   perfbench_driver --workload kosarak-k300 --seed 1 --seconds 10
//                    --trace 0 --work-dir DIR [--server-bin PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/env.h"
#include "common/simd.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR "
               "[--server-bin PATH]\n");
  return 2;
}

const char* CompilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--server-bin") {
      options.server_bin = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  const bool served = options.workload == "served-mushroom";
  if (options.work_dir.empty() || !(options.seconds > 0) ||
      (served && options.server_bin.empty()) ||
      (!served && !perfbench::IsInProcessWorkload(options.workload))) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  if (served) {
    perfbench::RunServed(options, &report);
  } else {
    perfbench::RunInProcess(options, &report);
  }

  // Operations that succeeded and passed their output checks, over those
  // attempted (1 − error rate, so the metric never reads 0).
  report.Metric("success_rate",
                report.attempted() == 0
                    ? 0.0
                    : static_cast<double>(report.attempted() -
                                          report.failed()) /
                          static_cast<double>(report.attempted()),
                "ratio", report.attempted());
  privbasis::json::Value out = report.ToJson();
  privbasis::json::Value stamp;
  stamp.Set("workload", options.workload);
  stamp.Set("seed", options.seed);
  stamp.Set("seconds", options.seconds);
  stamp.Set("trace", options.trace);
  stamp.Set("compiler", CompilerName());
  stamp.Set("build_type", PERFBENCH_BUILD_TYPE);
  stamp.Set("simd", privbasis::simd::LevelName(privbasis::simd::ActiveLevel()));
  stamp.Set("privbasis_threads", privbasis::NumThreads());
  stamp.Set("client_model", served ? "closed loop, 2 keep-alive connections"
                                   : "closed loop, 1 in-process caller");
  stamp.Set("fsync", served ? perfbench::kFsyncPolicy : "none (no WAL)");
  out.Set("stamp", std::move(stamp));
  std::printf("PERFBENCH_REPORT %s\n", out.Dump().c_str());
  return 0;
}
