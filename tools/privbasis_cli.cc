// privbasis_cli: command-line front end for the library, built on the
// Engine facade (engine/engine.h).
//
// Reads a FIMI-format transaction file (or generates one of the paper's
// synthetic profiles) into a Dataset handle, runs one query through
// Engine::Run, and prints the released itemsets as TSV (items, noisy
// count, noisy frequency).
//
// Exit codes: 0 success, 1 runtime error (I/O, budget exhausted), 2 bad
// usage (an unknown flag, a number that does not parse whole, or a
// QuerySpec that fails validation).
//
// Examples:
//   privbasis_cli --input basket.dat --k 100 --epsilon 1.0
//   privbasis_cli --profile mushroom --scale 0.5 --k 50 --method tf --m 2
//   privbasis_cli --profile kosarak --scale 0.1 --threshold 0.02 --kcap 400
//   privbasis_cli --input basket.dat --k 50 --rules 0.6 --budget 2.0
#include <cstdio>
#include <optional>
#include <string>

#include "data/dataset_stats.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "flag_parse.h"

namespace privbasis {
namespace {

using flags::ParseFinite;
using flags::ParsePositive;
using flags::ParseUint;

struct CliOptions {
  std::string input;      // FIMI file; empty = use profile
  std::string profile;    // retail|mushroom|pumsb-star|kosarak|aol
  double scale = 1.0;
  std::string method = "pb";  // pb | tf
  size_t k = 100;
  double epsilon = 1.0;
  uint64_t seed = 42;
  size_t m = 2;               // TF length cap
  double threshold = 0.0;     // >0: threshold mode (PB only)
  size_t k_cap = 500;         // threshold-mode candidate cap
  double rules = 0.0;         // >0: derive rules at this min confidence
  double budget = 0.0;        // >0: total dataset budget (default unlimited)
  double sample = 1.0;        // <1: subsampling amplification rate
  bool quiet = false;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--input FILE | --profile NAME [--scale S]]\n"
      "          [--method pb|tf] [--k K] [--epsilon E] [--seed SEED]\n"
      "          [--m M] [--threshold T --kcap CAP] [--rules MINCONF]\n"
      "          [--budget B] [--sample Q] [--quiet]\n"
      "\n"
      "  --input FILE     FIMI-format transactions (one per line)\n"
      "  --profile NAME   synthetic dataset: retail mushroom pumsb-star\n"
      "                   kosarak aol\n"
      "  --scale S        synthetic size multiplier (default 1.0)\n"
      "  --method pb|tf   PrivBasis (default) or the Bhaskar et al.\n"
      "                   truncated-frequency baseline\n"
      "  --k K            top-k to release (default 100)\n"
      "  --epsilon E      privacy budget of this query (default 1.0)\n"
      "  --m M            TF itemset-length cap (default 2)\n"
      "  --threshold T    release itemsets with noisy frequency >= T\n"
      "  --kcap CAP       candidate cap for threshold mode (default 500)\n"
      "  --rules C        also print association rules with confidence >= C\n"
      "  --budget B       total dataset budget the query is metered\n"
      "                   against (default: unlimited, spend still tracked)\n"
      "  --sample Q       run on a Poisson Q-subsample with the\n"
      "                   amplification-adjusted budget (PB only)\n"
      "  --quiet          suppress the dataset/stats banner\n",
      argv0);
}

std::optional<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return std::nullopt;
    if (flag == "--quiet") {
      options.quiet = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    // Numbers parse whole (flag_parse.h); their ranges are
    // QuerySpec::Validate's, except the two positive dataset knobs.
    bool ok = true;
    if (flag == "--input") {
      options.input = value;
    } else if (flag == "--profile") {
      options.profile = value;
    } else if (flag == "--scale") {
      ok = ParsePositive(flag, value, &options.scale);
    } else if (flag == "--method") {
      options.method = value;
    } else if (flag == "--k") {
      ok = ParseUint(flag, value, &options.k);
    } else if (flag == "--epsilon") {
      ok = ParseFinite(flag, value, &options.epsilon);
    } else if (flag == "--seed") {
      ok = ParseUint(flag, value, &options.seed);
    } else if (flag == "--m") {
      ok = ParseUint(flag, value, &options.m);
    } else if (flag == "--threshold") {
      ok = ParseFinite(flag, value, &options.threshold);
    } else if (flag == "--kcap") {
      ok = ParseUint(flag, value, &options.k_cap);
    } else if (flag == "--rules") {
      ok = ParseFinite(flag, value, &options.rules);
    } else if (flag == "--budget") {
      // Fail closed: the one flag that CAPS privacy spending must never
      // be silently ignored on a bad value.
      ok = ParsePositive(flag, value, &options.budget);
    } else if (flag == "--sample") {
      ok = ParseFinite(flag, value, &options.sample);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  if (options.input.empty() && options.profile.empty()) {
    std::fprintf(stderr, "one of --input or --profile is required\n");
    return std::nullopt;
  }
  return options;
}

Result<std::shared_ptr<Dataset>> LoadDataset(const CliOptions& options) {
  Dataset::Options dataset_options;
  if (options.budget > 0.0) dataset_options.total_epsilon = options.budget;
  if (!options.input.empty()) {
    return Dataset::FromFimiFile(options.input, dataset_options);
  }
  SyntheticProfile profile;
  if (options.profile == "retail") {
    profile = SyntheticProfile::Retail(options.scale);
  } else if (options.profile == "mushroom") {
    profile = SyntheticProfile::Mushroom(options.scale);
  } else if (options.profile == "pumsb-star") {
    profile = SyntheticProfile::PumsbStar(options.scale);
  } else if (options.profile == "kosarak") {
    profile = SyntheticProfile::Kosarak(options.scale);
  } else if (options.profile == "aol") {
    profile = SyntheticProfile::Aol(options.scale);
  } else {
    return Status::InvalidArgument("unknown profile '" + options.profile +
                                   "'");
  }
  return Dataset::FromProfile(profile, options.seed, dataset_options);
}

Result<QuerySpec> BuildSpec(const CliOptions& options) {
  QuerySpec spec;
  spec.WithEpsilon(options.epsilon).WithSeed(options.seed).WithTopK(
      options.k);
  if (options.method == "pb") {
    spec.WithMethod(QueryMethod::kPrivBasis);
  } else if (options.method == "tf") {
    spec.WithMethod(QueryMethod::kTruncatedFrequency);
    spec.tf.m = options.m;
  } else {
    return Status::InvalidArgument("unknown method '" + options.method +
                                   "' (expected pb or tf)");
  }
  // Mode flags are applied regardless of method so that Validate() — not
  // a silent drop here — rejects unsupported combinations (e.g. tf +
  // --threshold, tf + --sample, out-of-range rates) with exit code 2.
  if (options.threshold != 0.0) {
    spec.WithThreshold(options.threshold, options.k_cap);
  }
  if (options.sample != 1.0) spec.WithAmplification(options.sample);
  if (options.rules != 0.0) spec.WithRules(options.rules);
  return spec;
}

int RunCli(const char* argv0, const CliOptions& options) {
  auto spec = BuildSpec(options);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    PrintUsage(argv0);
    return 2;
  }
  // Validate before paying for dataset generation/loading, so bad specs
  // fail fast with usage.
  if (Status valid = spec->Validate(); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    PrintUsage(argv0);
    return 2;
  }

  auto dataset = LoadDataset(options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  if (!options.quiet) {
    std::fprintf(stderr, "[privbasis_cli] %s\n",
                 (*dataset)->Stats().ToString().c_str());
  }
  const double n = static_cast<double>((*dataset)->db().NumTransactions());

  // The spec was fully validated above, so any error from here on is a
  // runtime problem (bad data, exhausted budget): exit 1, not 2.
  auto release = Engine::Run(*dataset, *spec);
  if (!release.ok()) {
    std::fprintf(stderr, "%s\n", release.status().ToString().c_str());
    return 1;
  }

  std::printf("# items\tnoisy_count\tnoisy_frequency\n");
  for (const auto& itemset : release->itemsets) {
    std::string items;
    for (size_t i = 0; i < itemset.items.size(); ++i) {
      if (i > 0) items += ' ';
      items += std::to_string(itemset.items[i]);
    }
    std::printf("%s\t%.2f\t%.6f\n", items.c_str(), itemset.noisy_count,
                itemset.noisy_count / n);
  }

  if (options.rules > 0.0) {
    std::printf("# association rules (min confidence %.2f)\n", options.rules);
    for (const auto& rule : release->rules) {
      std::printf("%s\n", rule.ToString().c_str());
    }
  }
  if (!options.quiet) {
    std::string remaining;
    if (options.budget > 0.0) {
      remaining = "; dataset budget remaining " +
                  std::to_string(release->epsilon_remaining);
    }
    std::fprintf(stderr,
                 "[privbasis_cli] epsilon spent %.6f of %.6f requested%s\n",
                 release->epsilon_spent, release->epsilon_requested,
                 remaining.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace privbasis

int main(int argc, char** argv) {
  auto options = privbasis::ParseArgs(argc, argv);
  if (!options.has_value()) {
    privbasis::PrintUsage(argv[0]);
    return 2;
  }
  return privbasis::RunCli(argv[0], *options);
}
