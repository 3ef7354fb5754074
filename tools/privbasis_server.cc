// privbasis_server: the standalone query-server binary over the Engine
// facade (server/server.h).
//
//   privbasis_server --port 8080 --threads 8
//   privbasis_server --port 8080 --preload mushroom --preload-scale 0.5
//                    --preload-budget 4.0
//   privbasis_server --port 8080 --state-dir /var/lib/privbasis
//                    --fsync commit --preload-config datasets.json
//
// With --state-dir, the budget ledger and registered datasets survive
// restarts (kill -9 included); the server answers 503 on every route
// until boot-time recovery finishes. --preload-config names datasets,
// so a restart recovers them instead of re-registering duplicates:
//
//   {"datasets": [{"name": "retail", "profile": "retail",
//                  "budget": 4.0},
//                 {"name": "mydata", "path": "transactions.dat"}]}
//
// Prints one "listening ..." line (and one "preloaded ..."/"recovered
// ..." line per dataset) to stdout, then serves until SIGINT/SIGTERM.
// Exit codes: 0 clean shutdown, 1 startup failure, 2 bad usage (an
// unknown flag, or a value its flag does not accept: numbers must parse
// whole and fit their field).
#include <csignal>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "data/synthetic.h"
#include "flag_parse.h"
#include "server/server.h"

namespace privbasis::server {
namespace {

struct ServerCliOptions {
  ServerOptions server;
  std::string preload_profile;  // empty = none
  double preload_scale = 1.0;
  uint64_t preload_seed = 42;
  double preload_budget = 0.0;  // 0 = unlimited
  std::string preload_input;    // FIMI file; alternative to profile
  std::string preload_config;   // JSON file of named datasets
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host H] [--port P] [--threads N]\n"
      "          [--deadline-ms MS] [--max-body BYTES]\n"
      "          [--slo-ms MS] [--max-queue N]\n"
      "          [--batch-window-us US] [--max-batch N]\n"
      "          [--allow-path-datasets on|off]\n"
      "          [--state-dir DIR] [--fsync always|commit|never]\n"
      "          [--preload PROFILE | --preload-input FILE]\n"
      "          [--preload-scale S] [--preload-seed SEED]\n"
      "          [--preload-budget EPS] [--preload-config FILE]\n"
      "\n"
      "  --host H           bind address (default 127.0.0.1)\n"
      "  --port P           port; 0 picks an ephemeral one (default 0)\n"
      "  --threads N        connection workers (default: PRIVBASIS_THREADS)\n"
      "  --deadline-ms MS   per-request wall-clock budget (default 30000)\n"
      "  --max-body BYTES   request body ceiling (default 1048576)\n"
      "  --slo-ms MS        admission SLO: shed (429 + Retry-After) any\n"
      "                     query whose predicted latency exceeds MS\n"
      "                     (default 0 = no cost-model shedding)\n"
      "  --max-queue N      bounded worker queue: shed a new request once\n"
      "                     N requests are already queued (503 +\n"
      "                     Retry-After; default 0 = unbounded)\n"
      "  --batch-window-us US\n"
      "                     same-dataset query batching: concurrent\n"
      "                     admitted queries on one dataset share their\n"
      "                     counting scans, waiting up to US microseconds\n"
      "                     for co-riders. Releases stay bit-identical to\n"
      "                     unbatched runs at the same seed; epsilon is\n"
      "                     charged per query (default: the\n"
      "                     PRIVBASIS_BATCH_WINDOW_US env, else 0 = off)\n"
      "  --max-batch N      queries per fused scan (default: the\n"
      "                     PRIVBASIS_MAX_BATCH env, else 8)\n"
      "  --allow-path-datasets on|off\n"
      "                     accept {\"path\": ...} registrations over\n"
      "                     HTTP (default off; preloads are unaffected)\n"
      "  --state-dir DIR    durable state (budget WAL + dataset\n"
      "                     snapshots); survives kill -9. Default: none\n"
      "  --fsync MODE       WAL durability: always | commit (default) |\n"
      "                     never (needs --state-dir)\n"
      "  --preload NAME     register a synthetic dataset at startup:\n"
      "                     retail mushroom pumsb-star kosarak aol\n"
      "  --preload-input F  register a FIMI transaction file at startup\n"
      "  --preload-scale S  synthetic size multiplier (default 1.0)\n"
      "  --preload-seed S   synthetic generation seed (default 42)\n"
      "  --preload-budget E total dataset epsilon (default unlimited)\n"
      "  --preload-config F JSON file of NAMED datasets ({\"datasets\":\n"
      "                     [{\"name\", \"path\"|\"profile\"|..., ...}]});\n"
      "                     names already recovered from --state-dir are\n"
      "                     skipped, so restarts don't duplicate\n",
      argv0);
}

using flags::ParsePositive;
using flags::ParseUint;

std::optional<ServerCliOptions> ParseArgs(int argc, char** argv) {
  ServerCliOptions options;
  ServerOptions& server = options.server;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return std::nullopt;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--host") {
      server.host = value;
    } else if (flag == "--port") {
      ok = ParseUint(flag, value, &server.port);
    } else if (flag == "--threads") {
      ok = ParseUint(flag, value, &server.num_threads);
    } else if (flag == "--deadline-ms") {
      ok = ParseUint(flag, value, &server.request_deadline_ms, 1);
    } else if (flag == "--max-body") {
      ok = ParseUint(flag, value, &server.max_body_bytes);
    } else if (flag == "--slo-ms") {
      ok = ParseUint(flag, value, &server.admission.slo_ms);
    } else if (flag == "--max-queue") {
      ok = ParseUint(flag, value, &server.admission.max_queue_depth);
    } else if (flag == "--batch-window-us") {
      ok = ParseUint(flag, value, &server.batch_window_us);
    } else if (flag == "--max-batch") {
      ok = ParseUint(flag, value, &server.max_batch, 1);
    } else if (flag == "--allow-path-datasets") {
      // Value-taking like every other flag: "on"/"off".
      ok = value == "on" || value == "off";
      if (!ok) std::fprintf(stderr, "--allow-path-datasets takes on|off\n");
      server.registry_limits.allow_paths = value == "on";
    } else if (flag == "--state-dir") {
      server.state_dir = value;
    } else if (flag == "--fsync") {
      auto mode = store::ParseFsyncMode(value);
      ok = mode.ok();
      if (ok) {
        server.fsync_mode = *mode;
      } else {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
      }
    } else if (flag == "--preload") {
      options.preload_profile = value;
    } else if (flag == "--preload-input") {
      options.preload_input = value;
    } else if (flag == "--preload-scale") {
      ok = ParsePositive(flag, value, &options.preload_scale);
    } else if (flag == "--preload-seed") {
      ok = ParseUint(flag, value, &options.preload_seed);
    } else if (flag == "--preload-budget") {
      ok = ParsePositive(flag, value, &options.preload_budget);
    } else if (flag == "--preload-config") {
      options.preload_config = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      ok = false;
    }
    if (!ok) return std::nullopt;
  }
  return options;
}

volatile std::sig_atomic_t g_shutdown = 0;
void HandleSignal(int) { g_shutdown = 1; }

/// Registers every named dataset in a --preload-config file, skipping
/// names already in the registry (recovered from --state-dir).
Status PreloadFromConfig(QueryServer& server, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value config, json::Parse(text.str()));
  const json::Value* datasets = config.Find("datasets");
  if (datasets == nullptr) {
    return Status::InvalidArgument(path + ": missing \"datasets\"");
  }
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* rows,
                             datasets->GetArray());
  for (const json::Value& row : *rows) {
    const json::Value* name_value = row.Find("name");
    if (name_value == nullptr) {
      return Status::InvalidArgument(path +
                                     ": every dataset needs a \"name\"");
    }
    PRIVBASIS_ASSIGN_OR_RETURN(std::string name, name_value->GetString());
    if (server.registry().Find(name) != nullptr) {
      std::printf("recovered %s\n", name.c_str());
      continue;
    }
    PRIVBASIS_ASSIGN_OR_RETURN(
        std::shared_ptr<Dataset> dataset,
        server.registry().BuildFromJson(row, /*operator_config=*/true));
    PRIVBASIS_ASSIGN_OR_RETURN(
        std::string id, server.registry().RegisterNamed(name, dataset));
    std::printf("preloaded %s\n", id.c_str());
  }
  return Status::OK();
}

int RunServer(const ServerCliOptions& options) {
  QueryServer server(options.server);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  // Preloads (and their "recovered" skip check) need the recovered
  // registry; the socket is already listening and answering 503.
  if (Status ready = server.WaitUntilReady(); !ready.ok()) {
    std::fprintf(stderr, "recovery: %s\n", ready.ToString().c_str());
    return 1;
  }

  if (!options.preload_config.empty()) {
    if (Status preloaded = PreloadFromConfig(server, options.preload_config);
        !preloaded.ok()) {
      std::fprintf(stderr, "preload-config: %s\n",
                   preloaded.ToString().c_str());
      return 1;
    }
  }
  if (!options.preload_input.empty()) {
    // Operator config bypasses the wire gate: file paths over HTTP stay
    // behind --allow-path-datasets regardless of preloads.
    Dataset::Options dataset_options;
    if (options.preload_budget > 0.0) {
      dataset_options.total_epsilon = options.preload_budget;
    }
    auto dataset = Dataset::FromFimiFile(options.preload_input,
                                         dataset_options);
    if (!dataset.ok()) {
      std::fprintf(stderr, "preload: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    auto id = server.registry().Register(*dataset);
    if (!id.ok()) {
      std::fprintf(stderr, "preload: %s\n", id.status().ToString().c_str());
      return 1;
    }
    std::printf("preloaded %s as %s\n", options.preload_input.c_str(),
                id->c_str());
  } else if (!options.preload_profile.empty()) {
    json::Value request;
    request.Set("profile", options.preload_profile);
    request.Set("scale", options.preload_scale);
    request.Set("seed", options.preload_seed);
    if (options.preload_budget > 0.0) {
      request.Set("budget", options.preload_budget);
    }
    auto registered = server.registry().RegisterFromJson(request);
    if (!registered.ok()) {
      std::fprintf(stderr, "preload: %s\n",
                   registered.status().ToString().c_str());
      return 1;
    }
    std::printf("preloaded %s as %s\n", options.preload_profile.c_str(),
                registered->id.c_str());
  }

  std::printf("listening on http://%s:%u\n", server.host().c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    timespec ts{0, 100'000'000};  // 100 ms
    nanosleep(&ts, nullptr);
  }
  std::printf("shutting down\n");
  server.Stop();
  return 0;
}

}  // namespace
}  // namespace privbasis::server

int main(int argc, char** argv) {
  auto options = privbasis::server::ParseArgs(argc, argv);
  if (!options.has_value()) {
    privbasis::server::PrintUsage(argv[0]);
    return 2;
  }
  return privbasis::server::RunServer(*options);
}
