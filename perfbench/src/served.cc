// served-mushroom: the shipped privbasis_server binary (default flags plus
// --state-dir, so the ε ledger goes through the WAL at the default
// --fsync commit) under two closed-loop keep-alive client connections.
//
// Each client runs dataset lifecycles: register a fresh mushroom dataset,
// send kLifecycleRequests requests — /v1/query at k=20, ε=1, with every
// tenth a GET /v1/datasets/:id/budget — then DELETE it. Each query adds
// three ledger entries and the budget route returns all of them, so the
// lifecycle keeps every budget read's size fixed whatever the speed.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "common/net.h"
#include "data/synthetic.h"
#include "engine/dataset.h"
#include "engine/engine.h"
#include "eval/metrics.h"
#include "server/wire.h"
#include "stages.h"
#include "workloads.h"

namespace perfbench {

using namespace privbasis;
namespace fs = std::filesystem;

namespace {

/// Mushroom ×0.25 (2,031 transactions): registration writes a 190 KB
/// snapshot. At ×1.0 the 750 KB snapshot's flush, forced by the next WAL
/// fsync, tied query latency to the host disk more than to the server.
constexpr double kScale = 0.25;
constexpr size_t kK = 20;
constexpr int kClients = 2;
/// Requests per lifecycle: the most for which the lifecycle's last budget
/// read stays within 16 KiB, the Linux default TCP send buffer
/// (net.ipv4.tcp_wmem), so the server writes every budget read in one
/// send rather than through its EPOLLOUT write queue. A budget body is
/// ≈32 bytes plus ≈120 per query (three ledger entries), so the last
/// read, after 135 queries, is ≈16.3 KB; at 160 requests (144 queries) it
/// would be ≈17.3 KB. The run records the largest read as
/// budget_bytes_max, and registration's share of the served latency as
/// the register_* facts (RegistrationCost below).
constexpr int kLifecycleRequests = 150;
constexpr int kBudgetEvery = 10;
/// Served releases per client replayed in-process after the window; the
/// same prefix scores utility.
constexpr uint64_t kReplayPerClient = 400;
constexpr int kSetupReps = 15;
/// p99 swings by a third between identical runs on a shared host; p95
/// still has hundreds of samples beyond it in every block.
constexpr double kTailPercentile = 95.0;
constexpr uint64_t kSetupStream = 1;
constexpr uint64_t kClientStream = 100;  // + client index

QuerySpec SpecFor(uint64_t seed) {
  return QuerySpec().WithTopK(kK).WithEpsilon(kEpsilon).WithSeed(seed);
}

std::string RegisterBody() {
  json::Value body;
  body.Set("profile", "mushroom");
  body.Set("scale", kScale);
  body.Set("seed", kGenerationSeed);
  return body.Dump();
}

// ------------------------------------------------------------ server

/// One privbasis_server child process. Its stdout/stderr go to a log
/// file; the "listening on http://host:port" line gives the port.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  Status Start(const std::string& binary, const std::string& state_dir,
               const std::string& log_path) {
    fs::remove_all(state_dir);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd < 0) return Status::IoError("cannot open " + log_path);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(log_fd);
      return Status::IoError("fork failed");
    }
    if (pid_ == 0) {
      // Never outlive the driver, even if it dies without cleaning up.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execl(binary.c_str(), binary.c_str(), "--port", "0", "--state-dir",
              state_dir.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(log_fd);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      std::ifstream log(log_path);
      std::string line;
      while (std::getline(log, line)) {
        const auto at = line.find("listening on http://");
        const auto colon = line.rfind(':');
        if (at != std::string::npos && colon != std::string::npos) {
          port_ = static_cast<uint16_t>(std::stoi(line.substr(colon + 1)));
          return Status::OK();
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("privbasis_server exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Internal("privbasis_server did not start listening");
  }

  /// SIGTERM, then SIGKILL if it has not exited within 10 s; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 10000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// ------------------------------------------------------------ client

struct HttpResult {
  int status = 0;
  std::string body;
};

/// A keep-alive HTTP/1.1 client connection (Content-Length framing, as
/// the server speaks). Reconnects when the server closes it.
class HttpConn {
 public:
  explicit HttpConn(uint16_t port) : port_(port) {}

  Result<HttpResult> Call(const std::string& method,
                          const std::string& target,
                          const std::string& body) {
    const net::Deadline deadline = net::DeadlineAfterMs(60'000);
    if (!fd_.valid()) {
      PRIVBASIS_ASSIGN_OR_RETURN(fd_,
                                 net::ConnectTcp("127.0.0.1", port_, deadline));
      buffer_.clear();
    }
    std::string request = method + " " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty()) {
      request += "Content-Type: application/json\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n";
    }
    request += "\r\n" + body;
    PRIVBASIS_RETURN_NOT_OK(net::WriteAll(fd_, request, deadline));

    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      PRIVBASIS_RETURN_NOT_OK(ReadMore(deadline));
    }
    HttpResult result;
    const size_t space = buffer_.find(' ');
    if (space == std::string::npos || space > head_end) {
      return Status::Internal("malformed status line");
    }
    result.status = std::atoi(buffer_.c_str() + space + 1);
    size_t content_length = 0;
    bool close = false;
    std::istringstream head(buffer_.substr(0, head_end));
    std::string line;
    while (std::getline(head, line)) {
      std::string lower = line;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower.rfind("content-length:", 0) == 0) {
        content_length = std::strtoull(lower.c_str() + 15, nullptr, 10);
      } else if (lower.rfind("connection:", 0) == 0 &&
                 lower.find("close") != std::string::npos) {
        close = true;
      }
    }
    const size_t total = head_end + 4 + content_length;
    while (buffer_.size() < total) {
      PRIVBASIS_RETURN_NOT_OK(ReadMore(deadline));
    }
    result.body = buffer_.substr(head_end + 4, content_length);
    buffer_.erase(0, total);
    if (close) fd_.Close();
    return result;
  }

 private:
  Status ReadMore(net::Deadline deadline) {
    char chunk[16384];
    PRIVBASIS_ASSIGN_OR_RETURN(size_t got,
                               net::ReadSome(fd_, chunk, sizeof(chunk),
                                             deadline));
    if (got == 0) {
      fd_.Close();
      return Status::Unavailable("server closed the connection");
    }
    buffer_.append(chunk, got);
    return Status::OK();
  }

  uint16_t port_;
  net::Fd fd_;
  std::string buffer_;
};

Result<std::string> Register(HttpConn& conn, double* ms) {
  const auto start = Clock::now();
  PRIVBASIS_ASSIGN_OR_RETURN(HttpResult r,
                             conn.Call("POST", "/v1/datasets", RegisterBody()));
  *ms = MsSince(start);
  if (r.status != 201) {
    return Status::Internal("register answered " + std::to_string(r.status));
  }
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value v, json::Parse(r.body));
  const json::Value* id = v.Find("dataset");
  if (id == nullptr) return Status::Internal("register: no dataset id");
  return id->GetString();
}

/// Sends one query; on success returns the parsed release.
Result<Release> Query(HttpConn& conn, const std::string& id,
                      const QuerySpec& spec, double* ms) {
  const auto start = Clock::now();
  PRIVBASIS_ASSIGN_OR_RETURN(
      HttpResult r, conn.Call("POST", "/v1/query", QueryBody(id, spec)));
  *ms = MsSince(start);
  if (r.status != 200) {
    return Status::Internal("query answered " + std::to_string(r.status) +
                            ": " + r.body.substr(0, 200));
  }
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value v, json::Parse(r.body));
  return server::ReleaseFromJson(v);
}

/// The budget route's {spent, sum of ledger entry epsilons}.
Result<std::pair<double, double>> LedgerSum(const std::string& body) {
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value v, json::Parse(body));
  const json::Value* spent = v.Find("spent");
  const json::Value* ledger = v.Find("ledger");
  if (spent == nullptr || ledger == nullptr) {
    return Status::Internal("budget body lacks spent/ledger");
  }
  std::pair<double, double> out;
  PRIVBASIS_ASSIGN_OR_RETURN(out.first, spent->GetDouble());
  PRIVBASIS_ASSIGN_OR_RETURN(const json::Value::Array* entries,
                             ledger->GetArray());
  for (const json::Value& entry : *entries) {
    const json::Value* eps = entry.Find("epsilon");
    if (eps == nullptr) return Status::Internal("ledger entry lacks epsilon");
    PRIVBASIS_ASSIGN_OR_RETURN(double e, eps->GetDouble());
    out.second += e;
  }
  return out;
}

/// Everything one client thread measured.
struct ClientLog {
  std::vector<double> query_ms, budget_ms, budget_bytes, register_ms;
  /// When each query started and completed, in ms since the window start.
  std::vector<double> query_start_ms, query_end_ms;
  /// When each registration started and completed, likewise.
  std::vector<double> register_start_ms, register_end_ms;
  /// Its first kReplayPerClient releases, by query index (empty where
  /// the query failed).
  std::vector<std::optional<Release>> releases;
  uint64_t queries = 0;
  double last_query_end_ms = 0;  ///< since the window start
  Report ops;                    ///< per-operation outcomes
};

void RunClient(uint16_t port, uint64_t workload_seed, int client,
               Clock::time_point window_start, double window_ms,
               ClientLog* log) {
  HttpConn conn(port);
  auto open = [&] { return MsSince(window_start) < window_ms; };
  while (open()) {
    double register_ms = 0;
    log->register_start_ms.push_back(MsSince(window_start));
    auto id = Register(conn, &register_ms);
    log->ops.Op(id.ok() ? "" : "register: " + id.status().ToString());
    if (!id.ok()) return;
    log->register_ms.push_back(register_ms);
    log->register_end_ms.push_back(MsSince(window_start));

    double spent = 0.0;
    for (int j = 1; j <= kLifecycleRequests && open(); ++j) {
      if (j % kBudgetEvery == 0) {
        const auto start = Clock::now();
        auto r = conn.Call("GET", "/v1/datasets/" + *id + "/budget", "");
        const double ms = MsSince(start);
        std::string error;
        if (!r.ok()) {
          error = "budget: " + r.status().ToString();
        } else if (r->status != 200) {
          error = "budget answered " + std::to_string(r->status);
        } else {
          log->budget_ms.push_back(ms);
          log->budget_bytes.push_back(static_cast<double>(r->body.size()));
          // Ledger conservation: the dataset's spent total, and the sum of
          // its itemized entries, equal this client's committed spends.
          auto ledger_sum = LedgerSum(r->body);
          if (!ledger_sum.ok() ||
              std::abs(ledger_sum->first - spent) > 1e-9 * (1.0 + spent) ||
              std::abs(ledger_sum->second - spent) > 1e-9 * (1.0 + spent)) {
            error = "budget ledger does not match the committed spends";
          }
        }
        log->ops.Op(error);
        continue;
      }
      const uint64_t index = log->queries++;
      const QuerySpec spec =
          SpecFor(QuerySeed(workload_seed, kClientStream + client, index));
      double ms = 0;
      const double start_ms = MsSince(window_start);
      auto release = Query(conn, *id, spec, &ms);
      log->last_query_end_ms = MsSince(window_start);
      if (!release.ok()) {
        log->ops.Op("query: " + release.status().ToString());
        if (index < kReplayPerClient) log->releases.emplace_back();
        continue;
      }
      log->query_ms.push_back(ms);
      log->query_start_ms.push_back(start_ms);
      log->query_end_ms.push_back(log->last_query_end_ms);
      spent += release->epsilon_spent;
      log->ops.Op(CheckRelease(*release, kK));
      if (index < kReplayPerClient) {
        log->releases.push_back(std::move(*release));
      }
    }
    auto deleted = conn.Call("DELETE", "/v1/datasets/" + *id, "");
    log->ops.Op(!deleted.ok()            ? deleted.status().ToString()
                : deleted->status != 204 ? "delete answered " +
                                               std::to_string(deleted->status)
                                         : "");
  }
}

/// How much of the served latency registration accounts for. A query is
/// near a registration when it overlaps one, or is some client's first
/// query to start after one ended: registration writes its snapshot under
/// the registry lock, and the next WAL fsync flushes it. Records, as
/// facts, the share of client time spent registering, the share of
/// queries near a registration, the p50 of near and of clear queries, and
/// the registration stall share: near queries' latency above the clear
/// p50, over all query latency.
void RegistrationCost(const std::vector<ClientLog>& logs, double window_ms,
                      Report* report) {
  std::vector<std::vector<bool>> near(logs.size());
  for (size_t c = 0; c < logs.size(); ++c) {
    near[c].assign(logs[c].query_ms.size(), false);
  }
  double register_total_ms = 0;
  for (const ClientLog& registering : logs) {
    for (size_t r = 0; r < registering.register_end_ms.size(); ++r) {
      const double from = registering.register_start_ms[r];
      const double to = registering.register_end_ms[r];
      register_total_ms += to - from;
      for (size_t c = 0; c < logs.size(); ++c) {
        // A client's queries are back to back, so both time lists are
        // sorted.
        const auto& starts = logs[c].query_start_ms;
        const auto& ends = logs[c].query_end_ms;
        size_t q = static_cast<size_t>(
            std::upper_bound(ends.begin(), ends.end(), from) - ends.begin());
        for (; q < starts.size() && starts[q] < to; ++q) near[c][q] = true;
        if (q < starts.size()) near[c][q] = true;
      }
    }
  }
  std::vector<double> near_ms, clear_ms;
  double total_ms = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (size_t q = 0; q < near[c].size(); ++q) {
      (near[c][q] ? near_ms : clear_ms).push_back(logs[c].query_ms[q]);
      total_ms += logs[c].query_ms[q];
    }
  }
  const double clear_p50 = Median(clear_ms);
  double stall_ms = 0;
  for (double ms : near_ms) stall_ms += std::max(0.0, ms - clear_p50);
  const double queries = static_cast<double>(near_ms.size() + clear_ms.size());
  report->Fact("register_time_share",
               register_total_ms /
                   (static_cast<double>(logs.size()) * window_ms));
  report->Fact("queries_near_register_share",
               queries > 0 ? static_cast<double>(near_ms.size()) / queries
                           : 0.0);
  report->Fact("query_p50_near_register_ms", Median(near_ms));
  report->Fact("query_p50_clear_ms", clear_p50);
  report->Fact("register_stall_share",
               total_ms > 0 ? stall_ms / total_ms : 0.0);
}

}  // namespace

void RunServed(const RunOptions& options, Report* report) {
  const std::string state_dir = options.work_dir + "/state";
  const std::string log_path = options.work_dir + "/server.log";
  ServerProcess server;

  // ---- set-up: start the server, register, first query ---------------
  std::vector<double> setup_s;
  HostSpeed setup_host;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.Stop();
    const auto start = Clock::now();
    Status started = server.Start(options.server_bin, state_dir, log_path);
    if (!started.ok()) {
      report->Op("server start: " + started.ToString());
      return;
    }
    HttpConn conn(server.port());
    double register_ms = 0;
    auto id = Register(conn, &register_ms);
    if (!id.ok()) {
      report->Op("register: " + id.status().ToString());
      return;
    }
    double ms = 0;
    auto first =
        Query(conn, *id, SpecFor(QuerySeed(options.seed, kSetupStream, rep)),
              &ms);
    setup_s.push_back(MsSince(start) / 1000.0);
    for (int i = 0; i < 3; ++i) setup_host.Sample();
    report->Op(first.ok() ? CheckRelease(*first, kK)
                          : first.status().ToString());
    auto deleted = conn.Call("DELETE", "/v1/datasets/" + *id, "");
    report->Op(deleted.ok() && deleted->status == 204 ? "" : "setup delete");
  }

  // ---- untimed: the in-process reference the replay compares against --
  auto start = Clock::now();
  auto db = GenerateDataset(SyntheticProfile::Mushroom(kScale),
                            kGenerationSeed);
  const double generate_ms = MsSince(start);
  if (!db.ok()) {
    report->Op("generate: " + db.status().ToString());
    return;
  }
  std::shared_ptr<Dataset> reference = Dataset::Create(std::move(*db));
  start = Clock::now();
  (void)reference->MarginSupport(kK, PrivBasisOptions{}.eta);
  const double margin_ms = MsSince(start);
  auto truth = reference->Truth(kK);
  if (!truth.ok()) {
    report->Check(false, "ground truth: " + truth.status().ToString());
    return;
  }

  // ---- timed window ---------------------------------------------------
  std::vector<ClientLog> logs(kClients);
  const double window_ms = options.seconds * 1000.0;
  HostSpeed host;
  const CpuTicks window_ticks = ReadCpuTicks();
  const auto window_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, server.port(), options.seed, c,
                           window_start, window_ms, &logs[c]);
    }
    // Host speed while the clients run, sampled from this thread: one
    // ≈1.5 ms kernel every kSampleEveryMs, ≈3% of one vCPU.
    while (MsSince(window_start) < window_ms) {
      host.Sample(MsSince(window_start));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(HostSpeed::kSampleEveryMs));
    }
    for (auto& t : clients) t.join();
  }
  const double steal_share = StealShareSince(window_ticks);
  report->Metric("peak_rss_mb", PeakRssMbOf(server.pid()), "MiB", 1);
  server.Stop();
  fs::remove_all(state_dir);

  // ---- untimed: replay served releases in-process, score utility ------
  std::shared_ptr<const CountExecutor> exec =
      options.trace ? reference->EnsureCountExecutor() : nullptr;
  const Dataset::CacheCounters before = reference->cache_counters();
  std::vector<double> query_ms, query_end_ms, budget_ms, budget_bytes,
      register_ms, inprocess_ms, fnr, re;
  double last_end_ms = 0;
  StageSummary stages;
  WireCost wire;
  for (int c = 0; c < kClients; ++c) {
    ClientLog& log = logs[c];
    report->Absorb(log.ops);
    query_ms.insert(query_ms.end(), log.query_ms.begin(), log.query_ms.end());
    budget_ms.insert(budget_ms.end(), log.budget_ms.begin(),
                     log.budget_ms.end());
    budget_bytes.insert(budget_bytes.end(), log.budget_bytes.begin(),
                        log.budget_bytes.end());
    register_ms.insert(register_ms.end(), log.register_ms.begin(),
                       log.register_ms.end());
    last_end_ms = std::max(last_end_ms, log.last_query_end_ms);
    query_end_ms.insert(query_end_ms.end(), log.query_end_ms.begin(),
                        log.query_end_ms.end());

    for (uint64_t i = 0; i < kReplayPerClient; ++i) {
      const QuerySpec spec =
          SpecFor(QuerySeed(options.seed, kClientStream + c, i));
      Result<TracedQuery> traced = Status::Internal("not traced");
      if (options.trace && i % 2 == 1) {
        traced = RunTraced(*reference, spec, *exec);
      }
      const auto run_start = Clock::now();
      auto local = Engine::Run(*reference, spec);
      const double ms = MsSince(run_start);
      if (options.trace && i % 2 == 0) {
        traced = RunTraced(*reference, spec, *exec);
      }
      inprocess_ms.push_back(ms);
      if (!local.ok()) {
        report->Op("replay: " + local.status().ToString());
        continue;
      }
      std::string error;
      if (i < log.releases.size()) {
        // Served == in-process, bit for bit (server/server.h). A failed
        // query was already counted; its seed is scored in-process.
        if (log.releases[i].has_value()) {
          if (std::string diff = CompareReleases(*log.releases[i], *local);
              !diff.empty()) {
            error = "served release differs from Engine::Run: " + diff;
          }
        }
      } else {
        // The window ended before this seed; score the in-process twin.
        report->Op(CheckRelease(*local, kK));
      }
      if (options.trace && error.empty()) {
        if (!traced.ok()) {
          error = "traced run: " + traced.status().ToString();
        } else if (std::string diff = CompareReleases(traced->release, *local);
                   !diff.empty()) {
          error = "traced release differs from Engine::Run: " + diff;
        } else {
          stages.Add(*traced, ms);
          error = wire.Add("ds-1", spec, *local);
        }
      }
      report->Check(error.empty(), error);
      const UtilityMetrics u = ComputeUtility((*truth)->topk.itemsets,
                                              local->itemsets,
                                              *(*truth)->index);
      fnr.push_back(u.fnr);
      re.push_back(u.relative_error);
    }
  }
  const Dataset::CacheCounters after = reference->cache_counters();
  const size_t cache_builds = CacheBuilds(before, after);
  report->Check(cache_builds == 0, "a warm query rebuilt a dataset cache");

  // ---- metrics --------------------------------------------------------
  // Per-block p50, tail and throughput at the reference host speed; the
  // last block also holds the queries in flight at the deadline, and lasts
  // until the last one ends.
  const std::vector<double> factor = host.BlockFactors(window_ms);
  const std::vector<double> scaled_ms =
      host.AtReference(query_ms, query_end_ms, window_ms);
  const auto block_ms = SplitIntoBlocks(scaled_ms, query_end_ms, window_ms);
  const double block_len_ms = window_ms / kWindowBlocks;
  std::vector<double> block_tail, block_qps;
  size_t min_beyond = 0;
  for (int b = 0; b < kWindowBlocks; ++b) {
    if (block_ms[b].empty()) continue;
    const Tail tail = TailOf(block_ms[b], kTailPercentile);
    min_beyond = block_tail.empty() ? tail.beyond
                                    : std::min(min_beyond, tail.beyond);
    block_tail.push_back(tail.value);
    const double block_end_ms = b == kWindowBlocks - 1
                                    ? std::max(last_end_ms, window_ms)
                                    : (b + 1) * block_len_ms;
    block_qps.push_back(static_cast<double>(block_ms[b].size()) /
                        ((block_end_ms - b * block_len_ms) / 1000.0) /
                        factor[b]);
  }
  report->Check(min_beyond >= kMinTailBeyond,
                "only " + std::to_string(min_beyond) +
                    " samples beyond the tail percentile in a block");
  const size_t n = query_ms.size();
  report->Metric("query_p50_ms", MedianOfBlockMedians(block_ms), "ms", n);
  const double served_p50 = MedianOfBlockMedians(
      SplitIntoBlocks(query_ms, query_end_ms, window_ms));
  report->Fact("raw_query_p50_ms", served_p50);
  report->Fact("host_kernel_ms", host.MedianKernelMs());
  report->Fact("host_kernel_samples", host.samples());
  report->Fact("host_steal_share", steal_share);
  report->Metric("query_tail_ms", Median(block_tail), "ms", n);
  report->Fact("query_tail_percentile", kTailPercentile);
  report->Fact("query_tail_beyond", min_beyond);
  report->Fact("query_quantiles_ms", QuantileFact(scaled_ms));
  report->Metric("throughput_qps", Median(block_qps), "1/s", n);
  report->Metric("setup_s", Median(setup_s) * setup_host.Factor(), "s",
                 setup_s.size());
  report->Fact("raw_setup_s", Median(setup_s));
  // Reported as recall = 1 − FNR: FNR itself reads 0 on some seeds of an
  // easy workload, and a metric judged by its relative change must not.
  report->Metric("recall", 1.0 - Mean(fnr), "ratio", fnr.size());
  report->Fact("fnr", Mean(fnr));
  report->Metric("median_re", Mean(re), "ratio", re.size());
  report->Fact("window_s", last_end_ms / 1000.0);
  report->Fact("clients", kClients);
  report->Fact("client_model", "closed-loop, keep-alive");
  report->Fact("fsync", kFsyncPolicy);
  report->Fact("lifecycle_requests", kLifecycleRequests);
  report->Fact("budget_reads", budget_ms.size());
  report->Fact("registrations", register_ms.size());
  report->Fact("budget_bytes_max",
               budget_bytes.empty()
                   ? 0.0
                   : *std::max_element(budget_bytes.begin(),
                                       budget_bytes.end()));
  RegistrationCost(logs, window_ms, report);

  if (!options.trace) return;
  stages.Emit(report);
  wire.Emit(report);
  const double inprocess_p50 = Median(inprocess_ms);
  report->Fact("inprocess_p50_ms", inprocess_p50);
  report->Metric("server.overhead_ms", served_p50 - inprocess_p50, "ms", n);
  report->Metric("server.budget_read_ms", Median(budget_ms), "ms",
                 budget_ms.size());
  report->Metric("server.budget_bytes", Mean(budget_bytes), "bytes",
                 budget_bytes.size());
  report->Metric("server.register_ms", Median(register_ms), "ms",
                 register_ms.size());
  report->Metric("engine.margin_ms", margin_ms, "ms", 1);
  report->Metric("data.generate_ms", generate_ms, "ms", 1);
  report->Metric("engine.cache_builds", static_cast<double>(cache_builds),
                 "count", 1);
  WalCost(options.work_dir + "/trace.wal", kFsyncPolicy, 64, report);
}

}  // namespace perfbench
