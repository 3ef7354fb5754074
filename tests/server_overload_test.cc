// Overload contract of the query server (server/server.h +
// server/admission.h), exercised in process at 2× capacity:
//   * a query whose predicted latency blows the SLO is refused with an
//     immediate 429 + Retry-After + the predicted cost, ε untouched;
//   * a connection arriving past the bounded worker queue is shed with
//     an immediate 503 + Retry-After — no request ever waits a deadline
//     out just to learn the server was full;
//   * a client deadline expiring mid-scan answers 408, frees the
//     worker, and charges the full reservation (fail-closed);
//   * under a 2×-capacity storm of mixed cheap/expensive queries with
//     failpoint-slowed scans, accepted ε sums exactly to the ledger and
//     admitted latencies stay within the SLO;
//   * admission never perturbs determinism: an admitted query is
//     bit-identical to a direct Engine::Run.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/engine.h"
#include "server/admission.h"
#include "server/wire.h"
#include "test_util.h"

namespace privbasis::server {
namespace {

using ::privbasis::testing::MakeDb;
using ::privbasis::testing::MakeRandomDb;

constexpr int64_t kCallTimeoutMs = 30'000;

std::unique_ptr<QueryServer> StartServer(ServerOptions options = {}) {
  auto server = std::make_unique<QueryServer>(std::move(options));
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started;
  return server;
}

Result<HttpResponse> Call(const QueryServer& server,
                          const std::string& method,
                          const std::string& target,
                          const std::string& body = "") {
  return HttpCall(server.host(), server.port(), method, target, body,
                  kCallTimeoutMs);
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

TEST(AdmissionControllerTest, DecideShedsOnCostAndQueueButNotCheapWork) {
  AdmissionController admission({.slo_ms = 100, .max_queue_depth = 4});

  // Cheap work admits regardless of backlog: a query that already holds
  // a worker IS the capacity, so a full queue alone must never starve
  // the server into zero throughput.
  EXPECT_TRUE(admission.Decide(1e4, 0).admit);
  EXPECT_TRUE(admission.Decide(1e4, 4).admit);

  // Predicted cost above the SLO sheds even with an empty queue.
  const AdmissionDecision expensive = admission.Decide(1e7, 0);
  EXPECT_FALSE(expensive.admit);
  EXPECT_EQ(expensive.reason, ShedReason::kPredictedCost);
  EXPECT_GT(expensive.predicted_ms, 100.0);
  EXPECT_GE(expensive.retry_after_s, 1);
  EXPECT_LE(expensive.retry_after_s, 60);

  // Expensive work meeting a full queue sheds as queue pressure (the
  // backlog ahead of it has eaten its latency headroom).
  const AdmissionDecision crowded = admission.Decide(1e7, 4);
  EXPECT_FALSE(crowded.admit);
  EXPECT_EQ(crowded.reason, ShedReason::kQueueFull);

  // Disabled knobs admit everything.
  AdmissionController off({});
  EXPECT_TRUE(off.Decide(1e12, 1000).admit);
}

TEST(AdmissionControllerTest, CostModelOrdersSpecsAndCalibrates) {
  DatasetStats stats;
  stats.num_transactions = 1000;
  stats.avg_transaction_len = 8.0;
  stats.total_occurrences = 8000;

  // More k, more predicted work; subsampling scales it down.
  const QuerySpec k5 = QuerySpec().WithTopK(5);
  const QuerySpec k100 = QuerySpec().WithTopK(100);
  EXPECT_LT(CostModel::WorkUnits(stats, k5),
            CostModel::WorkUnits(stats, k100));
  EXPECT_LT(CostModel::WorkUnits(stats, QuerySpec(k100).WithAmplification(
                                            0.5)),
            CostModel::WorkUnits(stats, k100));
  EXPECT_GT(CostModel::WorkUnits(
                stats, QuerySpec().WithMethod(
                           QueryMethod::kTruncatedFrequency)),
            0.0);

  // Observations re-anchor the ns-per-unit EWMA; garbage observations
  // are ignored.
  CostModel model;
  const double before = model.PredictMs(1000.0);
  model.Observe(0.0, 5.0);
  model.Observe(1000.0, -1.0);
  EXPECT_DOUBLE_EQ(model.PredictMs(1000.0), before);
  model.Observe(1000.0, 1.0);  // observed 1000 ns/unit >> the 57 seed
  EXPECT_GT(model.PredictMs(1000.0), before);
}

TEST(ServerOverloadTest, PredictedCostShedIs429ImmediatelyLedgerUntouched) {
  // Large enough that the seeded cost model predicts well over 1 ms.
  TransactionDatabase db = MakeRandomDb(
      {.seed = 31, .num_transactions = 5000, .universe = 24,
       .item_prob = 0.3});
  ServerOptions options;
  options.admission.slo_ms = 1;
  auto server = StartServer(std::move(options));
  auto dataset = Dataset::Create(db, {.total_epsilon = 5.0});
  const std::string id = *server->registry().Register(dataset);

  const auto started = std::chrono::steady_clock::now();
  auto shed = Call(*server, "POST", "/v1/query",
                   "{\"dataset\":\"" + id +
                       "\",\"k\":100,\"epsilon\":0.5,\"seed\":3}");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->status, 429);
  // The refusal is immediate — milliseconds, not a served-query's worth
  // of latency (generous bound for loaded CI machines).
  EXPECT_LT(ElapsedMs(started), 2500.0);

  // The shed names its own backoff and its reasoning.
  ASSERT_NE(shed->Header("Retry-After"), nullptr);
  auto body = json::Parse(shed->body);
  ASSERT_TRUE(body.ok());
  ASSERT_NE(body->Find("predicted_ms"), nullptr);
  EXPECT_GT(*body->Find("predicted_ms")->GetDouble(), 1.0);
  EXPECT_NE(body->Find("error"), nullptr);

  // Nothing was reserved, spent, or itemized.
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());

  // The same SLO still admits cheap work: the model discriminates by
  // predicted cost, not blanket refusal.
  const std::string tiny = *server->registry().Register(
      Dataset::Create(MakeDb({{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}, {1}})));
  auto cheap = Call(*server, "POST", "/v1/query",
                    "{\"dataset\":\"" + tiny +
                        "\",\"k\":3,\"epsilon\":0.5,\"seed\":4}");
  ASSERT_TRUE(cheap.ok()) << cheap.status();
  EXPECT_EQ(cheap->status, 200);

  const auto counters = server->counters();
  EXPECT_EQ(counters.queries_shed_predicted, 1u);
  EXPECT_EQ(counters.queries_admitted, 1u);
  EXPECT_EQ(counters.queries_completed, 1u);

  // /v1/stats mirrors the same counters and the live calibration.
  auto stats = Call(*server, "GET", "/v1/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->status, 200);
  auto parsed = json::Parse(stats->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->Find("queries")->Find("shed_predicted")->GetUint(), 1u);
  EXPECT_EQ(*parsed->Find("queries")->Find("completed")->GetUint(), 1u);
  EXPECT_EQ(*parsed->Find("admission")->Find("slo_ms")->GetUint(), 1u);
  EXPECT_GT(*parsed->Find("admission")->Find("ns_per_unit")->GetDouble(),
            0.0);
}

TEST(ServerOverloadTest, DeadlineMidScanIs408AndChargesFullReservation) {
  TransactionDatabase db =
      MakeRandomDb({.seed = 13, .num_transactions = 200});
  auto server = StartServer();
  auto dataset = Dataset::Create(db, {.total_epsilon = 2.0});
  const std::string id = *server->registry().Register(dataset);

  // Stall the BasisFreq scan well past the client deadline: the cancel
  // token fires mid-scan, after the ε reservation.
  ASSERT_TRUE(failpoint::Configure("basis_freq_chunk=sleep:800").ok());
  auto cancelled = Call(*server, "POST", "/v1/query",
                        "{\"dataset\":\"" + id +
                            "\",\"k\":10,\"epsilon\":1.0,\"seed\":7,"
                            "\"deadline_ms\":200}");
  failpoint::Reset();
  ASSERT_TRUE(cancelled.ok()) << cancelled.status();
  EXPECT_EQ(cancelled->status, 408);

  // Fail-closed: noise may have been observed, so the aborted lease
  // charges its FULL reservation — never a refund, never a partial.
  EXPECT_DOUBLE_EQ(dataset->accountant()->spent_epsilon(), 1.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  ASSERT_EQ(dataset->accountant()->ledger().size(), 1u);

  const auto counters = server->counters();
  EXPECT_EQ(counters.queries_admitted, 1u);
  EXPECT_EQ(counters.queries_cancelled, 1u);
  EXPECT_EQ(counters.queries_completed, 0u);

  // The worker is free and the dataset still serves: the identical spec
  // without the stall completes and the ledger extends coherently.
  auto ok = Call(*server, "POST", "/v1/query",
                 "{\"dataset\":\"" + id +
                     "\",\"k\":10,\"epsilon\":1.0,\"seed\":7}");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->status, 200);
  EXPECT_DOUBLE_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  EXPECT_GT(dataset->accountant()->ledger().size(), 1u);
  EXPECT_GT(dataset->accountant()->spent_epsilon(), 1.0);
  EXPECT_LE(dataset->accountant()->spent_epsilon(), 2.0 + 1e-9);
}

TEST(ServerOverloadTest, TwoXCapacityStormShedsPromptlyConservesEpsilon) {
  // 12 one-shot clients against 2 workers + a 2-deep queue, every scan
  // failpoint-slowed to ~250 ms: three times the server's standing
  // capacity arrives at once. Contract: every refusal is an immediate
  // 503 + Retry-After (never a 408 after waiting, never a hang), every
  // completion lands within the SLO, and accepted ε sums exactly to the
  // ledger.
  TransactionDatabase db = MakeRandomDb(
      {.seed = 21, .num_transactions = 400, .universe = 24,
       .item_prob = 0.3});
  ServerOptions options;
  options.num_threads = 2;
  options.admission.slo_ms = 10'000;
  options.admission.max_queue_depth = 2;
  auto server = StartServer(std::move(options));
  auto dataset = Dataset::Create(db, {.total_epsilon = 100.0});
  const std::string id = *server->registry().Register(dataset);

  ASSERT_TRUE(failpoint::Configure("basis_freq_chunk=sleep:250").ok());

  constexpr int kClients = 12;
  struct Outcome {
    int status = 0;
    double elapsed_ms = 0.0;
    double spent = 0.0;
    bool has_retry_after = false;
    bool transport_error = false;
  };
  std::vector<Outcome> outcomes(kClients);
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Mixed load: alternate cheap and expensive specs.
      const std::string body =
          "{\"dataset\":\"" + id + "\",\"k\":" +
          std::to_string(c % 2 == 0 ? 5 : 40) +
          ",\"epsilon\":0.25,\"seed\":" + std::to_string(2000 + c) + "}";
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto started = std::chrono::steady_clock::now();
      auto response = Call(*server, "POST", "/v1/query", body);
      outcomes[c].elapsed_ms = ElapsedMs(started);
      if (!response.ok()) {
        outcomes[c].transport_error = true;
        return;
      }
      outcomes[c].status = response->status;
      outcomes[c].has_retry_after =
          response->Header("Retry-After") != nullptr;
      if (response->status == 200) {
        auto release = ReleaseFromJson(*json::Parse(response->body));
        if (release.ok()) outcomes[c].spent = release->epsilon_spent;
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  failpoint::Reset();

  int completed = 0;
  int shed = 0;
  double accepted_total = 0.0;
  double max_completed_ms = 0.0;
  for (const Outcome& outcome : outcomes) {
    ASSERT_FALSE(outcome.transport_error);
    if (outcome.status == 200) {
      ++completed;
      accepted_total += outcome.spent;
      max_completed_ms = std::max(max_completed_ms, outcome.elapsed_ms);
    } else {
      // Every refusal is a connection shed: immediate, retryable, and
      // self-describing. A 408 here would mean someone waited the
      // deadline out just to be turned away.
      ASSERT_EQ(outcome.status, 503) << "unexpected status";
      EXPECT_TRUE(outcome.has_retry_after);
      EXPECT_LT(outcome.elapsed_ms, 2000.0);
      ++shed;
    }
  }
  // 12 simultaneous arrivals, 4 slots (2 running + 2 queued), each held
  // ≥250 ms: sheds must happen, and everything accepted must finish.
  EXPECT_GT(shed, 0);
  EXPECT_GE(completed, 2);
  EXPECT_EQ(completed + shed, kClients);
  EXPECT_LE(max_completed_ms,
            static_cast<double>(server->admission().options().slo_ms));

  // ε conservation under overload: the ledger is exactly the accepted
  // spends — sheds and cancels left no trace, commits lost nothing.
  EXPECT_NEAR(dataset->accountant()->spent_epsilon(), accepted_total, 1e-9);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);
  double itemized = 0.0;
  for (const auto& entry : dataset->accountant()->ledger()) {
    itemized += entry.epsilon;
  }
  EXPECT_NEAR(itemized, accepted_total, 1e-9);
  // Every completed query itemized at least one ledger entry; nothing
  // else wrote any.
  EXPECT_GE(dataset->accountant()->ledger().size(),
            static_cast<size_t>(completed));

  const auto counters = server->counters();
  EXPECT_EQ(counters.connections_shed, static_cast<uint64_t>(shed));
  EXPECT_EQ(counters.queries_completed, static_cast<uint64_t>(completed));
  EXPECT_EQ(counters.queries_admitted, counters.queries_completed);

  // Determinism survives admission: a served query after the storm is
  // bit-identical to a direct Engine::Run on the same data.
  const QuerySpec spec =
      QuerySpec().WithTopK(8).WithEpsilon(0.25).WithSeed(777);
  json::Value body = QuerySpecToJson(spec);
  body.Set("dataset", id);
  auto served = Call(*server, "POST", "/v1/query", body.Dump());
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_EQ(served->status, 200);
  auto release = ReleaseFromJson(*json::Parse(served->body));
  ASSERT_TRUE(release.ok()) << release.status();
  auto direct = Engine::Run(*Dataset::Create(db), spec);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(release->itemsets.size(), direct->itemsets.size());
  for (size_t i = 0; i < release->itemsets.size(); ++i) {
    EXPECT_EQ(release->itemsets[i].items, direct->itemsets[i].items);
    EXPECT_EQ(release->itemsets[i].noisy_count,
              direct->itemsets[i].noisy_count);
  }
}

}  // namespace
}  // namespace privbasis::server
