// End-to-end contract of the query server (server/server.h), exercised
// in process on an ephemeral loopback port:
//   * a served query is bit-identical to a direct Engine::Run with the
//     same dataset, spec, and seed;
//   * malformed / oversized / overdrafting requests get the documented
//     response codes, and a refusal never touches the ledger;
//   * 16 concurrent clients hammering one finite budget cannot
//     double-spend or lose a commit: accepted ε sums exactly to the
//     ledger, refused requests leave no trace.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "server/wire.h"
#include "test_util.h"

namespace privbasis::server {
namespace {

using ::privbasis::testing::MakeRandomDb;

constexpr int64_t kCallTimeoutMs = 30'000;

/// Starts a server, fails the test on error.
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

/// POSTs a /v1/query body and parses the Release on 200.
Result<Release> Query(const QueryServer& server, const std::string& body,
                      int* http_status = nullptr) {
  PRIVBASIS_ASSIGN_OR_RETURN(HttpResponse response,
                             Call(server, "POST", "/v1/query", body));
  if (http_status != nullptr) *http_status = response.status;
  PRIVBASIS_ASSIGN_OR_RETURN(json::Value parsed,
                             json::Parse(response.body));
  if (response.status != 200) {
    const json::Value* error = parsed.Find("error");
    return Status(StatusCode::kInternal,
                  error != nullptr ? error->Dump() : response.body);
  }
  return ReleaseFromJson(parsed);
}

bool SameItemsets(const std::vector<NoisyItemset>& a,
                  const std::vector<NoisyItemset>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].items == b[i].items) || a[i].noisy_count != b[i].noisy_count) {
      return false;
    }
  }
  return true;
}

TEST(ServerTest, HealthzAndRouting) {
  auto server = StartServer();
  auto health = Call(*server, "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  auto parsed = json::Parse(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("status")->Dump(), "\"ok\"");

  // Unknown route → 404; wrong method on a known route (including the
  // per-dataset path shapes) → 405, distinguishable from an unknown id.
  EXPECT_EQ(Call(*server, "GET", "/nope")->status, 404);
  EXPECT_EQ(Call(*server, "GET", "/v1/query")->status, 405);
  EXPECT_EQ(Call(*server, "PUT", "/healthz")->status, 405);
  EXPECT_EQ(Call(*server, "POST", "/v1/datasets/ds-x/budget")->status, 405);
  EXPECT_EQ(Call(*server, "GET", "/v1/datasets/ds-x")->status, 405);
}

TEST(ServerTest, MalformedContentLengthIs400) {
  auto server = StartServer();
  // A negative or duplicated Content-Length is a framing error → 400
  // (never a strtoull wraparound answered 413).
  for (const char* headers :
       {"Content-Length: -1\r\n", "Content-Length: 1e3\r\n",
        "Content-Length: 5\r\nContent-Length: 24\r\n"}) {
    auto fd = net::ConnectTcp(server->host(), server->port(),
                              net::DeadlineAfterMs(kCallTimeoutMs));
    ASSERT_TRUE(fd.ok()) << fd.status();
    const std::string request =
        std::string("POST /v1/query HTTP/1.1\r\nHost: t\r\n") + headers +
        "\r\n";
    ASSERT_TRUE(net::WriteAll(*fd, request,
                              net::DeadlineAfterMs(kCallTimeoutMs))
                    .ok());
    char buf[512];
    auto n = net::ReadSome(*fd, buf, sizeof(buf),
                           net::DeadlineAfterMs(kCallTimeoutMs));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 12u) << headers;
    EXPECT_EQ(std::string(buf, 12), "HTTP/1.1 400") << headers;
  }
}

TEST(ServerTest, ServedReleaseBitIdenticalToDirectEngineRun) {
  TransactionDatabase db = MakeRandomDb({.seed = 5, .num_transactions = 250});
  auto server = StartServer();
  const std::string id = *server->registry().Register(Dataset::Create(db));

  const QuerySpec spec =
      QuerySpec().WithTopK(12).WithEpsilon(1.0).WithSeed(77);
  json::Value body = QuerySpecToJson(spec);
  body.Set("dataset", id);
  auto served = Query(*server, body.Dump());
  ASSERT_TRUE(served.ok()) << served.status();

  // Direct run on a fresh (cold) handle over the same data — the
  // served release must be the bit-identical answer.
  auto direct = Engine::Run(*Dataset::Create(db), spec);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_TRUE(SameItemsets(served->itemsets, direct->itemsets));
  EXPECT_EQ(served->lambda, direct->lambda);
  EXPECT_EQ(served->lambda2, direct->lambda2);
  EXPECT_EQ(served->epsilon_spent, direct->epsilon_spent);  // == on doubles

  // And serving is deterministic: the same request again answers with
  // the identical bytes-on-the-wire release.
  auto again = Query(*server, body.Dump());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(SameItemsets(served->itemsets, again->itemsets));
}

TEST(ServerTest, ThresholdAmplifiedAndTfVariantsServe) {
  TransactionDatabase db = MakeRandomDb({.seed = 9, .num_transactions = 200});
  auto server = StartServer();
  const std::string id = *server->registry().Register(Dataset::Create(db));
  const QuerySpec variants[] = {
      QuerySpec().WithThreshold(0.2, 30).WithEpsilon(1.0).WithSeed(3),
      QuerySpec().WithTopK(10).WithAmplification(0.6).WithSeed(4),
      QuerySpec()
          .WithMethod(QueryMethod::kTruncatedFrequency)
          .WithTopK(8)
          .WithSeed(5),
      QuerySpec().WithTopK(10).WithRules(0.5).WithEpsilon(200.0).WithSeed(6),
  };
  for (const QuerySpec& spec : variants) {
    json::Value body = QuerySpecToJson(spec);
    body.Set("dataset", id);
    auto served = Query(*server, body.Dump());
    ASSERT_TRUE(served.ok()) << served.status();
    auto direct = Engine::Run(*Dataset::Create(db), spec);
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_TRUE(SameItemsets(served->itemsets, direct->itemsets));
  }
}

TEST(ServerTest, MalformedJsonIs400) {
  auto server = StartServer();
  auto response = Call(*server, "POST", "/v1/query", "{\"k\": 12");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 400);
  // The body names the error in the documented envelope.
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->Find("error"), nullptr);

  // Unknown spec keys and bad specs are 400 too.
  EXPECT_EQ(Call(*server, "POST", "/v1/query",
                 "{\"dataset\":\"ds-1\",\"epsilom\":1}")
                ->status,
            400);
  EXPECT_EQ(Call(*server, "POST", "/v1/datasets", "not json")->status, 400);
  // A typoed registration key must 400, never register fail-open with
  // an unlimited ε budget; profile-only keys on other sources likewise.
  EXPECT_EQ(Call(*server, "POST", "/v1/datasets",
                 "{\"profile\":\"mushroom\",\"bugdet\":2.0}")
                ->status,
            400);
  EXPECT_EQ(Call(*server, "POST", "/v1/datasets",
                 "{\"transactions\":[[1,2]],\"scale\":0.5}")
                ->status,
            400);
  EXPECT_EQ(server->registry().size(), 0u);
}

// "eta": 1e400 parses to +inf. The spec must 400 before any ε is
// reserved, never reach the ⌈η·k⌉ cast.
TEST(ServerTest, NonFiniteEtaIs400) {
  auto server = StartServer();
  auto dataset =
      Dataset::Create(MakeRandomDb({.seed = 9, .num_transactions = 200}));
  const std::string id = *server->registry().Register(dataset);
  auto response =
      Call(*server, "POST", "/v1/query",
           "{\"dataset\":\"" + id + "\",\"k\":20,\"pb\":{\"eta\":1e400}}");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 400) << response->body;
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.0);
  EXPECT_TRUE(dataset->accountant()->ledger().empty());
}

TEST(ServerTest, OversizedBodyIs413) {
  ServerOptions options;
  options.max_body_bytes = 512;
  auto server = StartServer(std::move(options));
  const std::string big(2048, 'x');
  auto response = Call(*server, "POST", "/v1/query", big);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 413);
}

TEST(ServerTest, OversizedHeadersAre431AndClose) {
  auto server = StartServer();
  auto fd = net::ConnectTcp(server->host(), server->port(),
                            net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(fd.ok()) << fd.status();
  std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n";
  while (request.size() < 17 * 1024) {
    request += "X-Pad: 0123456789abcdef\r\n";
  }
  request += "\r\n";
  ASSERT_TRUE(
      net::WriteAll(*fd, request, net::DeadlineAfterMs(kCallTimeoutMs)).ok());
  // Read to EOF: the server answers, then closes the connection.
  std::string response;
  char buf[4096];
  for (;;) {
    auto n = net::ReadSome(*fd, buf, sizeof(buf),
                           net::DeadlineAfterMs(kCallTimeoutMs));
    ASSERT_TRUE(n.ok()) << n.status();
    if (*n == 0) break;
    response.append(buf, *n);
  }
  EXPECT_TRUE(response.starts_with("HTTP/1.1 431")) << response;
  EXPECT_NE(response.find("\r\nConnection: close\r\n"), std::string::npos)
      << response;
}

TEST(ServerTest, RequestDeadlineIs408) {
  ServerOptions options;
  options.request_deadline_ms = 150;
  auto server = StartServer(std::move(options));
  // Send a partial request head and stall: the server must answer 408
  // once the request deadline expires (not hang forever).
  auto fd = net::ConnectTcp(server->host(), server->port(),
                            net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(net::WriteAll(*fd, "POST /v1/query HTTP/1.1\r\nContent-",
                            net::DeadlineAfterMs(kCallTimeoutMs))
                  .ok());
  char buf[512];
  auto n = net::ReadSome(*fd, buf, sizeof(buf),
                         net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_GT(*n, 12u);
  EXPECT_EQ(std::string(buf, 12), "HTTP/1.1 408");
}

TEST(ServerTest, UnknownDatasetIs404) {
  auto server = StartServer();
  int status = 0;
  auto release =
      Query(*server, "{\"dataset\":\"ds-404\",\"k\":5}", &status);
  EXPECT_FALSE(release.ok());
  EXPECT_EQ(status, 404);
  EXPECT_EQ(Call(*server, "GET", "/v1/datasets/ds-404/budget")->status, 404);
}

TEST(ServerTest, BudgetExhaustionIs429AndLedgerUntouched) {
  TransactionDatabase db = MakeRandomDb({.seed = 11});
  auto server = StartServer();
  auto dataset = Dataset::Create(db, {.total_epsilon = 1.0});
  const std::string id = *server->registry().Register(dataset);

  // Spend 0.6 of the 1.0 budget.
  auto first = Query(
      *server, "{\"dataset\":\"" + id + "\",\"k\":5,\"epsilon\":0.6}");
  ASSERT_TRUE(first.ok()) << first.status();

  const double spent_before = dataset->accountant()->spent_epsilon();
  const size_t entries_before = dataset->accountant()->ledger().size();

  // 0.6 more would overdraw: 429, and the ledger must not move.
  int status = 0;
  auto refused = Query(
      *server,
      "{\"dataset\":\"" + id + "\",\"k\":5,\"epsilon\":0.6,\"seed\":2}",
      &status);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(status, 429);
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), spent_before);
  EXPECT_EQ(dataset->accountant()->ledger().size(), entries_before);

  // The budget endpoint reports the same (unchanged) ledger.
  auto budget = Call(*server, "GET", "/v1/datasets/" + id + "/budget");
  ASSERT_TRUE(budget.ok()) << budget.status();
  ASSERT_EQ(budget->status, 200);
  auto parsed = json::Parse(budget->body);
  ASSERT_TRUE(parsed.ok());
  auto reported_spent = parsed->Find("spent")->GetDouble();
  ASSERT_TRUE(reported_spent.ok());
  EXPECT_EQ(*reported_spent, spent_before);  // bit-identical readback
}

TEST(ServerTest, HammerSixteenClientsConserveEpsilon) {
  // 16 clients race 4 queries each against one dataset whose budget
  // only covers a fraction of the demand. Contract: every accepted
  // query's ε sums exactly to the ledger total (no double-spend, no
  // lost commit), refusals leave no trace, and the total never exceeds
  // the budget.
  TransactionDatabase db = MakeRandomDb({.seed = 13, .num_transactions = 150});
  ServerOptions options;
  options.num_threads = 8;
  auto server = StartServer(std::move(options));
  const double total_budget = 4.0;
  auto dataset = Dataset::Create(db, {.total_epsilon = total_budget});
  const std::string id = *server->registry().Register(dataset);

  constexpr int kClients = 16;
  constexpr int kQueriesPerClient = 4;
  const double per_query = 0.25;  // demand 16.0 total vs 4.0 budget
  std::vector<std::vector<double>> accepted_spends(kClients);
  std::vector<int> rejected(kClients, 0);
  std::atomic<int> transport_errors{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const uint64_t seed = 1000 + c * kQueriesPerClient + q;
        int status = 0;
        auto release = Query(
            *server,
            "{\"dataset\":\"" + id + "\",\"k\":8,\"epsilon\":0.25,"
            "\"seed\":" + std::to_string(seed) + "}",
            &status);
        if (release.ok()) {
          accepted_spends[c].push_back(release->epsilon_spent);
        } else if (status == 429) {
          ++rejected[c];
        } else {
          ++transport_errors;
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(transport_errors.load(), 0);
  double accepted_total = 0.0;
  int accepted_count = 0;
  for (const auto& spends : accepted_spends) {
    for (double spend : spends) {
      EXPECT_GT(spend, 0.0);
      EXPECT_LE(spend, per_query + 1e-9);
      accepted_total += spend;
      ++accepted_count;
    }
  }
  int rejected_count = 0;
  for (int r : rejected) rejected_count += r;

  // Some queries were necessarily refused, and at least the budget's
  // worth was served.
  EXPECT_EQ(accepted_count + rejected_count, kClients * kQueriesPerClient);
  EXPECT_GT(rejected_count, 0);
  EXPECT_GE(accepted_count, static_cast<int>(total_budget / per_query));

  // ε conservation: the ledger is exactly the accepted spends — same
  // total (up to summation order), same count of committed queries via
  // the itemized entries' sum, and never above the budget.
  const double ledger_total = dataset->accountant()->spent_epsilon();
  EXPECT_NEAR(ledger_total, accepted_total, 1e-9);
  EXPECT_LE(ledger_total, total_budget + 1e-9);
  double itemized = 0.0;
  for (const auto& entry : dataset->accountant()->ledger()) {
    itemized += entry.epsilon;
  }
  EXPECT_NEAR(itemized, accepted_total, 1e-9);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);

  // The health counters agree with the client-side tally.
  const auto counters = server->counters();
  EXPECT_EQ(counters.queries_ok, static_cast<uint64_t>(accepted_count));
  EXPECT_EQ(counters.queries_rejected,
            static_cast<uint64_t>(rejected_count));
}

TEST(ServerTest, RegistryCountCapIs429UntilEviction) {
  ServerOptions options;
  options.registry_limits.max_datasets = 1;
  auto server = StartServer(std::move(options));
  auto first = Call(*server, "POST", "/v1/datasets",
                    "{\"transactions\":[[0,1],[1,2]]}");
  ASSERT_EQ(first->status, 201);
  // The registry is full: further wire registrations are refused...
  EXPECT_EQ(Call(*server, "POST", "/v1/datasets",
                 "{\"transactions\":[[0,1],[1,2]]}")
                ->status,
            429);
  // ...until something is evicted.
  auto id = json::Parse(first->body)->Find("dataset")->GetString();
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(Call(*server, "DELETE", "/v1/datasets/" + *id)->status, 204);
  EXPECT_EQ(Call(*server, "POST", "/v1/datasets",
                 "{\"transactions\":[[0,1],[1,2]]}")
                ->status,
            201);
}

TEST(ServerTest, RegisterQueryEvictOverHttp) {
  auto server = StartServer();
  // Inline registration.
  auto registered = Call(*server, "POST", "/v1/datasets",
                         "{\"transactions\":[[0,1,2],[0,1],[1,2],[0,1,2],"
                         "[2],[0,1]],\"budget\":3.5}");
  ASSERT_TRUE(registered.ok()) << registered.status();
  ASSERT_EQ(registered->status, 201);
  auto parsed = json::Parse(registered->body);
  ASSERT_TRUE(parsed.ok());
  auto id = parsed->Find("dataset")->GetString();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*parsed->Find("num_transactions")->GetUint(), 6u);

  auto release = Query(
      *server, "{\"dataset\":\"" + *id + "\",\"k\":4,\"epsilon\":1.0}");
  ASSERT_TRUE(release.ok()) << release.status();
  EXPECT_FALSE(release->itemsets.empty());
  EXPECT_NEAR(release->epsilon_remaining, 3.5 - release->epsilon_spent,
              1e-9);

  // Eviction: 204, then the handle is gone for new requests.
  EXPECT_EQ(Call(*server, "DELETE", "/v1/datasets/" + *id)->status, 204);
  int status = 0;
  auto after = Query(
      *server, "{\"dataset\":\"" + *id + "\",\"k\":4}", &status);
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(status, 404);
}

}  // namespace
}  // namespace privbasis::server
