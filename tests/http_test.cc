// HTTP layer contract (server/http.h + server/event_loop.h) and the
// same-dataset query batcher (core/batch_exec.h):
//   * request-line strictness — any extra or embedded whitespace is a
//     400, never a silently mis-split target (RFC 7230 §3.1.1);
//   * the pure-buffer parser handles byte-at-a-time delivery and
//     pipelined requests;
//   * a head over 16 KiB is a 431, terminated or not; one at the limit
//     parses;
//   * HttpCall parses the status token after the first space (an
//     "HTTP/2 200" status line must not read garbage at offset 9);
//   * 204 responses carry no Content-Length and no body
//     (RFC 7230 §3.3.2), and the connection stays usable after one;
//   * the epoll loop serves pipelined requests and keeps parked
//     keep-alive connections from starving workers;
//   * batched queries release bit-identical results to unbatched runs
//     at the same seed, with ε charged per query.
#include "server/http.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_exec.h"
#include "engine/dataset.h"
#include "server/server.h"
#include "server/wire.h"
#include "test_util.h"

namespace privbasis::server {
namespace {

using ::privbasis::testing::MakeRandomDb;

constexpr int64_t kCallTimeoutMs = 30'000;

std::unique_ptr<QueryServer> StartServer(ServerOptions options = {}) {
  auto server = std::make_unique<QueryServer>(std::move(options));
  Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started;
  return server;
}

// --- request-line strictness -------------------------------------------

HttpParseOutcome ParseOne(std::string text, HttpRequest* request = nullptr) {
  HttpRequest scratch;
  return ParseHttpRequest(&text, HttpLimits{},
                          request != nullptr ? request : &scratch)
      .outcome;
}

TEST(HttpParseTest, RejectsWhitespaceVariantsInRequestLine) {
  // An unencoded space in the target would silently truncate it to
  // "/a" under a naive 3-token split; all such lines must be 400s.
  for (const char* line : {
           "GET /a b HTTP/1.1",      // space inside the target
           "GET  /a HTTP/1.1",       // double space = empty token
           "GET /a HTTP/1.1 ",       // trailing space = 4th token
           "GET /a HTTP/1.1 extra",  // explicit 4th token
           "GET\t/a HTTP/1.1",       // tab is not a token separator
           "GET /a\tHTTP/1.1",
           "GET /a",                 // missing version
           " GET /a HTTP/1.1",       // leading space
       }) {
    EXPECT_EQ(ParseOne(std::string(line) + "\r\n\r\n",
                       nullptr),
              HttpParseOutcome::kMalformed)
        << "line: [" << line << "]";
  }
  HttpRequest request;
  ASSERT_EQ(ParseOne("GET /a%20b HTTP/1.1\r\n\r\n", &request),
            HttpParseOutcome::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/a%20b");
  EXPECT_EQ(request.version, "HTTP/1.1");
}

TEST(HttpParseTest, LiveServerRejectsWhitespaceRequestLine) {
  auto server = StartServer();
  auto fd = net::ConnectTcp(server->host(), server->port(),
                            net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(net::WriteAll(*fd, "GET /health z HTTP/1.1\r\nHost: t\r\n\r\n",
                            net::DeadlineAfterMs(kCallTimeoutMs))
                  .ok());
  char buf[512];
  auto n = net::ReadSome(*fd, buf, sizeof(buf),
                         net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_GT(*n, 12u);
  EXPECT_EQ(std::string(buf, 12), "HTTP/1.1 400");
}

// --- incremental + pipelined parsing -----------------------------------

TEST(HttpParseTest, ParsesByteAtATime) {
  const std::string wire =
      "POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  std::string buffer;
  HttpRequest request;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.push_back(wire[i]);
    ASSERT_EQ(ParseHttpRequest(&buffer, HttpLimits{}, &request).outcome,
              HttpParseOutcome::kNeedMore)
        << "after " << (i + 1) << " bytes";
  }
  buffer.push_back(wire.back());
  ASSERT_EQ(ParseHttpRequest(&buffer, HttpLimits{}, &request).outcome,
            HttpParseOutcome::kOk);
  EXPECT_EQ(request.body, "body");
  EXPECT_TRUE(buffer.empty());  // fully consumed
}

TEST(HttpParseTest, PipelinedRequestsConsumeOneAtATime) {
  std::string buffer =
      "GET /first HTTP/1.1\r\n\r\n"
      "POST /second HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
  HttpRequest request;
  ASSERT_EQ(ParseHttpRequest(&buffer, HttpLimits{}, &request).outcome,
            HttpParseOutcome::kOk);
  EXPECT_EQ(request.target, "/first");
  ASSERT_EQ(ParseHttpRequest(&buffer, HttpLimits{}, &request).outcome,
            HttpParseOutcome::kOk);
  EXPECT_EQ(request.target, "/second");
  EXPECT_EQ(request.body, "ok");
  EXPECT_TRUE(buffer.empty());
}

// --- header-size limit (431) -------------------------------------------

/// A complete request head (request line, one padding header, CRLFCRLF)
/// of exactly `size` bytes.
std::string HeadOfSize(size_t size) {
  const std::string prefix = "GET /a HTTP/1.1\r\nX-Pad: ";
  return prefix + std::string(size - prefix.size() - 4, 'p') + "\r\n\r\n";
}

TEST(HttpParseTest, UnterminatedHeadOverLimitIs431) {
  // 17 KiB of headers and still no CRLFCRLF: waiting for more bytes
  // would let a client grow the buffer without bound.
  std::string buffer = "GET /a HTTP/1.1\r\n";
  while (buffer.size() < 17 * 1024) buffer += "X-Pad: 0123456789abcdef\r\n";
  HttpRequest request;
  EXPECT_EQ(ParseHttpRequest(&buffer, HttpLimits{}, &request).outcome,
            HttpParseOutcome::kHeaderTooLarge);
}

TEST(HttpParseTest, CompleteHeadOverLimitIs431) {
  EXPECT_EQ(ParseOne(HeadOfSize(HttpLimits{}.max_header_bytes + 1)),
            HttpParseOutcome::kHeaderTooLarge);
}

TEST(HttpParseTest, HeadUpToLimitParses) {
  const size_t limit = HttpLimits{}.max_header_bytes;
  for (size_t size : {limit - 1, limit}) {
    HttpRequest request;
    ASSERT_EQ(ParseOne(HeadOfSize(size), &request), HttpParseOutcome::kOk)
        << size << "-byte head";
    EXPECT_EQ(request.target, "/a");
    EXPECT_NE(request.Header("X-Pad"), nullptr);
  }
}

// --- HttpCall status-line parsing --------------------------------------

/// One-shot fake origin: accepts a single connection, reads the request
/// head, writes `response` verbatim, closes.
Result<HttpResponse> CallFakeOrigin(const std::string& response) {
  PRIVBASIS_ASSIGN_OR_RETURN(net::Fd listen, net::ListenTcp("127.0.0.1", 0));
  PRIVBASIS_ASSIGN_OR_RETURN(uint16_t port, net::LocalPort(listen));
  std::thread origin([&listen, response] {
    auto conn = net::AcceptWithDeadline(listen, net::DeadlineAfterMs(5000));
    if (!conn.ok() || !conn->valid()) return;
    char buf[4096];
    (void)net::ReadSome(*conn, buf, sizeof(buf), net::DeadlineAfterMs(5000));
    (void)net::WriteAll(*conn, response, net::DeadlineAfterMs(5000));
  });
  auto result = HttpCall("127.0.0.1", port, "GET", "/", "", 5000);
  origin.join();
  return result;
}

TEST(HttpCallTest, ParsesStatusAfterFirstSpaceNotFixedOffset) {
  // "HTTP/2 200 OK": a fixed offset 9 would read "0 O" as the code.
  auto h2 = CallFakeOrigin("HTTP/2 200 OK\r\nContent-Length: 2\r\n\r\nhi");
  ASSERT_TRUE(h2.ok()) << h2.status();
  EXPECT_EQ(h2->status, 200);
  EXPECT_EQ(h2->body, "hi");

  // No reason phrase at all is legal.
  auto bare = CallFakeOrigin("HTTP/1.1 404\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare->status, 404);

  // 204 without Content-Length (the correct framing).
  auto no_content = CallFakeOrigin("HTTP/1.1 204 No Content\r\n\r\n");
  ASSERT_TRUE(no_content.ok()) << no_content.status();
  EXPECT_EQ(no_content->status, 204);
  EXPECT_TRUE(no_content->body.empty());

  // Garbage status tokens are errors, not creative parses.
  EXPECT_FALSE(CallFakeOrigin("HTTP/1.1 ABC\r\n\r\n").ok());
  EXPECT_FALSE(CallFakeOrigin("HTTP/1.1 2000 OK\r\n\r\n").ok());
  EXPECT_FALSE(CallFakeOrigin("HTTP/1.1\r\n\r\n").ok());
}

// --- 204 framing ---------------------------------------------------------

TEST(HttpResponseTest, SerializeOmitsFramingOn204) {
  HttpResponse no_content;
  no_content.status = 204;
  no_content.body = "ignored";  // a 204 must not carry a body
  const std::string wire = SerializeHttpResponse(no_content);
  EXPECT_TRUE(wire.starts_with("HTTP/1.1 204 No Content\r\n")) << wire;
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos) << wire;
  EXPECT_EQ(wire.find("Content-Type"), std::string::npos) << wire;
  EXPECT_TRUE(wire.ends_with("\r\n\r\n")) << wire;
  EXPECT_EQ(wire.find("ignored"), std::string::npos) << wire;

  HttpResponse ok;
  ok.status = 200;
  ok.body = "{}";
  const std::string ok_wire = SerializeHttpResponse(ok);
  EXPECT_NE(ok_wire.find("Content-Length: 2\r\n"), std::string::npos)
      << ok_wire;
  EXPECT_TRUE(ok_wire.ends_with("\r\n\r\n{}")) << ok_wire;
}

TEST(HttpResponseTest, ConnectionSurvives204Delete) {
  // If the 204 carried "Content-Length: 0" a strict client would
  // still be fine — but one that trusts RFC 7230 framing for 204 and a
  // server that (incorrectly) appended a body would desync. Pin the
  // whole exchange on one keep-alive connection: DELETE → 204 with no
  // framing headers, then a /healthz on the SAME socket still answers.
  TransactionDatabase db = MakeRandomDb({.seed = 21});
  auto server = StartServer();
  const std::string id = *server->registry().Register(Dataset::Create(db));

  auto fd = net::ConnectTcp(server->host(), server->port(),
                            net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(net::WriteAll(*fd,
                            "DELETE /v1/datasets/" + id +
                                " HTTP/1.1\r\nHost: t\r\n\r\n",
                            net::DeadlineAfterMs(kCallTimeoutMs))
                  .ok());
  std::string raw;
  char buf[2048];
  while (raw.find("\r\n\r\n") == std::string::npos) {
    auto n = net::ReadSome(*fd, buf, sizeof(buf),
                           net::DeadlineAfterMs(kCallTimeoutMs));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u);
    raw.append(buf, *n);
  }
  EXPECT_TRUE(raw.starts_with("HTTP/1.1 204")) << raw;
  EXPECT_EQ(raw.find("Content-Length"), std::string::npos) << raw;
  // Head only — no body may follow a 204.
  EXPECT_TRUE(raw.ends_with("\r\n\r\n")) << raw;

  ASSERT_TRUE(net::WriteAll(*fd, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                            net::DeadlineAfterMs(kCallTimeoutMs))
                  .ok());
  auto n = net::ReadSome(*fd, buf, sizeof(buf),
                         net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_GT(*n, 12u);
  EXPECT_EQ(std::string(buf, 12), "HTTP/1.1 200");
}

// --- event loop ----------------------------------------------------------

TEST(EventLoopTest, ServesPipelinedRequests) {
  auto server = StartServer();
  auto fd = net::ConnectTcp(server->host(), server->port(),
                            net::DeadlineAfterMs(kCallTimeoutMs));
  ASSERT_TRUE(fd.ok()) << fd.status();
  // Two requests in one write; the loop must answer both, in order,
  // without losing the second to a buffer reset.
  ASSERT_TRUE(net::WriteAll(*fd,
                            "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                            "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n",
                            net::DeadlineAfterMs(kCallTimeoutMs))
                  .ok());
  std::string raw;
  char buf[8192];
  // Both responses are 200 with bodies; read until two heads + the
  // second body's closing brace arrived.
  size_t got = 0;
  while (got < 2) {
    auto n = net::ReadSome(*fd, buf, sizeof(buf),
                           net::DeadlineAfterMs(kCallTimeoutMs));
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_GT(*n, 0u) << "peer closed after " << got << " responses";
    raw.append(buf, *n);
    got = 0;
    for (size_t pos = 0;
         (pos = raw.find("HTTP/1.1 200", pos)) != std::string::npos;
         pos += 12) {
      ++got;
    }
    if (got >= 2 && raw.find("\"batching\"") != std::string::npos) break;
  }
  EXPECT_GE(got, 2u);
  // First body is /healthz, second /v1/stats — order preserved.
  EXPECT_LT(raw.find("\"status\":\"ok\""), raw.find("\"queries\""));
}

TEST(EventLoopTest, ParkedKeepAliveConnectionsDontStarveWorkers) {
  // Thread-per-connection served each parked client a dedicated worker;
  // the event loop parks them for the price of an fd. With ONE worker
  // thread and several parked connections, a live request must still be
  // answered promptly.
  ServerOptions options;
  options.num_threads = 1;
  auto server = StartServer(std::move(options));

  std::vector<net::Fd> parked;
  for (int i = 0; i < 6; ++i) {
    auto fd = net::ConnectTcp(server->host(), server->port(),
                              net::DeadlineAfterMs(kCallTimeoutMs));
    ASSERT_TRUE(fd.ok()) << fd.status();
    // Half stay idle, half stall mid-request head — both park in the
    // loop, neither may occupy the worker.
    if (i % 2 == 0) {
      ASSERT_TRUE(net::WriteAll(*fd, "GET /healthz HT",
                                net::DeadlineAfterMs(kCallTimeoutMs))
                      .ok());
    }
    parked.push_back(std::move(*fd));
  }

  const auto started = std::chrono::steady_clock::now();
  auto health = HttpCall(server->host(), server->port(), "GET", "/healthz",
                         "", kCallTimeoutMs);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  // Generous bound: with a starved pool this would block until the
  // parked clients' 30 s deadlines fire.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
}

// --- query batching ------------------------------------------------------

TEST(BatchExecTest, FusedOpsSplitBackExactly) {
  TransactionDatabase db = MakeRandomDb({.seed = 31, .num_transactions = 300});
  auto dataset = Dataset::Create(db);
  // A fresh dataset has no executor attached, so this is the
  // DirectCountExecutor over the whole database. The batcher looks its
  // fused pairs up in the dataset's index, as the server attaches it.
  std::shared_ptr<const CountExecutor> direct = dataset->EnsureCountExecutor();
  ASSERT_NE(direct, nullptr);

  auto stats = std::make_shared<BatchStats>();
  BatchingCountExecutor batcher(direct, dataset->Index(),
                                dataset->options().num_threads,
                                {.window_us = 2'000'000, .max_batch = 4},
                                stats);

  // Two members per round: both queries registered in flight before the
  // worker threads start, so the leader's target is 2 and neither op
  // passes through solo.
  batcher.BeginQuery();
  batcher.BeginQuery();

  const std::vector<Item> items_a = {1, 2, 3, 5};
  const std::vector<Item> items_b = {2, 4, 6};
  BasisSet bases_a({Itemset({1, 2}), Itemset({3, 4})});
  BasisSet bases_b({Itemset({2, 5, 6})});

  Result<std::vector<uint64_t>> pair_a = Status::Internal("unset");
  Result<std::vector<std::vector<uint64_t>>> bins_a =
      Status::Internal("unset");
  std::thread member_a([&] {
    pair_a = batcher.PairSupports(items_a, nullptr);
    bins_a = batcher.BasisBinCounts(bases_a, nullptr);
  });
  auto pair_b = batcher.PairSupports(items_b, nullptr);
  auto bins_b = batcher.BasisBinCounts(bases_b, nullptr);
  member_a.join();
  batcher.EndQuery();
  batcher.EndQuery();

  ASSERT_TRUE(pair_a.ok()) << pair_a.status();
  ASSERT_TRUE(bins_a.ok()) << bins_a.status();
  ASSERT_TRUE(pair_b.ok() && bins_b.ok());

  // Every member's slice equals its solo (unbatched) run, bit for bit.
  EXPECT_EQ(*pair_a, *direct->PairSupports(items_a, nullptr));
  EXPECT_EQ(*pair_b, *direct->PairSupports(items_b, nullptr));
  EXPECT_EQ(*bins_a, *direct->BasisBinCounts(bases_a, nullptr));
  EXPECT_EQ(*bins_b, *direct->BasisBinCounts(bases_b, nullptr));

  // The scans actually fused (2 members each round, 2 op kinds).
  EXPECT_GE(stats->batches.load(), 2u);
  EXPECT_GE(stats->scans_saved.load(), 2u);
  EXPECT_EQ(stats->batched_queries.load(), stats->batches.load() * 2);
}

TEST(BatchExecTest, ServedBatchedQueriesBitIdenticalToUnbatched) {
  TransactionDatabase db = MakeRandomDb({.seed = 41, .num_transactions = 200});

  ServerOptions batched_options;
  batched_options.num_threads = 8;
  batched_options.batch_window_us = 20'000;
  batched_options.max_batch = 8;
  auto batched = StartServer(std::move(batched_options));
  auto batched_dataset = Dataset::Create(db);
  const std::string batched_id =
      *batched->registry().Register(batched_dataset);

  ServerOptions plain_options;
  plain_options.num_threads = 8;
  plain_options.batch_window_us = 0;  // off (and env-proof)
  plain_options.max_batch = 8;
  auto plain = StartServer(std::move(plain_options));
  auto plain_dataset = Dataset::Create(db);
  const std::string plain_id = *plain->registry().Register(plain_dataset);

  // A storm of same-dataset queries (distinct seeds) against each
  // server. On the batched one their candidate-support scans fuse; the
  // responses must nonetheless be byte-identical to the unbatched
  // server's.
  constexpr int kClients = 8;
  auto storm = [&](QueryServer& server, const std::string& id) {
    std::vector<std::string> bodies(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::string request = "{\"dataset\":\"" + id +
                                    "\",\"k\":10,\"epsilon\":1.0,\"seed\":" +
                                    std::to_string(100 + c) + "}";
        auto response = HttpCall(server.host(), server.port(), "POST",
                                 "/v1/query", request, kCallTimeoutMs);
        if (response.ok() && response->status == 200) {
          bodies[c] = std::move(response->body);
        }
      });
    }
    for (auto& t : clients) t.join();
    return bodies;
  };
  const std::vector<std::string> batched_bodies = storm(*batched, batched_id);
  const std::vector<std::string> plain_bodies = storm(*plain, plain_id);

  for (int c = 0; c < kClients; ++c) {
    ASSERT_FALSE(batched_bodies[c].empty()) << "client " << c;
    ASSERT_FALSE(plain_bodies[c].empty()) << "client " << c;
    // Byte-compare the releases except "spent_total" — the ledger's
    // cumulative spend at response time depends on which concurrent
    // client committed first on EACH server, not on batching.
    auto b = ReleaseFromJson(*json::Parse(batched_bodies[c]));
    auto p = ReleaseFromJson(*json::Parse(plain_bodies[c]));
    ASSERT_TRUE(b.ok() && p.ok()) << "client " << c;
    b->epsilon_spent_total = p->epsilon_spent_total = 0;
    EXPECT_EQ(ReleaseToJson(*b).Dump(), ReleaseToJson(*p).Dump())
        << "client " << c;
  }
  // ε was charged per QUERY, not per fused batch: both ledgers carry
  // one entry set per client and identical totals.
  EXPECT_EQ(batched_dataset->accountant()->ledger().size(),
            plain_dataset->accountant()->ledger().size());
  EXPECT_EQ(batched_dataset->accountant()->spent_epsilon(),
            plain_dataset->accountant()->spent_epsilon());

  // The batched server reports its config (fusions are load-dependent,
  // so only the knobs are asserted here).
  auto stats = HttpCall(batched->host(), batched->port(), "GET", "/v1/stats",
                        "", kCallTimeoutMs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto parsed = json::Parse(stats->body);
  ASSERT_TRUE(parsed.ok());
  auto snapshot = StatsFromJson(*parsed);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->batch_window_us, 20'000);
  EXPECT_EQ(snapshot->batch_max, 8u);
}

}  // namespace
}  // namespace privbasis::server
