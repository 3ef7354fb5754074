// Process-separated scatter-gather (shard/worker.h + shard/remote.h),
// exercised over real loopback TCP with in-process ShardWorker
// instances standing in for privbasis_shardd processes:
//   * every remote counting op merges to the bit-identical integers a
//     local scan produces;
//   * a coordinator-served query (QueryServer --shard-workers) equals a
//     direct Engine::Run release byte for byte;
//   * failure is closed: a dead or faulting worker fails the query with
//     the FULL ε reservation charged — never a partial count, never an
//     under-charged ledger.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/basis_freq.h"
#include "core/privbasis.h"
#include "data/vertical_index.h"
#include "engine/dataset.h"
#include "engine/engine.h"
#include "server/server.h"
#include "server/wire.h"
#include "shard/remote.h"
#include "shard/sharded_db.h"
#include "shard/worker.h"
#include "test_util.h"

namespace privbasis {
namespace {

using privbasis::testing::MakeRandomDb;
using server::HttpCall;
using server::HttpResponse;
using server::ReleaseFromJson;
using server::StatsFromJson;

constexpr int64_t kCallTimeoutMs = 30'000;

struct Fleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::shared_ptr<ShardWorkerClient>> clients;
  std::vector<std::string> specs;  // "host:port" per worker
};

Fleet StartFleet(size_t n) {
  Fleet fleet;
  for (size_t i = 0; i < n; ++i) {
    auto worker = ShardWorker::Start({});
    EXPECT_TRUE(worker.ok()) << worker.status().ToString();
    const uint16_t port = (*worker)->port();
    fleet.workers.push_back(std::move(*worker));
    fleet.clients.push_back(std::make_shared<ShardWorkerClient>(
        WorkerAddr{"127.0.0.1", port}));
    fleet.specs.push_back("127.0.0.1:" + std::to_string(port));
  }
  return fleet;
}

/// Ships one slice per worker under `id` (the coordinator's attach path,
/// inlined for executor-level tests).
void LoadSlices(Fleet& fleet, const std::string& id,
                const TransactionDatabase& db) {
  auto sharded = ShardedDatabase::Create(db, fleet.clients.size());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  for (size_t s = 0; s < fleet.clients.size(); ++s) {
    const Status loaded = fleet.clients[s]->LoadShard(id, sharded->shard(s));
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }
}

TEST(ShardRemoteTest, PingLoadAndDrop) {
  Fleet fleet = StartFleet(1);
  PRIVBASIS_ASSERT_OK(fleet.clients[0]->Ping(kCallTimeoutMs));

  const TransactionDatabase db = MakeRandomDb({.seed = 3});
  LoadSlices(fleet, "d1", db);
  EXPECT_EQ(fleet.workers[0]->NumLoadedShards(), 1u);
  PRIVBASIS_ASSERT_OK(fleet.clients[0]->DropShard("d1"));
  EXPECT_EQ(fleet.workers[0]->NumLoadedShards(), 0u);
  // Dropping an unknown id is a no-op, mirroring best-effort eviction.
  PRIVBASIS_ASSERT_OK(fleet.clients[0]->DropShard("never-loaded"));
}

TEST(ShardRemoteTest, RemoteCountsMatchDirectScan) {
  const TransactionDatabase db = MakeRandomDb({.seed = 41});
  Fleet fleet = StartFleet(2);
  LoadSlices(fleet, "d", db);
  const RemoteShardExecutor exec("d", fleet.clients);
  EXPECT_EQ(exec.NumShards(), 2u);

  PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> item_supports,
                                 exec.ItemSupports(nullptr));
  EXPECT_EQ(item_supports, db.ItemSupports());

  const std::vector<Item> items = {0, 1, 2, 4, 7};
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> pairs,
                                 exec.PairSupports(items, nullptr));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> expected_pairs,
                                 CountPairSupports(db, items));
  EXPECT_EQ(pairs, expected_pairs);

  BasisSet basis_set;
  basis_set.Add(Itemset({0, 1, 2}));
  basis_set.Add(Itemset({3, 5}));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(auto bins,
                                 exec.BasisBinCounts(basis_set, nullptr));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(auto expected_bins,
                                 CountBasisBins(db, basis_set));
  EXPECT_EQ(bins, expected_bins);

  const std::vector<Itemset> queries = {Itemset({0}), Itemset({0, 1}),
                                        Itemset({2, 3, 5})};
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(std::vector<uint64_t> supports,
                                 exec.SupportOfMany(queries, nullptr));
  const VerticalIndex index(db);
  EXPECT_EQ(supports, index.SupportOfMany(queries));
}

TEST(ShardRemoteTest, UnknownDatasetIdFailsEveryOp) {
  Fleet fleet = StartFleet(1);
  const RemoteShardExecutor exec("ghost", fleet.clients);
  EXPECT_EQ(exec.ItemSupports(nullptr).status().code(),
            StatusCode::kNotFound);
}

// Engine::Run with an attached RemoteShardExecutor is bit-identical to
// the plain local run — process separation is invisible in results.
TEST(ShardRemoteTest, EngineRunBitIdenticalThroughRemoteExecutor) {
  const TransactionDatabase db = MakeRandomDb(
      {.seed = 47, .num_transactions = 100, .universe = 12});

  QuerySpec spec;
  spec.k = 10;
  spec.epsilon = 1.0;
  spec.seed = 777;

  auto direct_ds = Dataset::Create(TransactionDatabase(db));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release direct,
                                 Engine::Run(*direct_ds, spec));

  Fleet fleet = StartFleet(2);
  LoadSlices(fleet, "d", db);
  auto remote_ds = Dataset::Create(TransactionDatabase(db));
  remote_ds->AttachCountExecutor(
      std::make_shared<RemoteShardExecutor>("d", fleet.clients));
  EXPECT_EQ(remote_ds->shard_fanout(), 2u);
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release remote,
                                 Engine::Run(*remote_ds, spec));

  ASSERT_EQ(remote.itemsets.size(), direct.itemsets.size());
  for (size_t i = 0; i < direct.itemsets.size(); ++i) {
    EXPECT_EQ(remote.itemsets[i].items, direct.itemsets[i].items);
    EXPECT_EQ(remote.itemsets[i].noisy_count, direct.itemsets[i].noisy_count);
  }
  EXPECT_EQ(remote.lambda, direct.lambda);
  EXPECT_EQ(remote.epsilon_spent, direct.epsilon_spent);
}

// The acceptance bit: a worker dying mid-query fails the query with the
// FULL reservation charged. The injected fault fires after the request
// frame reaches the worker — the query is genuinely in flight.
TEST(ShardRemoteTest, FaultingWorkerFailsClosedWithFullCharge) {
  const TransactionDatabase db = MakeRandomDb({.seed = 53});
  Fleet fleet = StartFleet(2);
  LoadSlices(fleet, "d", db);

  auto dataset =
      Dataset::Create(TransactionDatabase(db), {.total_epsilon = 5.0});
  dataset->AttachCountExecutor(
      std::make_shared<RemoteShardExecutor>("d", fleet.clients));

  QuerySpec spec;
  spec.k = 10;
  spec.epsilon = 1.0;
  spec.seed = 1;

  // Workers are in-process here, so the failpoint arms their op path.
  PRIVBASIS_ASSERT_OK(failpoint::Configure("shard_worker_op=error:EIO"));
  auto release = Engine::Run(*dataset, spec);
  failpoint::Reset();

  ASSERT_FALSE(release.ok());
  // Fail closed: the aborted lease charges the full reservation. A
  // worker failure can lose a query, never ε.
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 1.0);
  EXPECT_EQ(dataset->accountant()->reserved_epsilon(), 0.0);

  // And with the fault cleared, the same fleet serves again.
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release ok_release,
                                 Engine::Run(*dataset, spec));
  EXPECT_FALSE(ok_release.itemsets.empty());
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 2.0);
}

// A stopped (dead) worker: transport-level Unavailable, same fail-closed
// accounting, and queries keep failing cleanly rather than hanging.
TEST(ShardRemoteTest, DeadWorkerIsUnavailableAndChargesInFull) {
  const TransactionDatabase db = MakeRandomDb({.seed = 59});
  Fleet fleet = StartFleet(2);
  LoadSlices(fleet, "d", db);

  auto dataset =
      Dataset::Create(TransactionDatabase(db), {.total_epsilon = 3.0});
  dataset->AttachCountExecutor(
      std::make_shared<RemoteShardExecutor>("d", fleet.clients));

  fleet.workers[1]->Stop();

  QuerySpec spec;
  spec.k = 8;
  spec.epsilon = 0.5;
  auto release = Engine::Run(*dataset, spec);
  ASSERT_FALSE(release.ok());
  EXPECT_EQ(release.status().code(), StatusCode::kUnavailable)
      << release.status();
  EXPECT_EQ(dataset->accountant()->spent_epsilon(), 0.5);
}

// A token whose deadline already passed refuses the fan-out before any
// frame is written (kCancelled, not a wasted worker round trip).
TEST(ShardRemoteTest, ExpiredDeadlineRefusesFanOut) {
  const TransactionDatabase db = MakeRandomDb({.seed = 61});
  Fleet fleet = StartFleet(1);
  LoadSlices(fleet, "d", db);
  const RemoteShardExecutor exec("d", fleet.clients);

  const CancelToken expired(std::chrono::steady_clock::now() -
                            std::chrono::milliseconds(10));
  EXPECT_EQ(exec.ItemSupports(&expired).status().code(),
            StatusCode::kCancelled);
}

// Full coordinator topology over HTTP: privbasis_server --shard-workers
// equivalent, in process. Served releases equal direct Engine::Run, and
// /v1/stats reports the fleet.
TEST(ShardRemoteTest, CoordinatorServedEqualsDirect) {
  const TransactionDatabase db = MakeRandomDb(
      {.seed = 67, .num_transactions = 150, .universe = 12});

  Fleet fleet = StartFleet(2);
  server::ServerOptions options;
  options.shard_workers = fleet.specs;
  server::QueryServer coordinator(options);
  PRIVBASIS_ASSERT_OK(coordinator.Start());

  // Registration runs the attach hook: slices ship to the workers.
  auto registered =
      coordinator.registry().Register(Dataset::Create(TransactionDatabase(db)));
  PRIVBASIS_ASSERT_OK(registered.status());
  EXPECT_EQ(fleet.workers[0]->NumLoadedShards(), 1u);
  EXPECT_EQ(fleet.workers[1]->NumLoadedShards(), 1u);

  const std::string body = "{\"dataset\":\"" + *registered +
                           "\",\"k\":10,\"epsilon\":1.0,\"seed\":321}";
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      HttpResponse response,
      HttpCall(coordinator.host(), coordinator.port(), "POST", "/v1/query",
               body, kCallTimeoutMs));
  ASSERT_EQ(response.status, 200) << response.body;
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(json::Value parsed,
                                 json::Parse(response.body));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release served, ReleaseFromJson(parsed));

  QuerySpec spec;
  spec.k = 10;
  spec.epsilon = 1.0;
  spec.seed = 321;
  auto direct_ds = Dataset::Create(TransactionDatabase(db));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(Release direct,
                                 Engine::Run(*direct_ds, spec));
  ASSERT_EQ(served.itemsets.size(), direct.itemsets.size());
  for (size_t i = 0; i < direct.itemsets.size(); ++i) {
    EXPECT_EQ(served.itemsets[i].items, direct.itemsets[i].items);
    EXPECT_EQ(served.itemsets[i].noisy_count, direct.itemsets[i].noisy_count);
  }

  // /v1/stats advertises the topology.
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      HttpResponse stats_response,
      HttpCall(coordinator.host(), coordinator.port(), "GET", "/v1/stats",
               "", kCallTimeoutMs));
  ASSERT_EQ(stats_response.status, 200);
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(json::Value stats_json,
                                 json::Parse(stats_response.body));
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(server::StatsSnapshot stats,
                                 StatsFromJson(stats_json));
  EXPECT_EQ(stats.shard_workers, 2u);
  EXPECT_EQ(stats.shard_fanout, 2u);

  // Eviction broadcasts DropShard.
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(
      HttpResponse evicted,
      HttpCall(coordinator.host(), coordinator.port(), "DELETE",
               "/v1/datasets/" + *registered, "", kCallTimeoutMs));
  EXPECT_EQ(evicted.status, 204);
  EXPECT_EQ(fleet.workers[0]->NumLoadedShards(), 0u);
  EXPECT_EQ(fleet.workers[1]->NumLoadedShards(), 0u);

  coordinator.Stop();
}

// A coordinator pointed at a dead fleet refuses to start — operators
// find out at boot, not at the first registration.
TEST(ShardRemoteTest, CoordinatorFailsStartupOnDeadWorker) {
  Fleet fleet = StartFleet(1);
  const std::string spec = fleet.specs[0];
  fleet.workers[0]->Stop();

  server::ServerOptions options;
  options.shard_workers = {spec};
  server::QueryServer coordinator(options);
  EXPECT_FALSE(coordinator.Start().ok());
}

TEST(ShardRemoteTest, ParseWorkerAddrForms) {
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(WorkerAddr full,
                                 ParseWorkerAddr("10.0.0.2:9101"));
  EXPECT_EQ(full.host, "10.0.0.2");
  EXPECT_EQ(full.port, 9101);
  PRIVBASIS_ASSERT_OK_AND_ASSIGN(WorkerAddr bare, ParseWorkerAddr("9101"));
  EXPECT_EQ(bare.host, "127.0.0.1");
  EXPECT_EQ(bare.port, 9101);
  EXPECT_FALSE(ParseWorkerAddr("").ok());
  EXPECT_FALSE(ParseWorkerAddr("host:").ok());
  EXPECT_FALSE(ParseWorkerAddr("host:99999").ok());
}

}  // namespace
}  // namespace privbasis
