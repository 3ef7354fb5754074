#include "shard/worker.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "core/basis_freq.h"
#include "core/privbasis.h"

namespace privbasis {

namespace {

/// Response-write bound: large enough for a worst-case bin payload over
/// a loopback link, small enough that a wedged coordinator frees the
/// connection thread.
constexpr int64_t kWriteDeadlineMs = 60'000;
/// Once a frame header starts arriving, the rest must follow promptly.
constexpr int64_t kReadDeadlineMs = 60'000;
/// Idle poll slice between stop-flag checks.
constexpr int64_t kPollMs = 200;

}  // namespace

const VerticalIndex& ShardWorker::LoadedShard::Index() {
  std::call_once(index_once, [&] {
    index = std::make_unique<VerticalIndex>(db);
  });
  return *index;
}

Result<std::unique_ptr<ShardWorker>> ShardWorker::Start(
    const ShardWorkerOptions& options) {
  PRIVBASIS_ASSIGN_OR_RETURN(net::Fd listen_fd,
                             net::ListenTcp(options.host, options.port));
  PRIVBASIS_ASSIGN_OR_RETURN(uint16_t port, net::LocalPort(listen_fd));
  auto worker = std::unique_ptr<ShardWorker>(
      new ShardWorker(options, std::move(listen_fd), port));
  worker->accept_thread_ = std::thread([w = worker.get()] { w->AcceptLoop(); });
  return worker;
}

ShardWorker::ShardWorker(const ShardWorkerOptions& options, net::Fd listen_fd,
                         uint16_t port)
    : options_(options), listen_fd_(std::move(listen_fd)), port_(port) {}

ShardWorker::~ShardWorker() { Stop(); }

void ShardWorker::Stop() {
  if (stop_.exchange(true)) {
    // Second caller still waits for the accept thread if a racing first
    // caller has not joined it yet; thread::join itself is not reentrant.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // The accept loop polls in kPollMs slices and re-checks the stop flag,
  // so it exits within one slice; joining it BEFORE closing the listener
  // keeps the raw-fd read in AcceptWithDeadline race-free.
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Close();
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    // Tear down live connections: in-flight ops finish their scan but
    // fail on the response write, so the coordinator sees kUnavailable.
    for (int fd : live_conn_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

size_t ShardWorker::NumLoadedShards() const {
  MutexLock lock(mu_);
  return shards_.size();
}

void ShardWorker::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<net::Fd> conn =
        net::AcceptWithDeadline(listen_fd_, net::DeadlineAfterMs(kPollMs));
    if (!conn.ok()) {
      // Listener closed (Stop) or transient accept failure; re-check the
      // stop flag either way.
      if (stop_.load(std::memory_order_relaxed)) return;
      continue;
    }
    if (!conn->valid()) continue;  // poll slice expired, no connection
    MutexLock lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) return;
    live_conn_fds_.push_back(conn->get());
    conn_threads_.emplace_back(
        [this, fd = std::move(*conn)]() mutable { HandleConnection(std::move(fd)); });
  }
}

void ShardWorker::HandleConnection(net::Fd conn) {
  const int raw_fd = conn.get();
  while (!stop_.load(std::memory_order_relaxed)) {
    Result<bool> readable =
        net::PollReadable(conn, net::DeadlineAfterMs(kPollMs));
    if (!readable.ok()) break;
    if (!*readable) continue;  // idle slice; re-check stop flag
    Result<shardwire::Frame> request =
        shardwire::ReadFrame(conn, net::DeadlineAfterMs(kReadDeadlineMs));
    if (!request.ok()) break;  // clean disconnect, torn or corrupt frame
    shardwire::Frame response = HandleFrame(*request);
    Status written =
        shardwire::WriteFrame(conn, response.type, response.payload,
                              net::DeadlineAfterMs(kWriteDeadlineMs));
    if (!written.ok()) break;
  }
  MutexLock lock(mu_);
  live_conn_fds_.erase(
      std::remove(live_conn_fds_.begin(), live_conn_fds_.end(), raw_fd),
      live_conn_fds_.end());
}

shardwire::Frame ShardWorker::HandleFrame(const shardwire::Frame& request) {
  Result<std::string> payload = HandleOp(request);
  if (payload.ok()) {
    return shardwire::Frame{shardwire::FrameType::kOk,
                            std::move(payload).value()};
  }
  return shardwire::Frame{shardwire::FrameType::kError,
                          shardwire::EncodeError(payload.status())};
}

Result<std::shared_ptr<ShardWorker::LoadedShard>> ShardWorker::FindShard(
    const std::string& id) {
  MutexLock lock(mu_);
  auto it = shards_.find(id);
  if (it == shards_.end()) {
    return Status::NotFound("no shard loaded for dataset '" + id + "'");
  }
  return it->second;
}

Result<std::string> ShardWorker::HandleOp(const shardwire::Frame& request) {
  using shardwire::FrameType;
  shardwire::Reader reader(request.payload);
  switch (request.type) {
    case FrameType::kPing: {
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      return std::string();
    }
    case FrameType::kLoadShard: {
      PRIVBASIS_ASSIGN_OR_RETURN(std::string id, reader.GetString());
      PRIVBASIS_ASSIGN_OR_RETURN(std::string blob, reader.GetString());
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      PRIVBASIS_ASSIGN_OR_RETURN(TransactionDatabase db,
                                 shardwire::DecodeDatabase(blob));
      auto loaded = std::make_shared<LoadedShard>(std::move(db));
      MutexLock lock(mu_);
      shards_[id] = std::move(loaded);  // reload replaces (re-registration)
      return std::string();
    }
    case FrameType::kDropShard: {
      PRIVBASIS_ASSIGN_OR_RETURN(std::string id, reader.GetString());
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      MutexLock lock(mu_);
      shards_.erase(id);  // dropping an unknown id is a no-op, like Evict
      return std::string();
    }
    case FrameType::kItemSupports:
    case FrameType::kPairSupports:
    case FrameType::kBasisBins:
    case FrameType::kSupportOfMany:
      break;  // counting ops, handled below
    default:
      return Status::InvalidArgument(
          "unexpected shard frame type " +
          std::to_string(static_cast<int>(request.type)));
  }

  // Counting ops share a prefix: dataset id + deadline_ms (0 = none),
  // from which the coordinator's remaining per-query budget becomes this
  // scan's CancelToken.
  PRIVBASIS_ASSIGN_OR_RETURN(std::string id, reader.GetString());
  PRIVBASIS_ASSIGN_OR_RETURN(uint32_t deadline_ms, reader.GetU32());
  PRIVBASIS_ASSIGN_OR_RETURN(std::shared_ptr<LoadedShard> shard,
                             FindShard(id));
  std::optional<CancelToken> token;
  if (deadline_ms > 0) {
    token.emplace(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms));
  }
  const CancelToken* cancel = token ? &*token : nullptr;
  // Deterministic test hook: lets the kill-mid-query harness park an op
  // here (sleep), kill the process (crash), or fail it (error) before
  // any counting happens.
  const failpoint::Action fp = failpoint::Hit("shard_worker_op");
  if (fp.kind == failpoint::Action::Kind::kError ||
      fp.kind == failpoint::Action::Kind::kTorn) {
    return Status::IoError("shard worker op failed (injected fault)");
  }

  switch (request.type) {
    case shardwire::FrameType::kItemSupports: {
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      shardwire::Writer w;
      w.PutU64Vec(shard->db.ItemSupports());
      return std::move(w).Take();
    }
    case shardwire::FrameType::kPairSupports: {
      PRIVBASIS_ASSIGN_OR_RETURN(std::vector<uint32_t> raw_items,
                                 reader.GetU32Vec());
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      std::vector<Item> items(raw_items.begin(), raw_items.end());
      PRIVBASIS_ASSIGN_OR_RETURN(
          std::vector<uint64_t> counts,
          CountPairSupports(shard->db, items, options_.num_threads, cancel));
      shardwire::Writer w;
      w.PutU64Vec(counts);
      return std::move(w).Take();
    }
    case shardwire::FrameType::kBasisBins: {
      PRIVBASIS_ASSIGN_OR_RETURN(BasisSet basis_set,
                                 shardwire::DecodeBasisSet(reader));
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      if (basis_set.Length() > 20) {
        return Status::InvalidArgument(
            "shard basis length exceeds hard cap 20");
      }
      PRIVBASIS_ASSIGN_OR_RETURN(
          std::vector<std::vector<uint64_t>> bins,
          CountBasisBins(shard->db, basis_set, options_.num_threads, cancel));
      return shardwire::EncodeU64Vecs(bins);
    }
    case shardwire::FrameType::kSupportOfMany: {
      PRIVBASIS_ASSIGN_OR_RETURN(std::vector<Itemset> queries,
                                 shardwire::DecodeItemsets(reader));
      PRIVBASIS_RETURN_NOT_OK(reader.ExpectEnd());
      std::vector<uint64_t> counts = shard->Index().SupportOfMany(
          queries, options_.num_threads, cancel);
      if (IsCancelled(cancel)) {
        return Status::Cancelled("shard batch support cancelled mid-scan");
      }
      shardwire::Writer w;
      w.PutU64Vec(counts);
      return std::move(w).Take();
    }
    default:
      return Status::Internal("unreachable shard op");
  }
}

}  // namespace privbasis
