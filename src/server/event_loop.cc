#include "server/event_loop.h"

#include <algorithm>

namespace privbasis::server {

namespace {

constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeupTag = 1;

/// Largest declared-but-oversized body the loop will discard before
/// answering 413 (closing with unread request bytes in flight turns
/// the close into a RST that can destroy the response). Beyond this the
/// sender is abusive and just gets the reset.
constexpr size_t kDrainCap = 8 * 1024 * 1024;

/// One recv's worth per readiness event pass.
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

EventLoop::EventLoop(Options options, Hooks hooks)
    : options_(std::move(options)), hooks_(std::move(hooks)) {}

EventLoop::~EventLoop() {
  RequestStop();
  Join();
}

Status EventLoop::Start(net::Fd listen_fd) {
  if (started_) return Status::FailedPrecondition("event loop started");
  PRIVBASIS_ASSIGN_OR_RETURN(epoll_, net::Epoll::Create());
  PRIVBASIS_ASSIGN_OR_RETURN(wakeup_, net::WakeupFd::Create());
  listen_fd_ = std::move(listen_fd);
  PRIVBASIS_RETURN_NOT_OK(
      epoll_.Add(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                 kListenTag));
  PRIVBASIS_RETURN_NOT_OK(
      epoll_.Add(wakeup_.fd(), /*want_read=*/true, /*want_write=*/false,
                 kWakeupTag));
  thread_ = std::thread([this] { Run(); });
  started_ = true;
  return Status::OK();
}

void EventLoop::CompleteRequest(uint64_t conn_id, HttpResponse response) {
  {
    MutexLock lock(completions_mu_);
    completions_.emplace_back(conn_id, std::move(response));
  }
  wakeup_.Signal();
}

void EventLoop::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wakeup_.valid()) wakeup_.Signal();
}

void EventLoop::Join() {
  if (!started_ || joined_) return;
  shutdown_.store(true, std::memory_order_release);
  wakeup_.Signal();
  thread_.join();
  joined_ = true;
}

void EventLoop::Run() {
  std::vector<net::EpollEvent> events;
  for (;;) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    const bool shutting_down = shutdown_.load(std::memory_order_acquire);
    ProcessCompletions(/*force_close=*/stopping || shutting_down);
    if (stopping && listen_open_) {
      // Free the port immediately and shed parked clients; connections
      // with a dispatched request or a half-written response get to
      // finish (Join bounds them by their write deadlines).
      if (accepting_) {
        (void)epoll_.Del(listen_fd_);
        accepting_ = false;
      }
      listen_fd_.Close();
      listen_open_ = false;
      std::vector<uint64_t> to_close;
      for (auto& [id, conn] : conns_) {
        if (conn.state == ConnState::kDispatched || !conn.out.empty()) {
          conn.close_after_write = true;
        } else {
          to_close.push_back(id);
        }
      }
      for (uint64_t id : to_close) CloseConn(id);
    }
    if (shutting_down) {
      // Every dispatched request has completed by the Join() contract,
      // so anything without pending output is done or orphaned.
      std::vector<uint64_t> to_close;
      for (auto& [id, conn] : conns_) {
        conn.close_after_write = true;
        if (conn.out_off >= conn.out.size()) to_close.push_back(id);
      }
      for (uint64_t id : to_close) CloseConn(id);
    }
    SweepDeadlines();
    if (shutting_down && conns_.empty()) return;
    if (!epoll_.Wait(NextTimeoutMs(), &events).ok()) return;
    for (const auto& ev : events) {
      if (ev.tag == kWakeupTag) {
        wakeup_.Drain();
        continue;
      }
      if (ev.tag == kListenTag) {
        DoAccept();
        continue;
      }
      auto it = conns_.find(ev.tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      if (ev.readable || ev.error) {
        HandleReadable(ev.tag, it->second);
        it = conns_.find(ev.tag);
        if (it == conns_.end()) continue;
      }
      if (ev.writable) HandleWritable(ev.tag, it->second);
    }
  }
}

void EventLoop::DoAccept() {
  for (;;) {
    auto accepted = net::AcceptNonBlocking(listen_fd_);
    if (!accepted.ok()) {
      // Transient resource exhaustion (EMFILE/ENFILE/ENOBUFS under
      // connection load) must not kill the loop: park the listen fd
      // and retry after a tick — the backlog absorbs clients meanwhile.
      if (accepting_) {
        (void)epoll_.Del(listen_fd_);
        accepting_ = false;
      }
      accept_backoff_ = true;
      accept_retry_at_ =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      return;
    }
    if (!accepted->valid()) return;  // drained the pending queue
    const uint64_t id = next_conn_id_++;
    Conn conn;
    conn.id = id;
    conn.fd = std::move(*accepted);
    // The idle keep-alive window: a connection that never sends a
    // request is closed silently after one request deadline.
    ArmDeadline(conn, options_.request_deadline_ms);
    if (!epoll_.Add(conn.fd, /*want_read=*/true, /*want_write=*/false, id)
             .ok()) {
      continue;  // drop it; the Fd closes on scope exit
    }
    conns_.emplace(id, std::move(conn));
    if (hooks_.on_connection) hooks_.on_connection();
  }
}

void EventLoop::ProcessCompletions(bool force_close) {
  std::vector<std::pair<uint64_t, HttpResponse>> batch;
  {
    MutexLock lock(completions_mu_);
    batch.swap(completions_);
  }
  for (auto& [id, response] : batch) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // connection died while computing
    Conn& conn = it->second;
    conn.state = ConnState::kIdle;
    ++conn.served;
    if (force_close ||
        conn.served >= options_.max_requests_per_connection) {
      response.close_connection = true;
    }
    (void)SendResponse(id, conn, std::move(response));
  }
}

void EventLoop::HandleReadable(uint64_t id, Conn& conn) {
  for (;;) {
    auto event = net::ReadAvailable(conn.fd, &conn.in, kReadChunk);
    if (!event.ok()) {
      CloseConn(id);
      return;
    }
    if (*event == net::ReadEvent::kWouldBlock) break;
    if (*event == net::ReadEvent::kEof) {
      conn.peer_eof = true;
      if (conn.state == ConnState::kDraining) {
        // Client gave up mid-body: answer the deferred 413 anyway.
        HttpResponse response = std::move(conn.deferred);
        response.close_connection = true;
        conn.state = ConnState::kIdle;
        (void)SendResponse(id, conn, std::move(response));
        return;
      }
      if (conn.state == ConnState::kDispatched) {
        conn.close_after_write = true;  // deliver, then close
        UpdateInterest(conn);
        return;
      }
      if (!conn.in.empty()) {
        // EOF mid-request: the partial request is malformed → 400.
        HttpResponse response =
            hooks_.error_response(HttpReadOutcome::kMalformed);
        response.close_connection = true;
        conn.state = ConnState::kIdle;
        conn.in.clear();
        (void)SendResponse(id, conn, std::move(response));
        return;
      }
      if (conn.out_off < conn.out.size()) {
        conn.close_after_write = true;  // finish the flush first
        UpdateInterest(conn);
        return;
      }
      CloseConn(id);  // clean EOF between requests
      return;
    }
    // kData.
    if (conn.state == ConnState::kDraining) {
      const size_t take = std::min(conn.in.size(), conn.drain_remaining);
      conn.in.erase(0, take);
      conn.drain_remaining -= take;
      if (conn.drain_remaining == 0) {
        HttpResponse response = std::move(conn.deferred);
        response.close_connection = true;
        conn.state = ConnState::kIdle;
        conn.has_deadline = false;
        if (!SendResponse(id, conn, std::move(response))) return;
      }
      continue;
    }
    if (conn.state == ConnState::kIdle && !conn.in.empty()) {
      // First byte of a new request: the 408 deadline starts now (but
      // a pending response flush keeps its write deadline — a fresh
      // read window is armed when the flush completes).
      conn.state = ConnState::kReading;
      if (conn.out_off >= conn.out.size()) {
        ArmDeadline(conn, options_.request_deadline_ms);
      }
    }
  }
  (void)TryParse(id, conn);
}

void EventLoop::HandleWritable(uint64_t id, Conn& conn) {
  (void)FlushWrites(id, conn);
}

bool EventLoop::TryParse(uint64_t id, Conn& conn) {
  // One response at a time: pipelined requests wait for the previous
  // flush (FlushWrites re-enters here when it completes).
  if (conn.out_off < conn.out.size()) return true;
  if (conn.state != ConnState::kIdle && conn.state != ConnState::kReading) {
    return true;
  }
  if (conn.in.empty()) return true;
  HttpRequest request;
  const HttpParseResult parsed =
      ParseHttpRequest(&conn.in, options_.limits, &request);
  switch (parsed.outcome) {
    case HttpParseOutcome::kNeedMore:
      if (conn.peer_eof) {
        HttpResponse response =
            hooks_.error_response(HttpReadOutcome::kMalformed);
        response.close_connection = true;
        conn.state = ConnState::kIdle;
        conn.in.clear();
        return SendResponse(id, conn, std::move(response));
      }
      return true;
    case HttpParseOutcome::kOk:
      conn.state = ConnState::kDispatched;
      conn.has_deadline = false;
      UpdateInterest(conn);  // park read interest while in flight
      hooks_.dispatch(id, std::move(request));
      return true;
    case HttpParseOutcome::kMalformed: {
      HttpResponse response =
          hooks_.error_response(HttpReadOutcome::kMalformed);
      response.close_connection = true;
      conn.state = ConnState::kIdle;
      conn.in.clear();
      return SendResponse(id, conn, std::move(response));
    }
    case HttpParseOutcome::kHeaderTooLarge: {
      HttpResponse response =
          hooks_.error_response(HttpReadOutcome::kHeaderTooLarge);
      response.close_connection = true;
      conn.state = ConnState::kIdle;
      conn.in.clear();
      return SendResponse(id, conn, std::move(response));
    }
    case HttpParseOutcome::kBodyTooLarge: {
      HttpResponse response =
          hooks_.error_response(HttpReadOutcome::kBodyTooLarge);
      response.close_connection = true;
      if (parsed.drain_bytes == 0 || parsed.drain_bytes > kDrainCap ||
          conn.peer_eof) {
        conn.state = ConnState::kIdle;
        return SendResponse(id, conn, std::move(response));
      }
      conn.state = ConnState::kDraining;
      conn.drain_remaining = parsed.drain_bytes;
      conn.deferred = std::move(response);
      // The drain rides the request deadline; expiry sends the 413
      // regardless (SweepDeadlines).
      ArmDeadline(conn, options_.request_deadline_ms);
      return true;
    }
  }
  return true;
}

bool EventLoop::SendResponse(uint64_t id, Conn& conn,
                             HttpResponse response) {
  conn.close_after_write =
      conn.close_after_write || response.close_connection;
  // close_connection must be final before serializing — it decides the
  // Connection: close header.
  response.close_connection = conn.close_after_write;
  conn.out.append(SerializeHttpResponse(response));
  ArmDeadline(conn, options_.request_deadline_ms);  // write deadline
  return FlushWrites(id, conn);
}

bool EventLoop::FlushWrites(uint64_t id, Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    auto n = net::WriteSome(
        conn.fd, std::string_view(conn.out).substr(conn.out_off));
    if (!n.ok()) {
      CloseConn(id);
      return false;
    }
    if (*n == 0) break;  // socket buffer full; EPOLLOUT resumes us
    conn.out_off += *n;
  }
  if (conn.out_off < conn.out.size()) {
    UpdateInterest(conn);
    return true;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_write) {
    CloseConn(id);
    return false;
  }
  // Response delivered: back to waiting (idle window) or already mid-
  // request from pipelined bytes (fresh read window).
  ArmDeadline(conn, options_.request_deadline_ms);
  UpdateInterest(conn);
  return TryParse(id, conn);
}

void EventLoop::UpdateInterest(Conn& conn) {
  const bool want_read = !conn.peer_eof && !conn.close_after_write &&
                         conn.state != ConnState::kDispatched;
  const bool want_write = conn.out_off < conn.out.size();
  if (want_read == conn.want_read && want_write == conn.want_write) return;
  conn.want_read = want_read;
  conn.want_write = want_write;
  (void)epoll_.Mod(conn.fd, want_read, want_write, conn.id);
}

void EventLoop::ArmDeadline(Conn& conn, int64_t ms) {
  conn.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  conn.has_deadline = true;
}

void EventLoop::CloseConn(uint64_t id) {
  // Erasing closes the fd, which deregisters it from epoll (never
  // dup'ed). Ids are monotonic, so stale events can't alias a new conn.
  conns_.erase(id);
}

void EventLoop::SweepDeadlines() {
  const auto now = std::chrono::steady_clock::now();
  if (accept_backoff_ && now >= accept_retry_at_) {
    accept_backoff_ = false;
    if (listen_open_ && !accepting_) {
      accepting_ = epoll_
                       .Add(listen_fd_, /*want_read=*/true,
                            /*want_write=*/false, kListenTag)
                       .ok();
    }
  }
  std::vector<uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (conn.has_deadline && now >= conn.deadline) expired.push_back(id);
  }
  for (uint64_t id : expired) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    conn.has_deadline = false;
    if (conn.out_off < conn.out.size()) {
      CloseConn(id);  // write deadline: the client stopped reading
      continue;
    }
    switch (conn.state) {
      case ConnState::kIdle:
        CloseConn(id);  // idle keep-alive timeout: close silently
        break;
      case ConnState::kReading: {
        HttpResponse response =
            hooks_.error_response(HttpReadOutcome::kTimeout);
        response.close_connection = true;
        conn.state = ConnState::kIdle;
        conn.in.clear();
        (void)SendResponse(id, conn, std::move(response));
        break;
      }
      case ConnState::kDraining: {
        HttpResponse response = std::move(conn.deferred);
        response.close_connection = true;
        conn.state = ConnState::kIdle;
        (void)SendResponse(id, conn, std::move(response));
        break;
      }
      case ConnState::kDispatched:
        break;  // no loop deadline while the handler owns the request
    }
  }
}

int EventLoop::NextTimeoutMs() const {
  const auto now = std::chrono::steady_clock::now();
  int64_t best = 1000;  // liveness backstop
  const auto consider = [&](std::chrono::steady_clock::time_point when) {
    const int64_t ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
            .count() +
        1;  // round up so the sweep sees the deadline as expired
    best = std::clamp<int64_t>(ms, 0, best);
  };
  if (accept_backoff_) consider(accept_retry_at_);
  for (const auto& [id, conn] : conns_) {
    if (conn.has_deadline) consider(conn.deadline);
  }
  return static_cast<int>(best);
}

}  // namespace privbasis::server
