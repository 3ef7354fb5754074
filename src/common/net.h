// Thin POSIX TCP helpers under the query server (server/http.h) and its
// in-process clients (tests, bench_smoke's server_latency phase): listen
// with ephemeral-port support, connect with timeout, and deadline-bounded
// read/write built on poll(2). No buffering or protocol knowledge — that
// lives in server/http.
//
// Every blocking operation takes an absolute steady_clock deadline rather
// than a per-call timeout, so one request-scoped deadline bounds an
// arbitrary number of partial reads/writes (the server's per-request
// deadline contract).
#ifndef PRIVBASIS_COMMON_NET_H_
#define PRIVBASIS_COMMON_NET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace privbasis::net {

using Deadline = std::chrono::steady_clock::time_point;

/// Deadline `ms` milliseconds from now.
Deadline DeadlineAfterMs(int64_t ms);

/// Owning file-descriptor handle (closes on destruction; move-only).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { Close(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Closes now (idempotent).
  void Close();
  /// Releases ownership without closing.
  int Release();

 private:
  int fd_ = -1;
};

/// Creates a listening TCP socket bound to `host:port` (SO_REUSEADDR,
/// non-blocking accept via poll). port 0 binds an ephemeral port — read
/// it back with LocalPort.
Result<Fd> ListenTcp(const std::string& host, uint16_t port,
                     int backlog = 128);

/// The locally bound port of a socket (after ListenTcp with port 0).
Result<uint16_t> LocalPort(const Fd& fd);

/// Accepts one connection, waiting until `deadline`. Returns an invalid
/// Fd (not an error) on deadline expiry so accept loops can poll a stop
/// flag between waits.
Result<Fd> AcceptWithDeadline(const Fd& listen_fd, Deadline deadline);

/// Connects to `host:port`, failing once `deadline` passes.
Result<Fd> ConnectTcp(const std::string& host, uint16_t port,
                      Deadline deadline);

/// Reads up to `len` bytes. Returns 0 on orderly EOF; blocks (via poll)
/// until data, EOF, or the deadline. Deadline expiry is
/// kDeadlineExceeded-like: Status kResourceExhausted("deadline ...").
Result<size_t> ReadSome(const Fd& fd, char* buf, size_t len,
                        Deadline deadline);

/// Writes all of `data` before `deadline` or fails.
Status WriteAll(const Fd& fd, std::string_view data, Deadline deadline);

// ---------------------------------------------------------------------
// Readiness-loop primitives (the server's epoll event loop). Unlike the
// deadline-blocking helpers above, these never park the calling thread:
// one I/O thread multiplexes every connection fd and timers are the
// loop's own job.

/// Accepts one pending connection without blocking. Returns an invalid
/// Fd when none is pending (EAGAIN) — not an error. Accepted fds are
/// non-blocking with TCP_NODELAY, exactly as AcceptWithDeadline.
Result<Fd> AcceptNonBlocking(const Fd& listen_fd);

/// One non-blocking read pass: what happened on the socket.
enum class ReadEvent {
  kData,        ///< ≥ 1 byte appended to the buffer
  kWouldBlock,  ///< nothing pending; wait for readiness
  kEof,         ///< orderly close from the peer
};

/// Appends up to `max_bytes` available bytes to `buffer` without
/// blocking (one recv call).
Result<ReadEvent> ReadAvailable(const Fd& fd, std::string* buffer,
                                size_t max_bytes);

/// One non-blocking write pass: bytes sent (0 = socket buffer full,
/// wait for writability).
Result<size_t> WriteSome(const Fd& fd, std::string_view data);

/// One epoll readiness report, tagged with the caller's 64-bit key.
struct EpollEvent {
  uint64_t tag = 0;
  bool readable = false;
  bool writable = false;
  /// EPOLLERR/EPOLLHUP: the connection is dead or half-dead; reads will
  /// report it precisely, so callers may simply treat it as readable.
  bool error = false;
};

/// Thin epoll(7) wrapper (level-triggered). Move-only, owns the epoll fd.
class Epoll {
 public:
  Epoll() = default;
  static Result<Epoll> Create();

  bool valid() const { return epfd_.valid(); }

  /// Registers `fd` with read/write interest under `tag`.
  Status Add(const Fd& fd, bool want_read, bool want_write, uint64_t tag);
  /// Updates interest for an already registered fd.
  Status Mod(const Fd& fd, bool want_read, bool want_write, uint64_t tag);
  /// Unregisters `fd` (required before closing a still-registered fd
  /// only when it was dup'ed; harmless otherwise).
  Status Del(const Fd& fd);

  /// Waits up to `timeout_ms` (-1 = indefinitely) and appends ready
  /// events to `events` (cleared first). EINTR retries internally.
  Status Wait(int timeout_ms, std::vector<EpollEvent>* events);

 private:
  explicit Epoll(Fd epfd) : epfd_(std::move(epfd)) {}
  Fd epfd_;
};

/// eventfd-backed cross-thread wakeup for an epoll loop: Signal() from
/// any thread makes fd() readable; the loop Drain()s it and re-checks
/// its queues. Signal/Drain are async-safe and idempotent.
class WakeupFd {
 public:
  WakeupFd() = default;
  static Result<WakeupFd> Create();

  bool valid() const { return fd_.valid(); }
  const Fd& fd() const { return fd_; }

  void Signal() const;
  void Drain() const;

 private:
  explicit WakeupFd(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
};

}  // namespace privbasis::net

#endif  // PRIVBASIS_COMMON_NET_H_
