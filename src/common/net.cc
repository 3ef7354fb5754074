#include "common/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace privbasis::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Milliseconds until `deadline`, clamped for poll(): 0 when already
/// passed.
int PollTimeoutMs(Deadline deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (deadline <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  return static_cast<int>(std::min<int64_t>(ms + 1, 1 << 30));
}

Status DeadlineExceeded(const char* op) {
  return Status::ResourceExhausted(std::string("deadline exceeded during ") +
                                   op);
}

/// Waits for `events` on fd. Returns true when ready, false on deadline.
Result<bool> PollFor(int fd, short events, Deadline deadline) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (rc > 0) return true;
    if (rc == 0) return false;  // timed out
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

Result<sockaddr_in> ResolveV4(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Numeric IPv4 only — the server binds loopback/interface addresses,
  // not names; keeping getaddrinfo out avoids blocking DNS in tests.
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

Deadline DeadlineAfterMs(int64_t ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Fd::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

Result<Fd> ListenTcp(const std::string& host, uint16_t port, int backlog) {
  PRIVBASIS_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) return Errno("listen");
  PRIVBASIS_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  return fd;
}

Result<uint16_t> LocalPort(const Fd& fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<Fd> AcceptWithDeadline(const Fd& listen_fd, Deadline deadline) {
  for (;;) {
    PRIVBASIS_ASSIGN_OR_RETURN(bool ready,
                               PollFor(listen_fd.get(), POLLIN, deadline));
    if (!ready) return Fd();  // deadline: caller re-checks its stop flag
    const int conn = ::accept(listen_fd.get(), nullptr, nullptr);
    if (conn >= 0) {
      Fd fd(conn);
      // accept() does not inherit O_NONBLOCK; ReadSome/WriteAll rely on
      // it to honor deadlines.
      PRIVBASIS_RETURN_NOT_OK(SetNonBlocking(fd.get()));
      // Request/response round trips are latency-bound: disable Nagle.
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      continue;  // raced with another accept or a client hangup
    }
    return Errno("accept");
  }
}

Result<Fd> ConnectTcp(const std::string& host, uint16_t port,
                      Deadline deadline) {
  PRIVBASIS_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  PRIVBASIS_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return fd;
  }
  if (errno != EINPROGRESS) {
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  PRIVBASIS_ASSIGN_OR_RETURN(bool ready,
                             PollFor(fd.get(), POLLOUT, deadline));
  if (!ready) return DeadlineExceeded("connect");
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    errno = err;
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<size_t> ReadSome(const Fd& fd, char* buf, size_t len,
                        Deadline deadline) {
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("recv");
    PRIVBASIS_ASSIGN_OR_RETURN(bool ready,
                               PollFor(fd.get(), POLLIN, deadline));
    if (!ready) return DeadlineExceeded("read");
  }
}

Result<Fd> AcceptNonBlocking(const Fd& listen_fd) {
  for (;;) {
    const int conn = ::accept(listen_fd.get(), nullptr, nullptr);
    if (conn >= 0) {
      Fd fd(conn);
      PRIVBASIS_RETURN_NOT_OK(SetNonBlocking(fd.get()));
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return Errno("accept");
  }
}

Result<ReadEvent> ReadAvailable(const Fd& fd, std::string* buffer,
                                size_t max_bytes) {
  char chunk[16384];
  const size_t want = std::min(max_bytes, sizeof(chunk));
  for (;;) {
    const ssize_t n = ::recv(fd.get(), chunk, want, 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      return ReadEvent::kData;
    }
    if (n == 0) return ReadEvent::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return ReadEvent::kWouldBlock;
    }
    return Errno("recv");
  }
}

Result<size_t> WriteSome(const Fd& fd, std::string_view data) {
  for (;;) {
    const ssize_t n =
        ::send(fd.get(), data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Errno("send");
  }
}

namespace {

uint32_t EpollMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

Result<Epoll> Epoll::Create() {
  Fd epfd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epfd.valid()) return Errno("epoll_create1");
  return Epoll(std::move(epfd));
}

Status Epoll::Add(const Fd& fd, bool want_read, bool want_write,
                  uint64_t tag) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, fd.get(), &ev) < 0) {
    return Errno("epoll_ctl(ADD)");
  }
  return Status::OK();
}

Status Epoll::Mod(const Fd& fd, bool want_read, bool want_write,
                  uint64_t tag) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_MOD, fd.get(), &ev) < 0) {
    return Errno("epoll_ctl(MOD)");
  }
  return Status::OK();
}

Status Epoll::Del(const Fd& fd) {
  if (::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd.get(), nullptr) < 0) {
    return Errno("epoll_ctl(DEL)");
  }
  return Status::OK();
}

Status Epoll::Wait(int timeout_ms, std::vector<EpollEvent>* events) {
  events->clear();
  epoll_event raw[64];
  for (;;) {
    const int n = ::epoll_wait(epfd_.get(), raw,
                               static_cast<int>(std::size(raw)), timeout_ms);
    if (n >= 0) {
      events->reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        EpollEvent ev;
        ev.tag = raw[i].data.u64;
        ev.readable = (raw[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
        ev.writable = (raw[i].events & EPOLLOUT) != 0;
        ev.error = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        events->push_back(ev);
      }
      return Status::OK();
    }
    if (errno == EINTR) continue;
    return Errno("epoll_wait");
  }
}

Result<WakeupFd> WakeupFd::Create() {
  Fd fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!fd.valid()) return Errno("eventfd");
  return WakeupFd(std::move(fd));
}

void WakeupFd::Signal() const {
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(fd_.get(), &one, sizeof(one));
}

void WakeupFd::Drain() const {
  uint64_t count = 0;
  [[maybe_unused]] const ssize_t n =
      ::read(fd_.get(), &count, sizeof(count));
}

Status WriteAll(const Fd& fd, std::string_view data, Deadline deadline) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd.get(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Errno("send");
    }
    PRIVBASIS_ASSIGN_OR_RETURN(bool ready,
                               PollFor(fd.get(), POLLOUT, deadline));
    if (!ready) return DeadlineExceeded("write");
  }
  return Status::OK();
}

}  // namespace privbasis::net
