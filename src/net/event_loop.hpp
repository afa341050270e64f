// Thin epoll wrapper for the serving front end.
//
// One EventLoop owns one epoll instance; fds register with an opaque
// u64 token (the front end uses 0/1 for listeners, connection ids above
// that). wait() fills a caller-owned vector of Event records so the hot
// loop never allocates. A WakeFd (eventfd) gives other threads — pool
// completion callbacks, signal handlers — an async-signal-safe way to
// kick the loop out of epoll_wait.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fd.hpp"

namespace deepcat::net {

struct Event {
  std::uint64_t token = 0;
  bool readable = false;
  bool writable = false;
  bool hangup = false;  ///< EPOLLHUP | EPOLLRDHUP
  bool error = false;   ///< EPOLLERR
};

class EventLoop {
 public:
  EventLoop();

  /// Registers `fd` for read (and optionally write) events under `token`.
  void add(int fd, std::uint64_t token, bool want_write = false);
  /// Re-arms `fd`'s interest set: EPOLLOUT toggling for write
  /// backpressure, EPOLLIN toggling for read backpressure (a paused fd
  /// leaves inbound bytes in the kernel socket buffer instead of user
  /// memory). EPOLLRDHUP stays armed either way so hangups are seen,
  /// unless `want_hangup` is false: once a peer's EOF has been read, a
  /// level-triggered hangup would only fire again on every wait.
  void modify(int fd, std::uint64_t token, bool want_write,
              bool want_read = true, bool want_hangup = true);
  void remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready events to
  /// `out` (cleared first). Returns the number of events. EINTR yields 0.
  std::size_t wait(std::vector<Event>& out, int timeout_ms);

 private:
  FdGuard epoll_;
};

/// Nonblocking eventfd: notify() is one 8-byte write, safe from signal
/// handlers and foreign threads; drain() resets the counter.
class WakeFd {
 public:
  WakeFd();
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  void notify() noexcept;
  void drain() noexcept;

 private:
  FdGuard fd_;
};

}  // namespace deepcat::net
