#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace deepcat::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

epoll_event make_event(std::uint64_t token, bool want_write, bool want_read,
                       bool want_hangup = true) {
  epoll_event ev{};
  // EPOLLRDHUP is armed by default: even a fd whose reads are paused must
  // notice the peer hanging up.
  ev.events = want_hangup ? EPOLLRDHUP : 0u;
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = token;
  return ev;
}

}  // namespace

EventLoop::EventLoop() : epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_.valid()) throw_errno("epoll_create1()");
}

void EventLoop::add(int fd, std::uint64_t token, bool want_write) {
  epoll_event ev = make_event(token, want_write, /*want_read=*/true);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

void EventLoop::modify(int fd, std::uint64_t token, bool want_write,
                       bool want_read, bool want_hangup) {
  epoll_event ev = make_event(token, want_write, want_read, want_hangup);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl(MOD)");
  }
}

void EventLoop::remove(int fd) {
  // Kernel copies the interest entry; a dying fd may already be gone.
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

std::size_t EventLoop::wait(std::vector<Event>& out, int timeout_ms) {
  out.clear();
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_.get(), events, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("epoll_wait()");
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event ev;
    ev.token = events[i].data.u64;
    ev.readable = (events[i].events & EPOLLIN) != 0;
    ev.writable = (events[i].events & EPOLLOUT) != 0;
    ev.hangup = (events[i].events & (EPOLLHUP | EPOLLRDHUP)) != 0;
    ev.error = (events[i].events & EPOLLERR) != 0;
    out.push_back(ev);
  }
  return static_cast<std::size_t>(n);
}

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (!fd_.valid()) throw_errno("eventfd()");
}

void WakeFd::notify() noexcept {
  const std::uint64_t one = 1;
  // Async-signal-safe: a plain write. EAGAIN means the counter is already
  // nonzero — the wakeup is pending, nothing to do.
  (void)::write(fd_.get(), &one, sizeof one);
}

void WakeFd::drain() noexcept {
  std::uint64_t value = 0;
  (void)::read(fd_.get(), &value, sizeof value);
}

}  // namespace deepcat::net
