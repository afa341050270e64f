// Per-connection state for the serving front end.
//
// A Connection owns one accepted nonblocking socket plus everything the
// event loop needs to drive it: the incremental frame decoder on the read
// side, a WriteQueue on the write side (EPOLLOUT is armed only while it
// holds bytes), the request and reply ordinals, and a connection-scoped
// session aggregate so the TELE frames this connection receives at
// FLSH/END are a pure function of ITS requests — never of what other
// connections happened to be doing. Serving counts live in the service's
// registry (server.hpp), not here.
//
// Reply ordering: every frame the connection answers (REQ, STAT, an
// unexpected frame) and a fatal framing/EOF error each take the next
// slot; answers are released strictly in slot order. Session completions
// arrive in scheduling order, so a REP that completes early waits in
// `pending_replies` for its turn, and an ERR waits behind every earlier
// REP. The transcript is then a pure function of the input bytes,
// identical across thread counts and how the bytes were split into
// reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "net/fd.hpp"
#include "service/session.hpp"
#include "service/streaming.hpp"
#include "service/wire.hpp"

namespace deepcat::net {

enum class ConnState {
  kOpen,       ///< reading and serving frames
  kFlushWait,  ///< saw FLSH; waiting for the global quiesce + merge
  kDraining,   ///< saw END / fatal error / server drain; tail pending
  kClosing,    ///< tail queued; close when the write buffer empties
  kZombie,     ///< peer gone with sessions in flight; kept for accounting
};

/// One slot's answer, held until every earlier slot has been written: a
/// finished session (encoded as a REP at release) or encoded frames.
struct PendingReply {
  std::optional<service::StreamReport> report;
  std::string frames;
};

/// Transport result of a socket read or write attempt.
enum class IoStatus {
  kOk,        ///< progressed (or nothing to do)
  kWouldBlock,///< kernel buffer empty/full; wait for the next event
  kEof,       ///< orderly peer shutdown (reads only)
  kError,     ///< ECONNRESET/EPIPE/...; the fd is dead
};

/// Outbound bytes with partial-write tracking, for both connection kinds.
class WriteQueue {
 public:
  void append(std::string_view bytes) { buffer_.append(bytes); }

  /// Pushes queued bytes to `fd`. kOk means the queue is empty;
  /// kWouldBlock means EPOLLOUT should stay armed; kError means the peer
  /// is gone (EPIPE/ECONNRESET).
  [[nodiscard]] IoStatus flush(int fd);

  [[nodiscard]] bool pending() const noexcept {
    return pos_ < buffer_.size();
  }

  /// Drops buffered output (the peer can no longer read).
  void clear() noexcept {
    buffer_.clear();
    pos_ = 0;
  }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

class Connection {
 public:
  Connection(std::uint64_t id, FdGuard fd, bool is_tcp)
      : id_(id), fd_(std::move(fd)), is_tcp_(is_tcp) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool is_tcp() const noexcept { return is_tcp_; }

  ConnState state = ConnState::kOpen;
  service::FrameDecoder decoder;

  std::size_t requests = 0;  ///< REQ frames seen; the next REQ's ordinal
  std::size_t replies = 0;   ///< REPs written; paces `tele_every`
  bool finished = false;     ///< retired (net.closed); awaiting reap only
  /// The peer's EOF has been read. Buffered frames are still served; the
  /// EOF itself is judged once the decoder has nothing complete left.
  bool read_eof = false;

  bool epollout = false;     ///< EPOLLOUT currently armed for this fd
  bool epollin = true;       ///< EPOLLIN currently armed for this fd
  bool epollrdhup = true;    ///< EPOLLRDHUP currently armed for this fd
  std::uint64_t span = 0;    ///< obs span id covering accept..close

  /// Slot-order reply sequencing.
  std::uint64_t next_slot = 0;     ///< assigned when a frame is answered
  std::uint64_t next_release = 0;  ///< next slot to write
  std::map<std::uint64_t, PendingReply> pending_replies;
  std::size_t outstanding = 0;  ///< submitted, completion not yet seen

  /// Sessions released on this connection, in slot order.
  service::SessionAggregate metrics;

  /// Millisecond timestamp (loop clock) of the last read/write progress.
  std::int64_t last_activity_ms = 0;

  /// Encoded frames (and the stream header) waiting for the socket.
  WriteQueue writes;

  /// Reads whatever the kernel has into the decoder. kOk means at least
  /// one byte arrived.
  [[nodiscard]] IoStatus read_some();

  /// Appends one encoded frame to the write queue.
  void queue_frame(service::FrameType type, std::string_view payload) {
    writes.append(service::encode_frame(type, payload));
  }

  void close() noexcept { fd_.reset(); }

 private:
  std::uint64_t id_;
  FdGuard fd_;
  bool is_tcp_;
};

}  // namespace deepcat::net
