// Per-connection state for the serving front end.
//
// A Connection owns one accepted nonblocking socket plus everything the
// event loop needs to drive it: the incremental frame decoder on the read
// side, a byte queue with partial-write tracking on the write side
// (EPOLLOUT is armed only while the queue is nonempty), per-connection
// protocol counters, and a connection-scoped session aggregate so the
// TELE frames this connection receives at FLSH/END are a pure function of
// ITS requests — never of what other connections happened to be doing.
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

class Connection {
 public:
  Connection(std::uint64_t id, FdGuard fd, bool is_tcp)
      : id_(id), fd_(std::move(fd)), is_tcp_(is_tcp) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool is_tcp() const noexcept { return is_tcp_; }

  ConnState state = ConnState::kOpen;
  service::FrameDecoder decoder;

  /// Per-connection serve counters (summed into FrontEndStats).
  std::size_t requests = 0;
  std::size_t failed_sessions = 0;
  std::size_t parse_errors = 0;
  std::size_t protocol_errors = 0;
  std::size_t stat_polls = 0;
  std::size_t tele_frames = 0;
  std::size_t tser_frames = 0;
  std::size_t replies = 0;
  std::size_t overloaded_requests = 0;
  bool clean_end = false;
  bool finished = false;     ///< retired into stats; awaiting reap only
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

  /// Reads whatever the kernel has into the decoder. kOk means at least
  /// one byte arrived.
  [[nodiscard]] IoStatus read_some();

  /// Appends an encoded frame (or raw header bytes) to the write queue.
  void queue_bytes(std::string_view bytes) { write_buffer_.append(bytes); }
  void queue_frame(service::FrameType type, std::string_view payload) {
    write_buffer_.append(service::encode_frame(type, payload));
  }

  /// Pushes queued bytes to the kernel. kOk means the queue is empty;
  /// kWouldBlock means EPOLLOUT should stay armed.
  [[nodiscard]] IoStatus flush_writes();

  [[nodiscard]] bool write_pending() const noexcept {
    return write_pos_ < write_buffer_.size();
  }

  /// Drops buffered output (zombie path: the peer can no longer read).
  void abandon_writes() noexcept {
    write_buffer_.clear();
    write_pos_ = 0;
  }

  void close() noexcept { fd_.reset(); }

 private:
  std::uint64_t id_;
  FdGuard fd_;
  bool is_tcp_;
  std::string write_buffer_;
  std::size_t write_pos_ = 0;
};

}  // namespace deepcat::net
