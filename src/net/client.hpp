// BlockingClient: a simple synchronous DCWP peer over a connected
// socket, for `deepcat stats`, the load-generator bench and the socket
// tests. One side of the conversation at a time: send frames, then read
// replies until END.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/fd.hpp"
#include "obs/sink.hpp"
#include "service/wire.hpp"

namespace deepcat::net {

class BlockingClient {
 public:
  /// Connect (blocking) and send nothing yet; send_header() starts the
  /// conversation.
  [[nodiscard]] static BlockingClient to_unix(const std::string& path);
  [[nodiscard]] static BlockingClient to_tcp(const std::string& host,
                                             std::uint16_t port);

  void send_header();
  void send_frame(service::FrameType type, std::string_view payload);

  /// Half-closes the write side, signalling the server that no more
  /// frames follow (rarely needed — END does this at the protocol level).
  void shutdown_writes();

  /// Blocks for the next server frame. Returns nullopt on a clean EOF at
  /// a frame boundary after the header; throws service::WireError on
  /// protocol violations or mid-frame truncation, std::runtime_error on
  /// socket errors.
  [[nodiscard]] std::optional<service::Frame> read_frame();

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }

  /// Client-side tracing: with a tracer in the sink, send_frame wraps the
  /// socket write in a "client.send.<TYPE>" span and read_frame wraps the
  /// blocking receive in "client.recv", both parented under the sink's
  /// trace_parent. Default (inert sink) adds nothing.
  void set_obs(const obs::Sink& obs) { obs_ = obs; }

  /// Closes the socket outright (the midstream-disconnect tests).
  void close() noexcept { fd_.reset(); }

 private:
  explicit BlockingClient(FdGuard fd) : fd_(std::move(fd)) {}
  void send_all(std::string_view bytes);

  FdGuard fd_;
  service::FrameDecoder decoder_;
  obs::Sink obs_;
};

}  // namespace deepcat::net
