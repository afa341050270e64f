// Framed wire protocol for the streaming tuning service.
//
// A wire stream is a header followed by a sequence of frames, mirroring
// the `.dckp` checkpoint container (checkpoint.hpp): magic + version up
// front, then length-prefixed CRC-checked records, then an explicit
// terminator so truncation is always detectable.
//
// Layout (all integers little-endian):
//
//   magic "DCWP" | u32 protocol version
//   repeated frames:  u32 type (FourCC) | u64 payload length
//                     | payload bytes | u32 CRC32(type | length | payload)
//   terminator frame: type "END " with zero length
//
// Unlike the checkpoint sections (whose CRC covers the payload only), a
// frame's CRC also covers its own type and length words: a checkpoint tag
// flip degrades to a skippable/missing section, but a frame-type flip
// would silently turn one imperative into another (one bit separates
// "REQ " from "REP "), so the header itself must be integrity-checked.
//
// Frame types in version 3 (payloads are the service's JSONL objects,
// without the trailing newline):
//
//   "REQ "  client -> server: one tuning request
//   "REP "  server -> client: one session report (+ model, model_epoch)
//   "TELE"  server -> client: versioned telemetry snapshot — one
//           aggregate JSON line ("tele" schema tag + the aggregate
//           fields + build labels) followed by the full name-sorted instrument
//           set, one JSON line per instrument. Emitted at every "FLSH"
//           boundary, in answer to "STAT", and before "END "
//   "STAT"  client -> server: poll an on-demand "TELE" right now, without
//           a flush barrier; payload empty or a flat JSON object
//   "TSER"  server -> client (v3): convergence time-series snapshot —
//           one {"tser":1,...} header line then one flat JSON line per
//           series (obs/timeseries.hpp encoding). Emitted immediately
//           before each "TELE" at "FLSH"/"STAT"/end-of-stream, and only
//           when the server has a TimeSeriesRegistry attached — a server
//           without one produces byte-identical v2-shaped streams
//   "ERR "  server -> client: protocol or parse error description
//   "FLSH"  client -> server: barrier — merge all completed experience
//           into the masters and take bounded fine-tune steps now
//   "END "  either direction: clean end of stream
//
// Unlike the checkpoint reader (which skips unknown *optional* sections),
// the wire reader is strict: an unknown frame type is a typed error. A
// frame is an imperative, not an annotation — silently dropping one would
// turn a corrupt tag byte into a lost request. Evolution happens through
// the version field instead.
//
// Every failure mode — bad magic, newer version, unknown type, oversized
// length, truncation mid-frame, CRC mismatch — raises WireError with a
// message naming the frame; nothing is UB and no attacker-controlled
// length ever reaches an allocation.
//
// There is one reader, the incremental FrameDecoder: the front end feeds
// it socket reads, decode_frames feeds it a whole buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace deepcat::service {

/// Current writer protocol version. Readers accept any version <= this.
/// v2 added the "TELE" and "STAT" frames; v3 added "TSER" and the
/// optional REQ "trace" context (both additive — v1/v2 streams parse
/// unchanged).
inline constexpr std::uint32_t kWireVersion = 3;

/// Hard cap on a single frame payload. The JSONL payloads are a few
/// hundred bytes; anything near this limit is a corrupt or hostile length
/// field, refused before allocation.
inline constexpr std::uint64_t kMaxFramePayload = 16ull << 20;

/// Raised on any malformed, truncated or corrupt wire stream.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameType : std::uint32_t {
  kRequest = 0x20514552u,    // "REQ "
  kReply = 0x20504552u,      // "REP "
  kTelemetry = 0x454C4554u,  // "TELE"
  kStat = 0x54415453u,       // "STAT"
  kTimeSeries = 0x52455354u, // "TSER"
  kError = 0x20525245u,      // "ERR "
  kFlush = 0x48534C46u,      // "FLSH"
  kEnd = 0x20444E45u,        // "END "
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Printable name of a frame type ("REQ", "REP", ...); unknown or corrupt
/// tags render their printable bytes with '?' placeholders.
[[nodiscard]] std::string frame_type_name(std::uint32_t tag);

/// The stream header (magic + version) and one encoded frame (type,
/// length, payload, CRC).
[[nodiscard]] std::string encode_stream_header();
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

/// Incremental decoder: buffers fed byte slices and yields complete,
/// validated frames as they materialize. Checks run in stream order:
///
///   - stream header (magic + version) first;
///   - unknown frame type as soon as the 12-byte head is present;
///   - payload length against kMaxFramePayload BEFORE buffering a payload,
///     so a hostile length can never balloon the buffer;
///   - CRC over head+payload when the frame completes.
///
/// A violation throws WireError; the decoder is then poisoned and must be
/// discarded, like an unreadable stream. Truncation (EOF mid-frame) is the
/// transport's call: it asks `midstream()` when the input ends.
class FrameDecoder {
 public:
  /// Appends received bytes. Cheap; validation happens in next().
  void feed(const char* data, std::size_t size) { buffer_.append(data, size); }

  /// Returns the next complete frame, or nullopt when more bytes are
  /// needed. Throws WireError on any protocol violation.
  [[nodiscard]] std::optional<Frame> next();

  /// True once the stream header has been consumed and validated.
  [[nodiscard]] bool header_seen() const noexcept { return header_seen_; }

  /// True when EOF now would cut a frame (or the header) in half — i.e.
  /// there are buffered undecoded bytes or the header never arrived.
  [[nodiscard]] bool midstream() const noexcept {
    return buffered() != 0 || !header_seen_;
  }

  /// Undecoded bytes currently buffered.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - pos_;
  }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted between frames
  bool header_seen_ = false;
};

/// Convenience for tests and clients: encodes header + frames to a string
/// / decodes a whole stream, validating every frame. decode stops at the
/// "END " frame and errors if the stream ends without one.
[[nodiscard]] std::string encode_frames(
    const std::vector<std::pair<FrameType, std::string>>& frames);
[[nodiscard]] std::vector<Frame> decode_frames(const std::string& bytes);

}  // namespace deepcat::service
