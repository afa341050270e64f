#include "service/wire.hpp"

#include <cstring>

#include "service/checkpoint.hpp"  // crc32

namespace deepcat::service {

namespace {

constexpr char kWireMagic[4] = {'D', 'C', 'W', 'P'};
constexpr std::size_t kHeaderSize = 8;      // magic + u32 version
constexpr std::size_t kFrameHeadSize = 12;  // u32 type + u64 length

constexpr std::uint32_t kKnownTypes[] = {
    static_cast<std::uint32_t>(FrameType::kRequest),
    static_cast<std::uint32_t>(FrameType::kReply),
    static_cast<std::uint32_t>(FrameType::kTelemetry),
    static_cast<std::uint32_t>(FrameType::kStat),
    static_cast<std::uint32_t>(FrameType::kTimeSeries),
    static_cast<std::uint32_t>(FrameType::kError),
    static_cast<std::uint32_t>(FrameType::kFlush),
    static_cast<std::uint32_t>(FrameType::kEnd),
};

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint64_t get_le(const char* buf, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

bool known_frame_type(std::uint32_t tag) noexcept {
  for (const std::uint32_t t : kKnownTypes) {
    if (t == tag) return true;
  }
  return false;
}

/// CRC over the 12-byte frame head plus the payload — the header words are
/// covered so a bit flip cannot convert one frame type into another.
std::uint32_t frame_crc(const char* head_and_payload, std::size_t size) {
  return crc32(reinterpret_cast<const unsigned char*>(head_and_payload), size);
}

}  // namespace

std::string frame_type_name(std::uint32_t tag) {
  std::string s(4, ' ');
  for (int i = 0; i < 4; ++i) {
    const auto c = static_cast<unsigned char>((tag >> (8 * i)) & 0xFFu);
    s[static_cast<std::size_t>(i)] =
        (c >= 0x20 && c < 0x7F) ? static_cast<char>(c) : '?';
  }
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

std::string encode_stream_header() {
  std::string out(kWireMagic, sizeof kWireMagic);
  put_le(out, kWireVersion, 4);
  return out;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeadSize + payload.size() + 4);
  put_le(out, static_cast<std::uint32_t>(type), 4);
  put_le(out, payload.size(), 8);
  out.append(payload);
  put_le(out, frame_crc(out.data(), out.size()), 4);
  return out;
}

std::optional<Frame> FrameDecoder::next() {
  if (!header_seen_) {
    if (buffered() < kHeaderSize) return std::nullopt;
    const char* head = buffer_.data() + pos_;
    if (std::memcmp(head, kWireMagic, sizeof kWireMagic) != 0) {
      throw WireError("not a DeepCAT wire stream (bad magic)");
    }
    const auto version = static_cast<std::uint32_t>(get_le(head + 4, 4));
    if (version > kWireVersion) {
      throw WireError("wire protocol version " + std::to_string(version) +
                      " is newer than the supported version " +
                      std::to_string(kWireVersion));
    }
    pos_ += kHeaderSize;
    header_seen_ = true;
  }

  if (buffered() < kFrameHeadSize) return std::nullopt;
  const char* head = buffer_.data() + pos_;
  const auto tag = static_cast<std::uint32_t>(get_le(head, 4));
  // Type and length are judged as soon as the head is present: a hostile
  // frame is refused before its payload is ever buffered.
  if (!known_frame_type(tag)) {
    throw WireError("unknown wire frame type '" + frame_type_name(tag) + "'");
  }
  const std::uint64_t len = get_le(head + 4, 8);
  if (len > kMaxFramePayload) {
    throw WireError("'" + frame_type_name(tag) + "' frame claims " +
                    std::to_string(len) + " payload bytes (limit " +
                    std::to_string(kMaxFramePayload) + ")");
  }
  const auto body = static_cast<std::size_t>(kFrameHeadSize + len);
  if (buffered() < body + 4) return std::nullopt;  // head+payload+crc
  const auto stored = static_cast<std::uint32_t>(get_le(head + body, 4));
  if (stored != frame_crc(head, body)) {
    throw WireError("checksum mismatch in '" + frame_type_name(tag) +
                    "' frame");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(tag);
  frame.payload.assign(head + kFrameHeadSize, static_cast<std::size_t>(len));
  pos_ += body + 4;
  // Drop the consumed prefix once it dominates the buffer, so a long-lived
  // connection's buffer doesn't grow with its traffic history.
  if (pos_ >= buffer_.size() || pos_ > 64 * 1024) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return frame;
}

std::string encode_frames(
    const std::vector<std::pair<FrameType, std::string>>& frames) {
  std::string out = encode_stream_header();
  for (const auto& [type, payload] : frames) out += encode_frame(type, payload);
  return out;
}

std::vector<Frame> decode_frames(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  while (std::optional<Frame> f = decoder.next()) {
    const bool end = f->type == FrameType::kEnd;
    frames.push_back(*std::move(f));
    if (end) return frames;
  }
  if (!decoder.header_seen()) throw WireError("truncated wire stream header");
  throw WireError(decoder.midstream()
                      ? "truncated wire stream inside a frame"
                      : "wire stream ended without an 'END' frame");
}

}  // namespace deepcat::service
