// Framed wire protocol (DCWP): header validation, frame round trips,
// strict unknown-type rejection, typed errors naming the offending frame,
// and the hostile-length allocation guard.
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <string>

#include "service/checkpoint.hpp"  // crc32

namespace deepcat::service {
namespace {

std::string valid_stream() {
  return encode_frames({
      {FrameType::kRequest, "{\"workload\":\"TS-D1\"}"},
      {FrameType::kFlush, ""},
      {FrameType::kRequest, "{\"workload\":\"PR-D1\"}"},
      {FrameType::kEnd, ""},
  });
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  const auto frames = decode_frames(valid_stream());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kRequest);
  EXPECT_EQ(frames[0].payload, "{\"workload\":\"TS-D1\"}");
  EXPECT_EQ(frames[1].type, FrameType::kFlush);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(frames[2].type, FrameType::kRequest);
  EXPECT_EQ(frames[3].type, FrameType::kEnd);
}

TEST(WireTest, EmptyAndBinaryPayloadsRoundTrip) {
  std::string binary(300, '\0');
  for (std::size_t i = 0; i < binary.size(); ++i) {
    binary[i] = static_cast<char>(i & 0xFF);
  }
  const auto frames = decode_frames(encode_frames({
      {FrameType::kReply, ""},
      {FrameType::kTimeSeries, binary},
      {FrameType::kEnd, ""},
  }));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(frames[0].payload.empty());
  EXPECT_EQ(frames[1].payload, binary);
}

TEST(WireTest, RejectsBadMagic) {
  std::string s = valid_stream();
  s[0] = 'X';
  try {
    (void)decode_frames(s);
    FAIL() << "bad magic accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(WireTest, RejectsNewerVersion) {
  std::string s = valid_stream();
  s[4] = static_cast<char>(kWireVersion + 1);  // little-endian low byte
  try {
    (void)decode_frames(s);
    FAIL() << "newer version accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(WireTest, RejectsUnknownFrameTypeByName) {
  // Unlike the checkpoint reader (skip unknown optional sections), the
  // wire reader refuses unknown frames: dropping an imperative is a lost
  // request, not a compatibility feature. The retired METR frame is one.
  for (const char* tag : {"BOGU", "METR"}) {
    std::string bytes = encode_stream_header() + tag;
    bytes.append(12, '\0');  // length + CRC
    try {
      (void)decode_frames(bytes);
      ADD_FAILURE() << "unknown frame type " << tag << " accepted";
    } catch (const WireError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown wire frame type '" +
                                           std::string(tag) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WireTest, RejectsOversizedLengthBeforeAllocating) {
  std::string bytes = encode_stream_header() + "REQ ";
  // Hostile length field: ~2^63 claimed payload bytes, no actual payload.
  bytes.append(7, '\0');
  bytes.push_back('\x70');
  try {
    (void)decode_frames(bytes);
    FAIL() << "hostile length accepted";
  } catch (const WireError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("REQ"), std::string::npos);
    EXPECT_NE(msg.find("limit"), std::string::npos);
  }
}

TEST(WireTest, DetectsCorruptPayloadByChecksum) {
  std::string s = valid_stream();
  // Flip one payload byte of the first REQ frame (header is 8 bytes, frame
  // head is 12, so payload starts at 20).
  s[21] ^= 0x01;
  try {
    (void)decode_frames(s);
    FAIL() << "corrupt payload accepted";
  } catch (const WireError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum"), std::string::npos);
    EXPECT_NE(msg.find("REQ"), std::string::npos);
  }
}

TEST(WireTest, EveryTruncationIsATypedError) {
  const std::string s = valid_stream();
  for (std::size_t cut = 0; cut < s.size(); ++cut) {
    EXPECT_THROW((void)decode_frames(s.substr(0, cut)), WireError)
        << "truncation at byte " << cut << " was accepted";
  }
}

TEST(WireTest, CleanEofAtFrameBoundaryIsNullopt) {
  const std::string bytes =
      encode_stream_header() + encode_frame(FrameType::kRequest, "x");
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  ASSERT_TRUE(decoder.next().has_value());
  // EOF exactly at a frame boundary: nullopt and not midstream, not an
  // exception — whether that EOF is legal (END seen?) is the caller's
  // decision.
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.midstream());
}

TEST(WireTest, FrameTypeNameSanitizesUnprintableTags) {
  EXPECT_EQ(frame_type_name(static_cast<std::uint32_t>(FrameType::kRequest)),
            "REQ");
  EXPECT_EQ(frame_type_name(static_cast<std::uint32_t>(FrameType::kTimeSeries)),
            "TSER");
  EXPECT_EQ(frame_type_name(static_cast<std::uint32_t>(FrameType::kTelemetry)),
            "TELE");
  EXPECT_EQ(frame_type_name(static_cast<std::uint32_t>(FrameType::kStat)),
            "STAT");
  EXPECT_EQ(frame_type_name(0x01020304u), "????");
}

TEST(WireTest, TelemetryAndStatFramesRoundTrip) {
  // The v2 frames are plain payload carriers through the same framing: a
  // multi-line TELE snapshot and an empty STAT poll both survive intact.
  const std::string tele =
      "{\"tele\":1,\"deterministic\":true,\"sessions\":2}\n"
      "{\"name\":\"stream.flushes\",\"kind\":\"counter\",\"value\":1}";
  const auto frames = decode_frames(encode_frames({
      {FrameType::kStat, ""},
      {FrameType::kTelemetry, tele},
      {FrameType::kEnd, ""},
  }));
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kStat);
  EXPECT_TRUE(frames[0].payload.empty());
  EXPECT_EQ(frames[1].type, FrameType::kTelemetry);
  EXPECT_EQ(frames[1].payload, tele);
}

TEST(WireTest, AcceptsVersionOneStream) {
  // v2 only added frame types; a v1 stream (no TELE/STAT) is still legal
  // input and the header version field is allowed to be lower.
  static_assert(kWireVersion >= 2, "v2 added TELE/STAT");
  std::string s = valid_stream();
  s[4] = static_cast<char>(1);  // little-endian low byte of the version
  const auto frames = decode_frames(s);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kRequest);
  EXPECT_EQ(frames[3].type, FrameType::kEnd);
}

TEST(WireTest, FrameCrcCoversHeadAndPayload) {
  // One CRC implementation across both containers, but a frame's trailer
  // covers its own type + length words too: a header flip (one bit
  // separates "REQ " from "REP ") must not survive as a valid frame.
  const std::string payload = "shared-crc-check";
  const std::string bytes = encode_frame(FrameType::kReply, payload);
  const std::string head_and_payload = bytes.substr(0, bytes.size() - 4);
  const std::uint32_t expected =
      crc32(reinterpret_cast<const unsigned char*>(head_and_payload.data()),
            head_and_payload.size());
  const auto tail = bytes.substr(bytes.size() - 4);
  std::uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | static_cast<unsigned char>(tail[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(stored, expected);

  // The type-flip attack specifically: REP -> REQ must be rejected.
  std::string flipped = encode_stream_header() + bytes;
  flipped[8 + 2] ^= 0x01;  // 'P' -> 'Q' in the type FourCC
  FrameDecoder decoder;
  decoder.feed(flipped.data(), flipped.size());
  EXPECT_THROW((void)decoder.next(), WireError);
}

TEST(WireTest, DecodeRequiresExplicitEndFrame) {
  try {
    (void)decode_frames(encode_stream_header() +
                        encode_frame(FrameType::kRequest, "{}"));
    FAIL() << "stream without END accepted";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("END"), std::string::npos);
  }
}

}  // namespace
}  // namespace deepcat::service
