// FrameDecoder contract: byte-slice feeding yields exactly the encoded
// frames whatever the slicing, and every protocol violation throws a
// WireError whose message names what went wrong — the same message from
// the whole-stream reader (decode_frames) and from the decoder fed one
// byte at a time, as a socket may deliver it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "service/wire.hpp"

namespace deepcat::service {
namespace {

using FrameSpec = std::pair<FrameType, std::string>;

std::string wire_bytes(const std::vector<FrameSpec>& frames) {
  return encode_frames(frames);
}

// The error message the whole-stream reader dies with ("" = none).
std::string stream_reader_error(const std::string& bytes) {
  try {
    (void)decode_frames(bytes);
  } catch (const WireError& e) {
    return e.what();
  }
  return "";
}

// The error message the decoder dies with when fed one byte per call.
std::string bytewise_decoder_error(const std::string& bytes) {
  FrameDecoder decoder;
  try {
    for (const char byte : bytes) {
      decoder.feed(&byte, 1);
      while (decoder.next()) {
      }
    }
  } catch (const WireError& e) {
    return e.what();
  }
  return "";
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

TEST(FrameDecoderTest, WholeBufferMatchesEncodedFrames) {
  const std::vector<FrameSpec> frames = {
      {FrameType::kRequest, "{\"id\":\"a\",\"workload\":\"TS-D1\"}"},
      {FrameType::kFlush, ""},
      {FrameType::kStat, ""},
      {FrameType::kEnd, ""},
  };
  const std::string bytes = wire_bytes(frames);

  FrameDecoder decoder;
  EXPECT_FALSE(decoder.header_seen());
  EXPECT_TRUE(decoder.midstream()) << "no header yet = EOF would truncate";
  decoder.feed(bytes.data(), bytes.size());
  for (const auto& expected : frames) {
    const auto got = decoder.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, expected.first);
    EXPECT_EQ(got->payload, expected.second);
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.header_seen());
  EXPECT_FALSE(decoder.midstream()) << "clean frame boundary";
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, ByteAtATimeEqualsWholeBuffer) {
  // The decoder must be slice-oblivious: the most adversarial slicing
  // (one byte per feed) yields the identical frame sequence.
  const std::vector<FrameSpec> frames = {
      {FrameType::kRequest, std::string(1000, 'x')},
      {FrameType::kTelemetry, "{\"tele\":1}"},
      {FrameType::kEnd, ""},
  };
  const std::string bytes = wire_bytes(frames);

  FrameDecoder decoder;
  std::vector<Frame> got;
  for (const char byte : bytes) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) got.push_back(*std::move(frame));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(got[i].type, frames[i].first);
    EXPECT_EQ(got[i].payload, frames[i].second);
  }
  EXPECT_FALSE(decoder.midstream());
}

TEST(FrameDecoderTest, MidstreamReflectsPartialFrames) {
  const std::string bytes = wire_bytes({{FrameType::kEnd, ""}});
  FrameDecoder decoder;
  // Header (8 bytes) plus half the frame head.
  decoder.feed(bytes.data(), 12);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.header_seen());
  EXPECT_TRUE(decoder.midstream());
  EXPECT_EQ(decoder.buffered(), 4u);
  decoder.feed(bytes.data() + 12, bytes.size() - 12);
  EXPECT_TRUE(decoder.next().has_value());
  EXPECT_FALSE(decoder.midstream());
}

TEST(FrameDecoderTest, BadMagicMatchesStreamReaderMessage) {
  const std::string bytes = "BOGUS-BYTES-NOT-A-WIRE-STREAM";
  const std::string expected = stream_reader_error(bytes);
  EXPECT_EQ(expected, "not a DeepCAT wire stream (bad magic)");
  EXPECT_EQ(bytewise_decoder_error(bytes), expected);
}

TEST(FrameDecoderTest, NewerVersionMatchesStreamReaderMessage) {
  std::string bytes = "DCWP";
  put_u32(bytes, kWireVersion + 5);
  const std::string expected = stream_reader_error(bytes);
  EXPECT_EQ(expected, "wire protocol version " +
                          std::to_string(kWireVersion + 5) +
                          " is newer than the supported version " +
                          std::to_string(kWireVersion));
  EXPECT_EQ(bytewise_decoder_error(bytes), expected);
}

TEST(FrameDecoderTest, UnknownFrameTypeMatchesStreamReaderMessage) {
  std::string bytes = encode_stream_header();
  put_u32(bytes, 0x57595A58u);  // "XZYW": not a known FourCC
  put_u64(bytes, 0);
  put_u32(bytes, 0);  // CRC never reached; the type dies first
  const std::string expected = stream_reader_error(bytes);
  EXPECT_EQ(expected, "unknown wire frame type 'XZYW'");
  EXPECT_EQ(bytewise_decoder_error(bytes), expected);
}

TEST(FrameDecoderTest, OversizedFrameRejectedAtTheHead) {
  // A hostile length dies as soon as the 12-byte head is present — no
  // payload bytes follow, so this also proves the decoder never waits for
  // (or buffers) the claimed 16 MiB+.
  std::string bytes = encode_stream_header();
  put_u32(bytes, static_cast<std::uint32_t>(FrameType::kRequest));
  put_u64(bytes, kMaxFramePayload + 1);

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  try {
    (void)decoder.next();
    FAIL() << "oversized frame must throw";
  } catch (const WireError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("claims"), std::string::npos) << message;
    EXPECT_NE(message.find("limit"), std::string::npos) << message;
  }
}

TEST(FrameDecoderTest, OversizedFrameMessageMatchesStreamReader) {
  std::string bytes = encode_stream_header();
  put_u32(bytes, static_cast<std::uint32_t>(FrameType::kRequest));
  put_u64(bytes, kMaxFramePayload + 1);
  const std::string expected = stream_reader_error(bytes);
  EXPECT_EQ(expected, "'REQ' frame claims " +
                          std::to_string(kMaxFramePayload + 1) +
                          " payload bytes (limit " +
                          std::to_string(kMaxFramePayload) + ")");
  EXPECT_EQ(bytewise_decoder_error(bytes), expected);
}

TEST(FrameDecoderTest, CorruptPayloadFailsTheChecksum) {
  std::string bytes = wire_bytes({{FrameType::kRequest, "payload-bytes"}});
  bytes[bytes.size() - 6] ^= 0x01;  // flip a payload bit
  const std::string expected = stream_reader_error(bytes);
  EXPECT_EQ(expected, "checksum mismatch in 'REQ' frame");
  EXPECT_EQ(bytewise_decoder_error(bytes), expected);
}

TEST(FrameDecoderTest, FramesAfterACorruptOneAreNeverSurfaced) {
  std::string bytes =
      wire_bytes({{FrameType::kRequest, "abc"}, {FrameType::kEnd, ""}});
  // Corrupt the FIRST frame's payload ('a' lives right after its head).
  const std::size_t payload_at = 8 + 12;
  ASSERT_EQ(bytes[payload_at], 'a');
  bytes[payload_at] = 'z';
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next(), WireError);
}

TEST(FrameDecoderTest, LargeValidPayloadRoundTrips) {
  // Interior compaction: a large frame fed in slices exercises the
  // buffer-compaction path without tripping the size cap.
  const std::string payload(256 * 1024, 'q');
  const std::string bytes = wire_bytes({{FrameType::kReply, payload},
                                        {FrameType::kEnd, ""}});
  FrameDecoder decoder;
  std::size_t fed = 0;
  std::vector<Frame> got;
  while (fed < bytes.size()) {
    const std::size_t n = std::min<std::size_t>(4096, bytes.size() - fed);
    decoder.feed(bytes.data() + fed, n);
    fed += n;
    while (auto frame = decoder.next()) got.push_back(*std::move(frame));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, payload);
  EXPECT_EQ(got[1].type, FrameType::kEnd);
}

}  // namespace
}  // namespace deepcat::service
