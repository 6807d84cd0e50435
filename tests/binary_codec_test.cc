// Boundary-value coverage for the binary codec primitives the wire
// protocol and durability layer share, plus the frame codec that carries
// them over sockets.

#include "common/binary_codec.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/frame_codec.h"

namespace cqms {
namespace {

// --- varint ----------------------------------------------------------------

TEST(VarintTest, BoundaryValuesRoundTrip) {
  const uint64_t cases[] = {
      0,
      1,
      127,                        // largest 1-byte varint
      128,                        // smallest 2-byte varint
      16383,
      16384,
      (uint64_t{1} << 32) - 1,
      uint64_t{1} << 32,
      (uint64_t{1} << 56) - 1,
      uint64_t{1} << 56,
      std::numeric_limits<uint64_t>::max(),
  };
  for (uint64_t v : cases) {
    BinaryWriter w;
    w.PutVarint(v);
    BinaryReader r(w.data());
    EXPECT_EQ(r.GetVarint(), v) << v;
    EXPECT_TRUE(r.AtEnd()) << v;
  }
}

TEST(VarintTest, EncodedSizes) {
  auto size_of = [](uint64_t v) {
    BinaryWriter w;
    w.PutVarint(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(16383), 2u);
  EXPECT_EQ(size_of(16384), 3u);
  EXPECT_EQ(size_of(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(VarintTest, TruncatedDecodeFails) {
  BinaryWriter w;
  w.PutVarint(std::numeric_limits<uint64_t>::max());
  for (size_t keep = 0; keep < w.size(); ++keep) {
    BinaryReader r(std::string_view(w.data()).substr(0, keep));
    r.GetVarint();
    EXPECT_TRUE(r.failed()) << "kept " << keep << " bytes";
    EXPECT_FALSE(r.AtEnd());
  }
}

TEST(VarintTest, AllContinuationBytesFails) {
  // Ten 0x80 bytes: a varint that never terminates within the 64-bit
  // budget must latch failure, not loop or wrap.
  std::string bytes(10, '\x80');
  BinaryReader r(bytes);
  r.GetVarint();
  EXPECT_TRUE(r.failed());
}

TEST(VarintTest, FailureLatches) {
  BinaryWriter w;
  w.PutVarint(5);
  BinaryReader r(w.data());
  r.GetFixed64();  // overreads: 1 byte available
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.GetVarint(), 0u);  // every later read returns zero
  EXPECT_FALSE(r.AtEnd());
}

// --- zigzag ----------------------------------------------------------------

TEST(ZigzagTest, SignBoundariesRoundTrip) {
  const int64_t cases[] = {
      0,
      1,
      -1,
      63,
      64,
      -64,
      -65,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
  };
  for (int64_t v : cases) {
    BinaryWriter w;
    w.PutZigzag(v);
    BinaryReader r(w.data());
    EXPECT_EQ(r.GetZigzag(), v) << v;
    EXPECT_TRUE(r.AtEnd()) << v;
  }
}

TEST(ZigzagTest, SmallMagnitudesStaySmall) {
  // The point of zigzag: -1 must not balloon to ten bytes.
  for (int64_t v : {-64, -1, 0, 1, 63}) {
    BinaryWriter w;
    w.PutZigzag(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

// --- strings / fixed-width -------------------------------------------------

TEST(StringTest, EmptyAndBinaryRoundTrip) {
  std::string binary("\x00\xff\x7f\x80\n", 5);
  BinaryWriter w;
  w.PutString("");
  w.PutString(binary);
  BinaryReader r(w.data());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_EQ(r.GetString(), binary);
  EXPECT_TRUE(r.AtEnd());
}

TEST(StringTest, LengthPrefixBeyondBufferFails) {
  BinaryWriter w;
  w.PutVarint(1000);  // length prefix promising bytes that do not exist
  w.PutBytes("abc", 3);
  BinaryReader r(w.data());
  EXPECT_EQ(r.GetStringView(), std::string_view());
  EXPECT_TRUE(r.failed());
}

TEST(FixedTest, RoundTripAndTruncation) {
  BinaryWriter w;
  w.PutFixed32(0xdeadbeef);
  w.PutFixed64(0x0123456789abcdefULL);
  w.PutDouble(-2.5);
  BinaryReader r(w.data());
  EXPECT_EQ(r.GetFixed32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetFixed64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetDouble(), -2.5);
  EXPECT_TRUE(r.AtEnd());

  BinaryReader t(std::string_view(w.data()).substr(0, 3));
  t.GetFixed32();
  EXPECT_TRUE(t.failed());
}

TEST(FixedTest, PatchOverwritesInPlaceAndSkipSteps) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutFixed64(0);  // placeholder
  w.PutU8(9);
  w.PatchFixed64(1, 0x0123456789abcdefULL);
  ASSERT_EQ(w.size(), 10u);
  BinaryReader r(w.data());
  EXPECT_EQ(r.GetU8(), 7u);
  EXPECT_EQ(r.GetFixed64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetU8(), 9u);
  EXPECT_TRUE(r.AtEnd());

  BinaryReader s(w.data());
  s.Skip(9);
  EXPECT_EQ(s.GetU8(), 9u);
  EXPECT_TRUE(s.AtEnd());
  s.Skip(1);  // past the end latches failure
  EXPECT_TRUE(s.failed());
}

// --- byte counter ------------------------------------------------------------

/// ByteCounter sizes an encoder's output before it runs for real, so it
/// must agree with BinaryWriter byte for byte on every primitive.
TEST(ByteCounterTest, MatchesWriterSizeForEveryPrimitive) {
  BinaryWriter w;
  ByteCounter c;
  auto both = [&](auto put) {
    put(&w);
    put(&c);
    ASSERT_EQ(c.size(), w.size());
  };
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 35,
                     std::numeric_limits<uint64_t>::max()}) {
    both([v](auto* x) { x->PutVarint(v); });
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{63}, int64_t{-64},
                    int64_t{64}, std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    both([v](auto* x) { x->PutZigzag(v); });
  }
  both([](auto* x) { x->PutU8(200); });
  both([](auto* x) { x->PutFixed32(1); });
  both([](auto* x) { x->PutFixed64(1); });
  both([](auto* x) { x->PutDouble(0.5); });
  both([](auto* x) { x->PutString(""); });
  both([](auto* x) { x->PutString(std::string(300, 'q')); });
  both([](auto* x) { x->PutBytes("abc", 3); });
  both([](auto* x) {
    PutDeltaU64s(x, {1, 2, 1000, std::numeric_limits<uint64_t>::max()});
  });
}

// --- byte matcher -----------------------------------------------------------

/// ByteMatcher decides whether an encoder would reproduce a byte string
/// (the snapshot's statement dedupe), so it must accept exactly the
/// bytes BinaryWriter writes: every primitive, and nothing shorter,
/// longer or one bit off.
TEST(ByteMatcherTest, AcceptsExactlyTheWritersBytes) {
  auto encode = [](auto* x) {
    for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                       uint64_t{1} << 35, std::numeric_limits<uint64_t>::max()}) {
      x->PutVarint(v);
    }
    x->PutZigzag(-64);
    x->PutZigzag(std::numeric_limits<int64_t>::min());
    x->PutU8(200);
    x->PutFixed32(0xA1B2C3D4u);
    x->PutFixed64(0x0102030405060708ull);
    x->PutDouble(0.5);
    x->PutString("");
    x->PutString(std::string(300, 'q'));
    x->PutBytes("abc", 3);
    PutDeltaU64s(x, {1, 2, 1000, std::numeric_limits<uint64_t>::max()});
  };
  BinaryWriter w;
  encode(&w);
  const std::string bytes = w.data();

  ByteMatcher same(bytes);
  encode(&same);
  EXPECT_TRUE(same.matched());

  const std::string short_bytes = bytes.substr(0, bytes.size() - 1);
  ByteMatcher shorter(short_bytes);
  encode(&shorter);
  EXPECT_FALSE(shorter.matched());

  const std::string long_bytes = bytes + "x";
  ByteMatcher longer(long_bytes);
  encode(&longer);
  EXPECT_FALSE(longer.matched());

  for (size_t at : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string flipped = bytes;
    flipped[at] ^= 0x10;
    ByteMatcher other(flipped);
    encode(&other);
    EXPECT_FALSE(other.matched()) << "byte " << at;
  }
}

// --- delta-encoded u64 vectors --------------------------------------------

TEST(DeltaU64Test, RoundTripSortedValues) {
  std::vector<uint64_t> values = {0, 1, 1, 100, 1000000,
                                  std::numeric_limits<uint64_t>::max()};
  BinaryWriter w;
  PutDeltaU64s(&w, values);
  BinaryReader r(w.data());
  EXPECT_EQ(GetDeltaU64s(&r), values);
  EXPECT_TRUE(r.AtEnd());
}

TEST(DeltaU64Test, HostileCountRejectedBeforeAllocation) {
  BinaryWriter w;
  w.PutVarint(std::numeric_limits<uint64_t>::max());  // count
  BinaryReader r(w.data());
  EXPECT_TRUE(GetDeltaU64s(&r).empty());
  EXPECT_TRUE(r.failed());
}

// --- crc32 -----------------------------------------------------------------

TEST(Crc32Test, KnownVectorsAndSensitivity) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
  EXPECT_NE(Crc32("abc"), Crc32(std::string("abc\0", 4)));
}

// --- frame codec -----------------------------------------------------------

TEST(FrameCodecTest, RoundTripMultipleFrames) {
  std::string stream;
  AppendFrame(&stream, "alpha");
  AppendFrame(&stream, "");
  AppendFrame(&stream, std::string(100000, 'z'));

  FrameDecoder decoder(kDefaultMaxFrameBytes);
  decoder.Feed(stream.data(), stream.size());
  std::string payload;
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, "alpha");
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, std::string(100000, 'z'));
  EXPECT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kNeedMore);
}

TEST(FrameCodecTest, ByteByByteFeed) {
  std::string stream;
  AppendFrame(&stream, "drip-fed payload");
  FrameDecoder decoder(kDefaultMaxFrameBytes);
  std::string payload;
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    decoder.Feed(&stream[i], 1);
    EXPECT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kNeedMore);
  }
  decoder.Feed(&stream[stream.size() - 1], 1);
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload, "drip-fed payload");
}

TEST(FrameCodecTest, CrcFlipIsTerminal) {
  std::string stream;
  AppendFrame(&stream, "payload");
  stream[stream.size() - 1] ^= 0x01;  // corrupt the payload
  AppendFrame(&stream, "after");      // a good frame behind the bad one

  FrameDecoder decoder(kDefaultMaxFrameBytes);
  decoder.Feed(stream.data(), stream.size());
  std::string payload;
  EXPECT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code(), StatusCode::kCorruption);
  // Terminal: the decoder must not resynchronize past corruption.
  EXPECT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kError);
  EXPECT_TRUE(decoder.failed());
}

TEST(FrameCodecTest, OversizedFrameRejectedFromHeaderAlone) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  std::string stream;
  AppendFrame(&stream, std::string(17, 'x'));
  // Feed only the 8-byte header: the length check must fire before any
  // payload arrives (a hostile peer cannot make us buffer the body).
  decoder.Feed(stream.data(), kFrameHeaderBytes);
  std::string payload;
  EXPECT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, MaxSizedFrameAccepted) {
  FrameDecoder decoder(/*max_frame_bytes=*/32);
  std::string stream;
  AppendFrame(&stream, std::string(32, 'y'));
  decoder.Feed(stream.data(), stream.size());
  std::string payload;
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  EXPECT_EQ(payload.size(), 32u);
}

}  // namespace
}  // namespace cqms
