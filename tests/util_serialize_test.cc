#include "util/serialize.h"

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

namespace deepaqp::util {
namespace {

TEST(SerializeTest, RoundTripScalars) {
  ByteWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(1ull << 60);
  w.WriteI32(-12345);
  w.WriteI64(-(1ll << 50));
  w.WriteF32(3.25f);
  w.WriteF64(-2.5e-8);

  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(*r.ReadU64(), 1ull << 60);
  EXPECT_EQ(*r.ReadI32(), -12345);
  EXPECT_EQ(*r.ReadI64(), -(1ll << 50));
  EXPECT_EQ(*r.ReadF32(), 3.25f);
  EXPECT_EQ(*r.ReadF64(), -2.5e-8);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, RoundTripStringAndVectors) {
  ByteWriter w;
  w.WriteString("hello world");
  w.WriteF32Vector({1.0f, -2.0f, 0.5f});
  w.WriteF64Vector({});
  w.WriteI32Vector({-1, 0, 1, 2});

  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "hello world");
  auto f32 = *r.ReadF32Vector();
  ASSERT_EQ(f32.size(), 3u);
  EXPECT_EQ(f32[1], -2.0f);
  EXPECT_TRUE(r.ReadF64Vector()->empty());
  auto i32 = *r.ReadI32Vector();
  ASSERT_EQ(i32.size(), 4u);
  EXPECT_EQ(i32[0], -1);
  EXPECT_TRUE(r.AtEnd());
}

// Empty payloads hand memcpy a null data() pointer unless the reader skips
// zero-length copies; under -fsanitize=undefined that is a hard abort.
TEST(SerializeTest, RoundTripEmptyStringAndVectors) {
  ByteWriter w;
  w.WriteString("");
  w.WriteF32Vector({});
  w.WriteF64Vector({});
  w.WriteI32Vector({});

  ByteReader r(w.bytes());
  auto str = r.ReadString();
  ASSERT_TRUE(str.ok());
  EXPECT_TRUE(str->empty());
  auto f32 = r.ReadF32Vector();
  ASSERT_TRUE(f32.ok());
  EXPECT_TRUE(f32->empty());
  auto f64 = r.ReadF64Vector();
  ASSERT_TRUE(f64.ok());
  EXPECT_TRUE(f64->empty());
  auto i32 = r.ReadI32Vector();
  ASSERT_TRUE(i32.ok());
  EXPECT_TRUE(i32->empty());
  auto raw = r.ReadBytes(0);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->empty());
  EXPECT_TRUE(r.AtEnd());

  // A reader over an empty buffer has a null base pointer as well.
  const std::vector<uint8_t> nothing;
  ByteReader empty(nothing);
  EXPECT_TRUE(empty.ReadBytes(0).ok());
  EXPECT_FALSE(empty.ReadU8().ok());
}

TEST(SerializeTest, TruncationIsReported) {
  ByteWriter w;
  w.WriteU32(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.ReadU32().ok());
  auto bad = r.ReadU64();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, TruncatedVectorIsReported) {
  ByteWriter w;
  w.WriteU64(1000);  // Claims 1000 floats but provides none.
  ByteReader r(w.bytes());
  auto bad = r.ReadF32Vector();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, FileRoundTrip) {
  ByteWriter w;
  w.WriteString("persisted");
  w.WriteF64(42.0);
  const std::string path = testing::TempDir() + "/deepaqp_serialize_test.bin";
  ASSERT_TRUE(WriteFile(path, w.bytes()).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  ByteReader r(*bytes);
  EXPECT_EQ(*r.ReadString(), "persisted");
  EXPECT_EQ(*r.ReadF64(), 42.0);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIOError) {
  auto bytes = ReadFile("/nonexistent/deepaqp/file.bin");
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace deepaqp::util
