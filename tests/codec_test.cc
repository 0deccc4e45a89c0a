// ColumnCodec unit tests: bit-exact round trips through both codecs over
// adversarial value shapes (empty, constant, block boundaries, full 32-bit
// width, signed bit patterns), PickEncoding choosing by measured size, and
// Validate rejecting structurally corrupt payloads before any decode
// touches them.

#include "storage/codec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace lpath {
namespace {

std::vector<uint32_t> RoundTrip(const std::vector<uint32_t>& values,
                                ColumnEncoding encoding) {
  const std::vector<uint8_t> bytes = ColumnCodec::Encode(values, encoding);
  EXPECT_EQ(bytes.size() % 8, 0u);
  EXPECT_EQ(bytes.size(), ColumnCodec::EncodedBytes(values, encoding));
  EncodedColumnView view;
  view.encoding = encoding;
  view.count = values.size();
  view.bytes = bytes;
  EXPECT_TRUE(ColumnCodec::Validate(view).ok())
      << ColumnCodec::Validate(view).ToString();
  std::vector<uint32_t> out(values.size(), 0xcdcdcdcd);
  ColumnCodec::Decode(view, out.data());
  return out;
}

TEST(CodecTest, BitPackRoundTripsAssortedShapes) {
  const std::vector<std::vector<uint32_t>> shapes = {
      {},                      // empty column
      {7},                     // single value -> width-0 constant block
      {5, 5, 5, 5, 5},         // constant run
      {0, 1, 2, 3, 4, 5, 6},   // dense ascending (FOR width 3)
      {1000, 999, 998, 0, 1},  // reference below the block
      {0, std::numeric_limits<uint32_t>::max()},  // full 32-bit width
      std::vector<uint32_t>(1024, 42),            // exactly one block
      std::vector<uint32_t>(1025, 42),            // one block + 1 tail value
  };
  for (const auto& values : shapes) {
    EXPECT_EQ(RoundTrip(values, ColumnEncoding::kBitPack), values)
        << "shape of size " << values.size();
  }
}

TEST(CodecTest, RleRoundTripsAssortedShapes) {
  const std::vector<std::vector<uint32_t>> shapes = {
      {},
      {9},
      {3, 3, 3, 3},
      {1, 2, 3},  // worst case: every value its own run
      {0, 0, 0, 7, 7, 0, 0, std::numeric_limits<uint32_t>::max()},
      std::vector<uint32_t>(3000, 0),  // run spanning several blocks
  };
  for (const auto& values : shapes) {
    EXPECT_EQ(RoundTrip(values, ColumnEncoding::kRle), values)
        << "shape of size " << values.size();
  }
}

TEST(CodecTest, SignedBitPatternsRoundTripBitExactly) {
  // The label columns are int32; the codec must preserve the raw patterns,
  // including negatives reinterpreted as large uint32 values.
  std::vector<int32_t> signed_values = {-1, 0, 1, -2006,
                                        std::numeric_limits<int32_t>::min(),
                                        std::numeric_limits<int32_t>::max()};
  std::vector<uint32_t> values(signed_values.size());
  std::memcpy(values.data(), signed_values.data(), values.size() * 4);
  for (const ColumnEncoding encoding :
       {ColumnEncoding::kBitPack, ColumnEncoding::kRle}) {
    EXPECT_EQ(RoundTrip(values, encoding), values);
  }
}

TEST(CodecTest, RandomColumnsRoundTripUnderBothCodecs) {
  Rng rng(4200);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = rng.Below(5000);
    // Mix shapes: mostly-ascending, small-alphabet, and wild values, so
    // both codecs see favourable and hostile inputs.
    std::vector<uint32_t> values(n);
    uint32_t acc = static_cast<uint32_t>(rng.Below(1000));
    for (size_t i = 0; i < n; ++i) {
      switch (trial % 3) {
        case 0: acc += static_cast<uint32_t>(rng.Below(5)); values[i] = acc;
                break;
        case 1: values[i] = static_cast<uint32_t>(rng.Below(4)); break;
        default: values[i] = static_cast<uint32_t>(rng.Next()); break;
      }
    }
    for (const ColumnEncoding encoding :
         {ColumnEncoding::kBitPack, ColumnEncoding::kRle}) {
      ASSERT_EQ(RoundTrip(values, encoding), values)
          << "trial " << trial << " under " << ColumnEncodingName(encoding);
    }
  }
}

TEST(CodecTest, PickEncodingChoosesByMeasuredSize) {
  // A constant column: RLE is one run, strictly smallest.
  EXPECT_EQ(ColumnCodec::PickEncoding(std::vector<uint32_t>(5000, 3)),
            ColumnEncoding::kRle);
  // Dense ascending: bit packing wins (few bits/value), RLE degenerates.
  std::vector<uint32_t> ascending(5000);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint32_t>(i);
  }
  EXPECT_EQ(ColumnCodec::PickEncoding(ascending), ColumnEncoding::kBitPack);
  // Random full-width values: nothing beats the verbatim array.
  Rng rng(9);
  std::vector<uint32_t> wild(5000);
  for (uint32_t& v : wild) v = static_cast<uint32_t>(rng.Next());
  EXPECT_EQ(ColumnCodec::PickEncoding(wild), ColumnEncoding::kRaw);
  // Tiny columns: the per-block header alone outweighs the raw bytes.
  EXPECT_EQ(ColumnCodec::PickEncoding(std::vector<uint32_t>{1, 2}),
            ColumnEncoding::kRaw);
}

// --- Validate: structural rejection of hostile payloads ---------------------

EncodedColumnView ViewOf(ColumnEncoding encoding, uint64_t count,
                         const std::vector<uint8_t>& bytes) {
  EncodedColumnView view;
  view.encoding = encoding;
  view.count = count;
  view.bytes = bytes;
  return view;
}

TEST(CodecTest, ValidateRejectsTruncatedPayloads) {
  std::vector<uint32_t> values(2500);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<uint32_t>(i % 19);
  }
  for (const ColumnEncoding encoding :
       {ColumnEncoding::kBitPack, ColumnEncoding::kRle}) {
    const std::vector<uint8_t> bytes = ColumnCodec::Encode(values, encoding);
    for (const size_t keep : {size_t{0}, size_t{8}, bytes.size() - 8}) {
      const std::vector<uint8_t> cut(bytes.begin(),
                                     bytes.begin() + static_cast<long>(keep));
      EXPECT_FALSE(
          ColumnCodec::Validate(ViewOf(encoding, values.size(), cut)).ok())
          << ColumnEncodingName(encoding) << " kept " << keep;
    }
    // Trailing garbage is also a size mismatch, not silently ignored.
    std::vector<uint8_t> padded = bytes;
    padded.resize(padded.size() + 8, 0);
    EXPECT_FALSE(
        ColumnCodec::Validate(ViewOf(encoding, values.size(), padded)).ok());
  }
}

TEST(CodecTest, ValidateRejectsCorruptBitPackDescriptors) {
  std::vector<uint32_t> values(2048, 5);
  std::vector<uint8_t> bytes =
      ColumnCodec::Encode(values, ColumnEncoding::kBitPack);
  // Layout: u64 block_count, then BlockDesc{u32 reference, u32 width,
  // u64 word_offset} per block. Corrupt the first block's width to 33.
  std::vector<uint8_t> wide = bytes;
  const uint32_t bad_width = 33;
  std::memcpy(wide.data() + 8 + 4, &bad_width, 4);
  EXPECT_FALSE(
      ColumnCodec::Validate(ViewOf(ColumnEncoding::kBitPack, 2048, wide))
          .ok());
  // Blow up the block count so the descriptor table runs past the payload.
  std::vector<uint8_t> many = bytes;
  const uint64_t bad_count = 1u << 20;
  std::memcpy(many.data(), &bad_count, 8);
  EXPECT_FALSE(
      ColumnCodec::Validate(ViewOf(ColumnEncoding::kBitPack, 2048, many))
          .ok());
}

TEST(CodecTest, ValidateRejectsCorruptRleRuns) {
  std::vector<uint32_t> values(1000, 7);
  values[500] = 9;
  std::vector<uint8_t> bytes = ColumnCodec::Encode(values, ColumnEncoding::kRle);
  // Layout: u64 run_count, then Run{u32 end, u32 value} pairs. Make the
  // first run end at 0 (runs must strictly increase).
  std::vector<uint8_t> non_increasing = bytes;
  const uint32_t zero = 0;
  std::memcpy(non_increasing.data() + 8, &zero, 4);
  EXPECT_FALSE(ColumnCodec::Validate(
                   ViewOf(ColumnEncoding::kRle, 1000, non_increasing))
                   .ok());
  // Make the last run end short of the column count.
  std::vector<uint8_t> short_last = bytes;
  const uint32_t short_end = 999;
  std::memcpy(short_last.data() + bytes.size() - 8, &short_end, 4);
  EXPECT_FALSE(
      ColumnCodec::Validate(ViewOf(ColumnEncoding::kRle, 1000, short_last))
          .ok());
}

}  // namespace
}  // namespace lpath
