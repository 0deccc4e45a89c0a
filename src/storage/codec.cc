#include "storage/codec.h"

#include <algorithm>
#include <cstring>

namespace lpath {

namespace {

// --- Bit-pack layout --------------------------------------------------------
// u64 block_count
// BlockDesc[block_count]   {reference, width, word_offset}
// u64 words[...]           block b owns 16*width words at word_offset
//
// A full block is kCodecBlockValues values; 1024 * width bits is an exact
// multiple of 64, so every block occupies a whole number of words and a
// packed value never straddles past its block's payload. The tail block is
// padded with the block reference up to the full 1024 values.

struct BlockDesc {
  uint32_t reference = 0;
  uint32_t width = 0;         ///< bits per residual, 0..32
  uint64_t word_offset = 0;   ///< into the words array
};
static_assert(sizeof(BlockDesc) == 16);

constexpr uint64_t kWordsPerWidthUnit = kCodecBlockValues / 64;  // 16

uint64_t BitPackBlockCount(uint64_t count) {
  return (count + kCodecBlockValues - 1) / kCodecBlockValues;
}

/// Bits needed for residuals up to `max_residual` (0 -> width 0).
uint32_t WidthFor(uint32_t max_residual) {
  uint32_t width = 0;
  while (max_residual != 0) {
    ++width;
    max_residual >>= 1;
  }
  return width;
}

// --- RLE layout -------------------------------------------------------------
// u64 run_count
// Run[run_count]           {end, value}; `end` is the exclusive cumulative
//                          value count, strictly increasing, last == count.

struct Run {
  uint32_t end = 0;
  uint32_t value = 0;
};
static_assert(sizeof(Run) == 8);

uint64_t RleRunCount(std::span<const uint32_t> values) {
  uint64_t runs = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == 0 || values[i] != values[i - 1]) ++runs;
  }
  return runs;
}

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& pod) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &pod, sizeof(T));
}

/// Unpacks the first `n` values of one block, branch-free per value: the
/// straddling high word is masked in unconditionally (the payload geometry
/// guarantees words[word + 1] exists whenever the value actually
/// straddles; a non-straddling value multiplies it by zero).
void UnpackBlock(const BlockDesc& desc, const uint64_t* words, uint64_t n,
                 uint32_t* out) {
  if (desc.width == 0) {
    std::fill_n(out, n, desc.reference);
    return;
  }
  const uint64_t width = desc.width;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t bit = i * width;
    const uint64_t word = bit >> 6;
    const uint64_t shift = bit & 63;
    uint64_t v = words[word] >> shift;
    const uint64_t straddles = (shift + width > 64) ? 1 : 0;
    v |= (words[word + straddles] * straddles) << ((64 - shift) & 63);
    *out++ = desc.reference + static_cast<uint32_t>(v & mask);
  }
}

}  // namespace

const char* ColumnEncodingName(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kRaw: return "raw";
    case ColumnEncoding::kBitPack: return "bitpack";
    case ColumnEncoding::kRle: return "rle";
  }
  return "?";
}

uint64_t ColumnCodec::EncodedBytes(std::span<const uint32_t> values,
                                   ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kRaw:
      return values.size() * sizeof(uint32_t);
    case ColumnEncoding::kBitPack: {
      const uint64_t blocks = BitPackBlockCount(values.size());
      uint64_t words = 0;
      for (uint64_t b = 0; b < blocks; ++b) {
        const uint64_t lo = b * kCodecBlockValues;
        const uint64_t hi = std::min<uint64_t>(lo + kCodecBlockValues,
                                               values.size());
        uint32_t min = values[lo], max = values[lo];
        for (uint64_t i = lo + 1; i < hi; ++i) {
          min = std::min(min, values[i]);
          max = std::max(max, values[i]);
        }
        words += kWordsPerWidthUnit * WidthFor(max - min);
      }
      return sizeof(uint64_t) + blocks * sizeof(BlockDesc) +
             words * sizeof(uint64_t);
    }
    case ColumnEncoding::kRle:
      return sizeof(uint64_t) + RleRunCount(values) * sizeof(Run);
  }
  return values.size() * sizeof(uint32_t);
}

ColumnEncoding ColumnCodec::PickEncoding(std::span<const uint32_t> values) {
  if (values.empty()) return ColumnEncoding::kRaw;
  const uint64_t raw = EncodedBytes(values, ColumnEncoding::kRaw);
  const uint64_t packed = EncodedBytes(values, ColumnEncoding::kBitPack);
  const uint64_t rle = EncodedBytes(values, ColumnEncoding::kRle);
  ColumnEncoding best = ColumnEncoding::kRaw;
  uint64_t best_bytes = raw;
  if (packed < best_bytes) {
    best = ColumnEncoding::kBitPack;
    best_bytes = packed;
  }
  if (rle < best_bytes) best = ColumnEncoding::kRle;
  return best;
}

std::vector<uint8_t> ColumnCodec::Encode(std::span<const uint32_t> values,
                                         ColumnEncoding encoding) {
  std::vector<uint8_t> out;
  if (encoding == ColumnEncoding::kRaw) {
    out.resize(values.size() * sizeof(uint32_t));
    if (!values.empty()) {
      std::memcpy(out.data(), values.data(), out.size());
    }
    return out;
  }
  if (encoding == ColumnEncoding::kRle) {
    const uint64_t runs = RleRunCount(values);
    out.reserve(sizeof(uint64_t) + runs * sizeof(Run));
    AppendPod(&out, runs);
    for (size_t i = 0; i < values.size();) {
      size_t e = i + 1;
      while (e < values.size() && values[e] == values[i]) ++e;
      AppendPod(&out, Run{static_cast<uint32_t>(e), values[i]});
      i = e;
    }
    return out;
  }
  // kBitPack.
  const uint64_t blocks = BitPackBlockCount(values.size());
  AppendPod(&out, blocks);
  std::vector<BlockDesc> descs(blocks);
  std::vector<uint64_t> words;
  for (uint64_t b = 0; b < blocks; ++b) {
    const uint64_t lo = b * kCodecBlockValues;
    const uint64_t hi =
        std::min<uint64_t>(lo + kCodecBlockValues, values.size());
    uint32_t min = values[lo], max = values[lo];
    for (uint64_t i = lo + 1; i < hi; ++i) {
      min = std::min(min, values[i]);
      max = std::max(max, values[i]);
    }
    BlockDesc& desc = descs[b];
    desc.reference = min;
    desc.width = WidthFor(max - min);
    desc.word_offset = words.size();
    if (desc.width == 0) continue;
    const uint64_t block_words = kWordsPerWidthUnit * desc.width;
    words.resize(words.size() + block_words, 0);
    uint64_t* base = words.data() + desc.word_offset;
    for (uint64_t i = lo; i < hi; ++i) {
      // The tail block's missing values stay `reference` (residual 0).
      const uint64_t residual = values[i] - min;
      const uint64_t bit = (i - lo) * desc.width;
      base[bit >> 6] |= residual << (bit & 63);
      if ((bit & 63) + desc.width > 64) {
        base[(bit >> 6) + 1] |= residual >> (64 - (bit & 63));
      }
    }
  }
  for (const BlockDesc& desc : descs) AppendPod(&out, desc);
  const size_t at = out.size();
  out.resize(at + words.size() * sizeof(uint64_t));
  if (!words.empty()) {
    std::memcpy(out.data() + at, words.data(),
                words.size() * sizeof(uint64_t));
  }
  return out;
}

Status ColumnCodec::Validate(const EncodedColumnView& column) {
  const auto bad = [](const char* what) {
    return Status::Corruption(std::string("encoded column: ") + what);
  };
  if (column.encoding == ColumnEncoding::kRaw) {
    return Status::OK();  // raw columns have no encoded payload
  }
  if (reinterpret_cast<uintptr_t>(column.bytes.data()) % 8 != 0) {
    return bad("payload is not 8-byte aligned");
  }
  if (column.encoding == ColumnEncoding::kRle) {
    if (column.bytes.size() < sizeof(uint64_t)) return bad("short RLE header");
    uint64_t runs = 0;
    std::memcpy(&runs, column.bytes.data(), sizeof(runs));
    if (column.bytes.size() != sizeof(uint64_t) + runs * sizeof(Run)) {
      return bad("RLE payload size mismatch");
    }
    if (runs == 0) {
      return column.count == 0 ? Status::OK() : bad("RLE with zero runs");
    }
    const Run* run =
        reinterpret_cast<const Run*>(column.bytes.data() + sizeof(uint64_t));
    uint32_t prev_end = 0;
    for (uint64_t i = 0; i < runs; ++i) {
      if (run[i].end <= prev_end) return bad("RLE runs are not increasing");
      prev_end = run[i].end;
    }
    if (prev_end != column.count) return bad("RLE runs do not cover the column");
    return Status::OK();
  }
  if (column.encoding != ColumnEncoding::kBitPack) {
    return bad("unknown encoding tag");
  }
  if (column.bytes.size() < sizeof(uint64_t)) {
    return bad("short bit-pack header");
  }
  uint64_t blocks = 0;
  std::memcpy(&blocks, column.bytes.data(), sizeof(blocks));
  if (blocks != BitPackBlockCount(column.count)) {
    return bad("bit-pack block count mismatch");
  }
  const uint64_t desc_bytes = blocks * sizeof(BlockDesc);
  if (column.bytes.size() < sizeof(uint64_t) + desc_bytes) {
    return bad("bit-pack descriptors truncated");
  }
  const BlockDesc* descs = reinterpret_cast<const BlockDesc*>(
      column.bytes.data() + sizeof(uint64_t));
  uint64_t words = 0;
  for (uint64_t b = 0; b < blocks; ++b) {
    if (descs[b].width > 32) return bad("bit width exceeds 32");
    if (descs[b].word_offset != words) {
      return bad("bit-pack payload offsets are not contiguous");
    }
    words += kWordsPerWidthUnit * descs[b].width;
  }
  if (column.bytes.size() !=
      sizeof(uint64_t) + desc_bytes + words * sizeof(uint64_t)) {
    return bad("bit-pack payload size mismatch");
  }
  return Status::OK();
}

void ColumnCodec::Decode(const EncodedColumnView& column, uint32_t* out) {
  if (column.count == 0) return;
  if (column.encoding == ColumnEncoding::kRle) {
    const Run* runs =
        reinterpret_cast<const Run*>(column.bytes.data() + sizeof(uint64_t));
    uint64_t run_count = 0;
    std::memcpy(&run_count, column.bytes.data(), sizeof(run_count));
    uint64_t at = 0;
    for (uint64_t r = 0; r < run_count; ++r) {
      out = std::fill_n(out, runs[r].end - at, runs[r].value);
      at = runs[r].end;
    }
    return;
  }
  // kBitPack: every block is full but the last.
  const BlockDesc* descs = reinterpret_cast<const BlockDesc*>(
      column.bytes.data() + sizeof(uint64_t));
  uint64_t blocks = 0;
  std::memcpy(&blocks, column.bytes.data(), sizeof(blocks));
  const uint64_t* words = reinterpret_cast<const uint64_t*>(
      column.bytes.data() + sizeof(uint64_t) + blocks * sizeof(BlockDesc));
  for (uint64_t b = 0; b < blocks; ++b) {
    const uint64_t n = std::min<uint64_t>(
        kCodecBlockValues, column.count - b * kCodecBlockValues);
    UnpackBlock(descs[b], words + descs[b].word_offset, n, out);
    out += n;
  }
}

}  // namespace lpath
