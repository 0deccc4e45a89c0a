// Lightweight column compression for the relation's persistent images, in
// the style of Abadi-style column codecs: cheap to decode (a handful of
// shifts and adds per value), block-oriented, and picked per column by
// measured encoded size rather than by type. Images decode encoded columns
// whole, once, at open.
//
//   kRaw     — the column's verbatim 32-bit words (incompressible columns).
//              Not represented as encoded bytes; a raw section is served
//              straight out of the file mapping.
//   kBitPack — frame-of-reference + bit packing per 1024-value block: each
//              block stores its minimum and the bit width of (value - min),
//              then the packed residuals. Dense ascending columns (left,
//              right, id, pid, depth — the interval labels) pack to a few
//              bits per value. Decode is branch-free.
//   kRle     — run-length over the 32-bit words as (exclusive end, value)
//              pairs. The name column is a handful of runs by construction
//              (the relation is clustered by name); the value column is
//              kNoSymbol across every element row.
//
// All codecs are value-preserving over the raw 32-bit patterns (signed
// columns round-trip bit-exactly through unsigned arithmetic), and
// Validate() bounds-checks an untrusted encoded payload before any decode
// touches it — the corruption battery relies on that.

#ifndef LPATHDB_STORAGE_CODEC_H_
#define LPATHDB_STORAGE_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace lpath {

/// Per-column (per image section) encoding tag; serialized in images.
enum class ColumnEncoding : uint32_t {
  kRaw = 0,
  kBitPack = 1,
  kRle = 2,
};

const char* ColumnEncodingName(ColumnEncoding encoding);

/// Values per bit-packed block: each block carries its own minimum and bit
/// width, so a range decode starts at any block boundary.
inline constexpr uint64_t kCodecBlockValues = 1024;

/// A view of one encoded column — typically straight into a read-only
/// image mapping. `bytes` is empty (and the view inert) for kRaw columns,
/// which are served as verbatim arrays instead.
struct EncodedColumnView {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  uint64_t count = 0;              ///< logical number of 32-bit values
  std::span<const uint8_t> bytes;  ///< encoded payload (8-byte aligned)
};

/// Stateless encoder/decoder for 32-bit columns. All entry points treat
/// values as raw uint32 bit patterns; int32 columns reinterpret in and out.
class ColumnCodec {
 public:
  /// Encodes `values` under `encoding` (must not be kRaw). The returned
  /// buffer's layout is what EncodedColumnView::bytes expects and is a
  /// multiple of 8 bytes.
  static std::vector<uint8_t> Encode(std::span<const uint32_t> values,
                                     ColumnEncoding encoding);

  /// Encoded size in bytes of `values` under `encoding` without
  /// materializing the buffer (kRaw reports the verbatim array size).
  static uint64_t EncodedBytes(std::span<const uint32_t> values,
                               ColumnEncoding encoding);

  /// The cheapest encoding for `values` by encoded size; kRaw unless a
  /// codec is strictly smaller than the verbatim array.
  static ColumnEncoding PickEncoding(std::span<const uint32_t> values);

  /// Structural validation of an untrusted payload: block descriptors in
  /// bounds, widths <= 32, run ends strictly increasing and summing to
  /// `count`, total size exact. After an OK here, Decode() below is
  /// memory-safe over the view.
  static Status Validate(const EncodedColumnView& column);

  /// Decodes the whole column; `out` must hold `column.count` values.
  static void Decode(const EncodedColumnView& column, uint32_t* out);
};

}  // namespace lpath

#endif  // LPATHDB_STORAGE_CODEC_H_
