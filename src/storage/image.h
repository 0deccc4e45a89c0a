// Persistent relation images: a versioned, checksummed single-file format
// holding a NodeRelation's sorted column arrays, every secondary index,
// the per-tree row prefix sums, and the corpus's string interner table.
//
// The point (and the paper's pitch) is that interval-labeled trees live in
// the database rather than being re-derived per tool run: Save() is run
// once, offline (lpath_pack, or :save in the shell), and Open() then maps
// the file read-only and serves every section straight out of the mapping
// — no labeling, no sorting, no decoding, O(file size) instead of
// O(label + sort). The mapping is owned by the opened relation (and
// through it by its CorpusSnapshot), so the existing hot-swap/Reload
// semantics and in-flight readers work unchanged: the pages stay mapped
// until the last reader's snapshot reference drops.
//
// Layout (all integers native-endian; a header marker rejects foreign
// endianness — images are a deployment format, not an interchange format):
//
//   ImageHeader            magic, version, endian marker, label scheme,
//                          tree count, 64-bit WAL stamp, row/element/
//                          symbol counts, file size, header + payload
//                          FNV-1a64 checksums
//   section table          per section: {kind, elem_size, offset, count};
//                          a section is count * elem_size bytes
//   sections...            verbatim arrays, each 8-byte aligned: the
//                          relation's stored arrays in StoredArrays order
//                          (storage/relation.h) — tid/left/right/depth/id/
//                          pid/name/value/kind, run directory, by-right/
//                          by-pid permutations, value index + offsets,
//                          per-tree row prefix sums, tree base / element
//                          row / attribute CSR — then the interner offsets
//                          + concatenated string blob
//
// Only format v3 is read or written; any other version, v1 and v2
// included, fails Open with NotSupported.
//
// Corruption model: the payload checksum covers every byte after the
// header (section table included); the header carries its own checksum.
// Open() additionally bounds-checks every section against the file size
// and validates the cross-section count invariants and index monotonicity,
// so a truncated, bit-flipped or wrong-version file yields a clean Status
// error — never a crash — and a checksum-valid file cannot index the
// mapping out of bounds. Opening with ImageVerify::kHeaderOnly skips only
// the whole-payload checksum scan (the part that is O(file size) in cache
// misses); every structural check still runs.

#ifndef LPATHDB_STORAGE_IMAGE_H_
#define LPATHDB_STORAGE_IMAGE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "storage/relation.h"

namespace lpath {

/// Leading bytes of every relation image file.
inline constexpr char kImageMagic[8] = {'L', 'P', 'D', 'B',
                                        'I', 'M', 'G', '\0'};

/// Format generation; bumped on layout changes. Save() writes it and Open()
/// reads only it.
inline constexpr uint32_t kImageFormatVersion = 3;

/// How much of an image Open() verifies before serving from it.
enum class ImageVerify {
  /// Checksum the whole payload (plus all structural checks). The default:
  /// corruption anywhere in the file is caught at open.
  kFull,
  /// Skip only the payload checksum scan; header checksum, section bounds,
  /// count invariants and index sanity still run. Opt-in for
  /// latency-sensitive cold opens of large trusted images, where the
  /// O(file size) checksum read would dominate.
  kHeaderOnly,
};

struct ImageOpenOptions {
  ImageVerify verify = ImageVerify::kFull;
};

struct ImageSaveOptions {
  /// WAL checkpoint stamp: the LSN of the last WAL record this image's
  /// relation already covers (see storage/wal.h and db::Database's
  /// durable-ingest path), stored as a 64-bit header field. Images saved
  /// without a WAL read back as 0. Replay after open skips records at or
  /// below it, which is what makes compact-then-crash-before-truncate
  /// exactly-once instead of at-least-once.
  uint64_t wal_lsn = 0;
};

/// Reads `path`'s first bytes and reports whether they carry the relation
/// image magic — how Database::Open routes image vs. bracketed files.
/// False (not an error) for unreadable or short files.
bool LooksLikeImageFile(const std::string& path);

/// Serialization of NodeRelation to and from persistent images. Stateless;
/// a friend of NodeRelation so images bind the private column spans.
class ImageIO {
 public:
  /// Writes `relation` (columns, indexes, prefix sums, interner) to `path`
  /// as one image. Writes to a unique sibling temp file and renames, so a
  /// concurrent reader never sees a half-written image. Every section is
  /// written verbatim.
  static Status Save(const NodeRelation& relation, const std::string& path,
                     ImageSaveOptions options = {});

  /// Opens an image read-only via mmap. Validates the header, checksums
  /// and section bounds, rebuilds the interner into a fresh (tree-less)
  /// corpus, and binds every section of the relation straight into the
  /// mapping. The only owned state is the per-tree tag directory, which
  /// two linear passes derive from the validated run directory and tid
  /// column. Performs no labeling, no sorting and no decoding: cost is
  /// O(file size).
  ///
  /// The returned relation's corpus carries the dictionary but no trees —
  /// everything the SQL executor needs, but not the bracketed text
  /// (engines that walk trees, e.g. the navigational baseline, need a
  /// corpus-built snapshot instead).
  ///
  /// When `wal_lsn` is non-null, a successful Open stores the image's
  /// checkpointed WAL LSN there (0 for images saved without one), read
  /// from the same validated header as the relation.
  static Result<NodeRelation> Open(const std::string& path,
                                   ImageOpenOptions options = {},
                                   uint64_t* wal_lsn = nullptr);
};

}  // namespace lpath

#endif  // LPATHDB_STORAGE_IMAGE_H_
