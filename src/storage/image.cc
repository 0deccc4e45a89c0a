#include "storage/image.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "storage/io_hooks.h"
#include "tree/corpus.h"

namespace lpath {

namespace {

// Columns are written as raw arrays; the layout must be exactly what the
// accessors read back out of the mapping.
static_assert(std::is_trivially_copyable_v<RowRange> && sizeof(RowRange) == 8,
              "RowRange is serialized as two packed uint32 words");
static_assert(sizeof(Symbol) == 4 && sizeof(Row) == 4,
              "symbol/row ids are serialized as uint32 words");

/// Detects a foreign-endian (or otherwise bit-incompatible) writer.
constexpr uint32_t kEndianMarker = 0x01020304u;

/// Section payload alignment: every offset is a multiple of 8, so uint64
/// sections read directly from the page-aligned mapping.
constexpr uint64_t kSectionAlign = 8;

/// Sections, in order: the relation's stored arrays (StoredArrays in
/// storage/relation.h, in its list order), then the interner's offsets and
/// blob. A section's kind is its position + 1 and its element size is the
/// sizeof of its element type; Save, Open and kSectionElemSize all walk
/// ForEachSection, so the order is defined once.
constexpr uint32_t kSectionCount = 21;
constexpr uint32_t kInternerOffsetsSection = kSectionCount - 2;
constexpr uint32_t kInternerBlobSection = kSectionCount - 1;

/// Calls f(array) for every section's array, in section order.
template <typename Arrays, typename Offsets, typename Blob, typename F>
constexpr void ForEachSection(Arrays& arrays, Offsets& offsets, Blob& blob,
                              F&& f) {
  StoredArrays<ConstSpan>::ForEach(f, arrays);
  f(offsets);
  f(blob);
}

/// The element size of every section, which Open checks the table
/// against. One spare slot keeps a longer list a static_assert failure
/// below rather than an out-of-bounds write.
struct SectionElemSizes {
  uint32_t size[kSectionCount + 1] = {};
  uint32_t count = 0;
};
constexpr SectionElemSizes kSectionElemSize = [] {
  SectionElemSizes sizes;
  StoredArrays<ConstSpan> arrays;
  std::span<const uint64_t> offsets;
  std::span<const char> blob;
  ForEachSection(arrays, offsets, blob, [&sizes](const auto& array) {
    sizes.size[sizes.count++] = static_cast<uint32_t>(sizeof(array[0]));
  });
  return sizes;
}();
static_assert(kSectionElemSize.count == kSectionCount,
              "kSectionCount must match the stored arrays + 2 interner "
              "sections");

/// Packed without padding, so the header checksum is a function of the
/// field values alone. The version sits right after the magic in every
/// format generation, so Open can refuse an older one before parsing more.
struct ImageHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t endian = 0;
  uint32_t scheme = 0;
  uint32_t section_count = 0;
  uint64_t tree_count = 0;
  /// WAL checkpoint stamp, handed back by Open. See ImageSaveOptions.
  uint64_t wal_lsn = 0;
  uint64_t row_count = 0;
  uint64_t element_count = 0;
  uint64_t symbol_count = 0;  ///< interner size, excluding reserved id 0
  uint64_t file_size = 0;
  uint64_t payload_checksum = 0;  ///< FNV-1a64 over [sizeof(header), file_size)
  uint64_t header_checksum = 0;   ///< FNV-1a64 over the header, this field = 0
};
static_assert(std::is_trivially_copyable_v<ImageHeader> &&
              sizeof(ImageHeader) == 88);

/// Section table entry: where a section lives; it spans count * elem_size
/// bytes from `offset`.
struct SectionEntry {
  uint32_t kind = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;  ///< absolute byte offset, kSectionAlign-aligned
  uint64_t count = 0;   ///< element count
  uint64_t bytes() const { return count * elem_size; }
};
static_assert(std::is_trivially_copyable_v<SectionEntry> &&
              sizeof(SectionEntry) == 24);

uint64_t AlignUp(uint64_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

/// RAII read-only mapping; owns the pages a mapped relation serves from.
/// Held alive through NodeRelation::backing_ (and so by the snapshot and
/// every in-flight query), which is what makes hot-swapping mapped
/// snapshots safe: munmap happens only after the last reader drops out.
class MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Map(const std::string& path) {
    // O_NONBLOCK: opening a FIFO must error out, not block waiting for a
    // writer; it has no effect on regular files, the only kind accepted.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0) {
      return Status::IOError("cannot open " + path + ": " +
                             std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("cannot stat " + path + ": " +
                             std::strerror(err));
    }
    if (!S_ISREG(st.st_mode)) {
      ::close(fd);
      return Status::InvalidArgument("not a regular file: " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return Status::Corruption("empty image file: " + path);
    }
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // The mapping keeps its own reference to the pages.
    if (base == MAP_FAILED) {
      return Status::IOError("cannot mmap " + path + ": " +
                             std::strerror(errno));
    }
    return std::make_shared<MappedFile>(base, size);
  }

  MappedFile(void* base, size_t size) : base_(base), size_(size) {}
  ~MappedFile() { ::munmap(base_, size_); }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const unsigned char* data() const {
    return static_cast<const unsigned char*>(base_);
  }
  size_t size() const { return size_; }

 private:
  void* base_;
  size_t size_;
};

/// Backing of a relation opened from an image: the mapping plus the
/// per-tree tag directory, derived at open (never stored).
struct MappedBacking {
  std::shared_ptr<MappedFile> file;
  std::vector<uint32_t> tag_dir_offsets;
  std::vector<NodeRelation::TagSlice> tag_dir;
};

/// Image writer over a raw descriptor that checksums everything after the
/// header as it goes (padding included, so the digest is a function of the
/// file bytes). All writes go through lpath::io, so the fault-injection
/// hooks see every byte Save persists.
class ImageWriter {
 public:
  explicit ImageWriter(int fd) : fd_(fd) {}

  Status WriteRaw(const void* data, size_t n) {
    return io::WriteFull(fd_, data, n);
  }

  Status WritePayload(const void* data, size_t n) {
    LPATH_RETURN_IF_ERROR(WriteRaw(data, n));
    digest_ = Fnv1a64(data, n, digest_);
    offset_ += n;
    return Status::OK();
  }

  Status PadToAlignment() {
    static const unsigned char kZeros[kSectionAlign] = {};
    const uint64_t padded = AlignUp(offset_);
    return WritePayload(kZeros, static_cast<size_t>(padded - offset_));
  }

  uint64_t offset() const { return offset_; }
  uint64_t digest() const { return digest_; }

 private:
  int fd_;
  uint64_t digest_ = kFnv1a64Offset;
  uint64_t offset_ = sizeof(ImageHeader);  ///< payload starts after header
};

uint64_t HeaderChecksum(ImageHeader header) {
  header.header_checksum = 0;
  return Fnv1a64(&header, sizeof(header));
}

}  // namespace

bool LooksLikeImageFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[sizeof(kImageMagic)] = {};
  const size_t got = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  return got == sizeof(magic) &&
         std::memcmp(magic, kImageMagic, sizeof(magic)) == 0;
}

Status ImageIO::Save(const NodeRelation& rel, const std::string& path,
                     ImageSaveOptions options) {
  const Interner& interner = rel.interner();
  const uint64_t symbol_count = interner.size();

  // Interner table: offsets (symbol_count + 1) into a concatenated blob,
  // symbols in id order so re-interning on open reproduces the ids.
  std::vector<uint64_t> interner_offsets;
  interner_offsets.reserve(symbol_count + 1);
  std::string blob;
  interner_offsets.push_back(0);
  for (Symbol s = 1; s <= symbol_count; ++s) {
    blob.append(interner.name(s));
    interner_offsets.push_back(blob.size());
  }

  // Lay the sections out after the header + table, each 8-byte aligned.
  SectionEntry table[kSectionCount];
  const void* payload[kSectionCount];
  uint32_t n = 0;
  uint64_t offset = sizeof(ImageHeader) + sizeof(table);
  ForEachSection(rel.arrays_, interner_offsets, blob, [&](const auto& array) {
    const auto elem_size = static_cast<uint32_t>(sizeof(array[0]));
    offset = AlignUp(offset);
    table[n] = SectionEntry{n + 1, elem_size, offset, array.size()};
    payload[n] = array.data();
    offset += table[n++].bytes();
  });
  const uint64_t file_size = offset;

  ImageHeader header;
  std::memcpy(header.magic, kImageMagic, sizeof(kImageMagic));
  header.version = kImageFormatVersion;
  header.endian = kEndianMarker;
  header.scheme = static_cast<uint32_t>(rel.scheme());
  header.section_count = kSectionCount;
  header.tree_count = static_cast<uint64_t>(rel.tree_count());
  header.wal_lsn = options.wal_lsn;
  header.row_count = rel.row_count();
  header.element_count = rel.element_count();
  header.symbol_count = symbol_count;
  header.file_size = file_size;

  // Write to a per-call-unique sibling temp file and rename into place, so
  // readers either see the previous image or the complete new one, and two
  // concurrent Saves to the same path never interleave in one temp file
  // (last rename wins with an intact image either way).
  static std::atomic<uint64_t> save_serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_serial.fetch_add(1));
  LPATH_ASSIGN_OR_RETURN(const int fd, io::OpenForWrite(tmp));
  // Any failure before the rename publishes leaves the target untouched;
  // close and remove the temp file on every such path. Cleanup is raw
  // (std::remove, not io::Unlink): Save is returning an error to a live
  // process, and re-entering the injection layer that just failed us would
  // turn "clean error" into "leaked temp file".
  const auto fail = [&](const Status& status) {
    ::close(fd);
    std::remove(tmp.c_str());
    return status;
  };
  if (io::CrashRequested("image:save:start")) {
    return fail(Status::IOError("injected crash before image write"));
  }
  ImageWriter writer(fd);
  Status st = writer.WriteRaw(&header, sizeof(header));  // placeholder pass
  if (st.ok()) st = writer.WritePayload(table, sizeof(table));
  for (uint32_t i = 0; st.ok() && i < kSectionCount; ++i) {
    st = writer.PadToAlignment();
    if (st.ok()) {
      st = writer.WritePayload(payload[i], table[i].bytes());
    }
  }
  // Seal: fill in the checksums and rewrite the header in place.
  if (st.ok()) {
    header.payload_checksum = writer.digest();
    header.header_checksum = HeaderChecksum(header);
    st = writer.offset() == file_size
             ? io::PWriteFull(fd, &header, sizeof(header), 0)
             : Status::IOError("short write to " + tmp);
  }
  // Durability before the rename publishes: without the fsync a crash
  // after Save returns could replace the previous good image with a
  // not-yet-written-back inode.
  if (st.ok()) {
    if (io::CrashRequested("image:save:before_sync")) {
      st = Status::IOError("injected crash before image fsync");
    } else {
      st = io::Fsync(fd, tmp);
    }
  }
  if (!st.ok()) return fail(st);
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot close " + tmp + ": " +
                           std::strerror(errno));
  }
  if (st = io::Rename(tmp, path); !st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  // Persist the rename itself (the directory entry): until the directory
  // is synced, a crash can roll the path back to the previous image — or
  // to nothing — after Save already returned success. A failure here is a
  // real durability loss and reports as one; the renamed file itself is in
  // place and intact, so nothing is removed.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  return io::FsyncDir(dir);
}

namespace {

Status CorruptionAt(const std::string& path, const char* what) {
  return Status::Corruption("invalid relation image " + path + ": " + what);
}

Status UnsupportedVersion(const std::string& path, uint32_t version) {
  return Status::NotSupported(
      "relation image " + path + " has format version " +
      std::to_string(version) + "; this build reads version " +
      std::to_string(kImageFormatVersion));
}

/// Best-effort posix_madvise over the file range [offset, offset + len),
/// widened to page boundaries. Hints are advisory: failures (and platforms
/// without posix_madvise) are silently ignored.
void AdviseRange(const MappedFile& file, uint64_t offset, uint64_t len,
                 int advice) {
#if defined(POSIX_MADV_NORMAL)
  if (len == 0 || offset >= file.size()) return;
  static const uint64_t page =
      static_cast<uint64_t>(std::max<long>(1, ::sysconf(_SC_PAGESIZE)));
  const uint64_t begin = (offset / page) * page;
  const uint64_t end = std::min<uint64_t>(offset + len, file.size());
  (void)::posix_madvise(
      const_cast<unsigned char*>(file.data()) + begin,
      static_cast<size_t>(end - begin), advice);
#else
  (void)file;
  (void)offset;
  (void)len;
  (void)advice;
#endif
}

#if defined(POSIX_MADV_NORMAL)
constexpr int kAdviseWillNeed = POSIX_MADV_WILLNEED;
constexpr int kAdviseRandom = POSIX_MADV_RANDOM;
#else
constexpr int kAdviseWillNeed = 0;
constexpr int kAdviseRandom = 0;
#endif

}  // namespace

Result<NodeRelation> ImageIO::Open(const std::string& path,
                                   ImageOpenOptions options,
                                   uint64_t* wal_lsn) {
  LPATH_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Map(path));

  // --- Header ---------------------------------------------------------------
  if (file->size() < sizeof(ImageHeader)) {
    return CorruptionAt(path, "file shorter than the image header");
  }
  ImageHeader header;
  std::memcpy(&header, file->data(), sizeof(header));
  if (std::memcmp(header.magic, kImageMagic, sizeof(kImageMagic)) != 0) {
    return CorruptionAt(path, "bad magic (not a relation image)");
  }
  if (header.version != kImageFormatVersion) {
    return UnsupportedVersion(path, header.version);
  }
  if (header.endian != kEndianMarker) {
    return Status::NotSupported("relation image " + path +
                                " was written on a foreign-endian machine");
  }
  if (header.header_checksum != HeaderChecksum(header)) {
    return CorruptionAt(path, "header checksum mismatch");
  }
  if (header.file_size != file->size()) {
    return CorruptionAt(path, "file size does not match the header");
  }
  if (header.section_count != kSectionCount) {
    return CorruptionAt(path, "unexpected section count");
  }
  if (header.scheme > static_cast<uint32_t>(LabelScheme::kXPath)) {
    return CorruptionAt(path, "unknown label scheme");
  }
  if (header.row_count > UINT32_MAX || header.element_count > UINT32_MAX ||
      header.symbol_count >= UINT32_MAX || header.tree_count > INT32_MAX) {
    return CorruptionAt(path, "counts exceed the 32-bit row/id space");
  }

  // --- Payload checksum (covers the section table and every section) -------
  // kHeaderOnly skips exactly this scan — the one check whose cost is
  // O(file size); everything below stays on.
  if (options.verify == ImageVerify::kFull) {
    // The scan below touches every payload page once, in order: tell the
    // kernel to start fetching them ahead of the read.
    AdviseRange(*file, sizeof(ImageHeader),
                file->size() - sizeof(ImageHeader), kAdviseWillNeed);
    if (Fnv1a64(file->data() + sizeof(ImageHeader),
                file->size() - sizeof(ImageHeader)) !=
        header.payload_checksum) {
      return CorruptionAt(path, "payload checksum mismatch");
    }
  }

  // --- Section table --------------------------------------------------------
  SectionEntry table[kSectionCount];
  if (file->size() < sizeof(ImageHeader) + sizeof(table)) {
    return CorruptionAt(path, "file shorter than the section table");
  }
  std::memcpy(table, file->data() + sizeof(ImageHeader), sizeof(table));

  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionEntry& e = table[i];
    if (e.kind != i + 1 || e.elem_size != kSectionElemSize.size[i]) {
      return CorruptionAt(path, "section table does not match the format");
    }
    if (e.offset % kSectionAlign != 0) {
      return CorruptionAt(path, "misaligned section");
    }
    // Checked by division first: a forged count must not overflow bytes().
    if (e.offset > file->size() ||
        e.count > (file->size() - e.offset) / e.elem_size) {
      return CorruptionAt(path, "section extends past the end of the file");
    }
  }

  // --- Bind every section straight onto the mapping -------------------------
  NodeRelation rel;
  rel.scheme_ = static_cast<LabelScheme>(header.scheme);
  rel.tree_count_ = static_cast<int32_t>(header.tree_count);
  rel.element_count_ = static_cast<size_t>(header.element_count);
  rel.mapped_ = true;
  std::span<const uint64_t> interner_offsets;
  std::span<const char> blob;
  uint32_t n = 0;
  ForEachSection(rel.arrays_, interner_offsets, blob, [&](auto& span) {
    using T = typename std::remove_reference_t<decltype(span)>::element_type;
    span = {reinterpret_cast<T*>(file->data() + table[n].offset),
            table[n].count};
    ++n;
  });

  // Mapping hints (see AdviseRange): the interner table, re-interned into
  // the fresh corpus below, is prefetched; every other section is served
  // straight out of the mapping at query time and gets MADV_RANDOM after
  // the one-time sanity scans, since its steady-state access is binary
  // searches that readahead only pollutes the page cache for.
  for (const uint32_t i : {kInternerOffsetsSection, kInternerBlobSection}) {
    AdviseRange(*file, table[i].offset, table[i].bytes(), kAdviseWillNeed);
  }

  // --- Cross-section counts and index sanity --------------------------------
  // Every accessor must stay in bounds over the mapping; CheckMapped holds
  // the relation's own invariants.
  const uint64_t symbols = header.symbol_count;
  if (interner_offsets.size() != symbols + 1) {
    return CorruptionAt(path, "section sizes are inconsistent");
  }
  if (const char* what = rel.CheckMapped(header.row_count, symbols)) {
    return CorruptionAt(path, what);
  }

  // --- Interner -------------------------------------------------------------
  if (interner_offsets.front() != 0 ||
      !std::is_sorted(interner_offsets.begin(), interner_offsets.end()) ||
      interner_offsets.back() != blob.size()) {
    return CorruptionAt(path, "interner offsets are not a prefix sum");
  }
  auto corpus = std::make_shared<Corpus>();
  Interner* interner = corpus->mutable_interner();
  for (uint64_t s = 0; s < symbols; ++s) {
    const std::string_view name(blob.data() + interner_offsets[s],
                                interner_offsets[s + 1] - interner_offsets[s]);
    if (interner->Intern(name) != static_cast<Symbol>(s + 1)) {
      return CorruptionAt(path, "interner table has duplicate strings");
    }
  }
  rel.corpus_ = std::move(corpus);

  // The sanity scans above were the last sequential pass; from here on the
  // mapped sections are hit by binary searches and point lookups, where
  // readahead only evicts useful pages.
  for (uint32_t i = 0; i < kInternerOffsetsSection; ++i) {
    AdviseRange(*file, table[i].offset, table[i].bytes(), kAdviseRandom);
  }

  auto backing = std::make_shared<MappedBacking>();
  backing->file = file;
  rel.BindTagDirectory(&backing->tag_dir_offsets, &backing->tag_dir);
  rel.backing_ = std::move(backing);
  if (wal_lsn != nullptr) *wal_lsn = header.wal_lsn;
  return rel;
}

}  // namespace lpath
