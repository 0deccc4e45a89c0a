#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>
#include <utility>

#include "common/fnv.h"
#include "storage/io_hooks.h"

namespace lpath {

namespace {

namespace fs = std::filesystem;

/// Mirrors the image format's marker: WAL files are a deployment format,
/// not an interchange format.
constexpr uint32_t kEndianMarker = 0x01020304u;

/// Sanity cap on a single record; anything larger in a length field is
/// corruption, not a batch (ingest batches are orders of magnitude
/// smaller).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

struct WalSegmentHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t endian = 0;
  uint64_t first_lsn = 0;  ///< next LSN when the segment was created
  uint64_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<WalSegmentHeader> &&
              sizeof(WalSegmentHeader) == 32);

struct WalRecordHeader {
  uint32_t magic = 0;
  uint32_t length = 0;    ///< payload bytes
  uint64_t lsn = 0;
  uint64_t checksum = 0;  ///< FNV-1a64 over (lsn, length, payload)
};
static_assert(std::is_trivially_copyable_v<WalRecordHeader> &&
              sizeof(WalRecordHeader) == kWalRecordOverhead);

constexpr uint32_t kWalRecordMagic = 0x4C575245u;  // "LWRE"

uint64_t RecordChecksum(uint64_t lsn, uint32_t length,
                        std::string_view payload) {
  uint64_t hash = Fnv1a64(&lsn, sizeof(lsn));
  hash = Fnv1a64(&length, sizeof(length), hash);
  return Fnv1a64(payload.data(), payload.size(), hash);
}

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llu.wal",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Parses "<16 digits>.wal" back to its sequence number; 0 for foreign
/// files (sequence numbers start at 1).
uint64_t ParseSegmentName(const std::string& name) {
  if (name.size() != 20 || name.substr(16) != ".wal") return 0;
  uint64_t seq = 0;
  for (int i = 0; i < 16; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("cannot read " + path);
  return data;
}

Status CorruptionAt(const std::string& path, const char* what) {
  return Status::Corruption("corrupt WAL segment " + path + ": " + what);
}

struct ScanResult {
  uint64_t records = 0;
  uint64_t first_lsn = 0;  ///< 0 when the segment holds no records
  uint64_t last_lsn = 0;
  uint64_t header_first_lsn = 0;  ///< the creation-time next LSN
  uint64_t valid_bytes = 0;  ///< prefix ending at the last whole record
  bool torn = false;         ///< bytes past valid_bytes form a torn tail
};

/// Walks `data`'s records after validating the segment header. A short
/// final record (or short header) is reported as `torn`, never an error —
/// the caller decides whether a tear is legal at this segment's position.
/// Structural damage inside the valid region is Corruption. `expect_lsn`
/// pins the first record's LSN (0 = any); `fn`, when set, receives every
/// record with lsn > after_lsn.
Result<ScanResult> ScanSegment(
    const std::string& path, std::string_view data, uint64_t expect_lsn,
    uint64_t after_lsn,
    const std::function<Status(uint64_t, std::string_view)>* fn) {
  ScanResult out;
  if (data.size() < sizeof(WalSegmentHeader)) {
    out.torn = true;  // interrupted segment creation
    return out;
  }
  WalSegmentHeader header;
  std::memcpy(&header, data.data(), sizeof(header));
  if (std::memcmp(header.magic, kWalMagic, sizeof(kWalMagic)) != 0) {
    return CorruptionAt(path, "bad segment magic");
  }
  if (header.version != kWalFormatVersion) {
    return CorruptionAt(path, "unsupported segment version");
  }
  if (header.endian != kEndianMarker) {
    return CorruptionAt(path, "foreign-endian segment");
  }
  out.header_first_lsn = header.first_lsn;
  uint64_t offset = sizeof(header);
  out.valid_bytes = offset;
  while (offset < data.size()) {
    const uint64_t remaining = data.size() - offset;
    if (remaining < sizeof(WalRecordHeader)) {
      out.torn = true;
      return out;
    }
    WalRecordHeader rec;
    std::memcpy(&rec, data.data() + offset, sizeof(rec));
    if (rec.magic != kWalRecordMagic) {
      return CorruptionAt(path, "bad record magic");
    }
    if (rec.length > kMaxRecordBytes) {
      return CorruptionAt(path, "record length out of range");
    }
    if (remaining - sizeof(rec) < rec.length) {
      out.torn = true;
      return out;
    }
    const std::string_view payload(data.data() + offset + sizeof(rec),
                                   rec.length);
    if (rec.checksum != RecordChecksum(rec.lsn, rec.length, payload)) {
      return CorruptionAt(path, "record checksum mismatch");
    }
    const uint64_t want =
        out.records == 0 ? (expect_lsn != 0 ? expect_lsn : rec.lsn)
                         : out.last_lsn + 1;
    if (rec.lsn != want) {
      return CorruptionAt(path, "record LSNs are not contiguous");
    }
    if (out.records == 0) out.first_lsn = rec.lsn;
    out.last_lsn = rec.lsn;
    out.records += 1;
    if (fn != nullptr && rec.lsn > after_lsn) {
      LPATH_RETURN_IF_ERROR((*fn)(rec.lsn, payload));
    }
    offset += sizeof(rec) + rec.length;
    out.valid_bytes = offset;
  }
  return out;
}

/// Shrinks `path` to its valid prefix after a torn tail (recovery repair;
/// not hooked — it runs on the clean reopen after a simulated crash).
Status TruncateFile(const std::string& path, uint64_t size) {
  std::error_code ec;
  fs::resize_file(path, size, ec);
  if (ec) {
    return Status::IOError("cannot truncate " + path + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  (void)CloseTail();
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       WalOptions options) {
  if (dir.empty()) {
    return Status::InvalidArgument("Wal::Open: empty directory");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create WAL directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options));

  std::vector<std::pair<uint64_t, std::string>> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const uint64_t seq = ParseSegmentName(name);
    if (seq > 0) found.emplace_back(seq, entry.path().string());
  }
  if (ec) {
    return Status::IOError("cannot list WAL directory " + dir + ": " +
                           ec.message());
  }
  std::sort(found.begin(), found.end());
  for (size_t i = 0; i + 1 < found.size(); ++i) {
    if (found[i].first + 1 != found[i + 1].first) {
      return Status::Corruption("WAL " + dir +
                                " has a gap in its segment sequence");
    }
  }

  uint64_t expect_lsn = 0;  // first record of the oldest segment: any LSN
  for (size_t i = 0; i < found.size(); ++i) {
    const bool last = i + 1 == found.size();
    const std::string& path = found[i].second;
    LPATH_ASSIGN_OR_RETURN(const std::string data, ReadFile(path));
    LPATH_ASSIGN_OR_RETURN(
        ScanResult scan,
        ScanSegment(path, data, expect_lsn, /*after_lsn=*/0, nullptr));
    if (scan.torn) {
      // A tear is a crashed append — possible only at the very end of the
      // log. Earlier segments were sealed by a later rotation; a tear
      // there is damage, not a crash artifact.
      if (!last) {
        return CorruptionAt(path, "torn record before the final segment");
      }
      wal->stats_.truncated_bytes += data.size() - scan.valid_bytes;
      if (scan.valid_bytes < sizeof(WalSegmentHeader)) {
        // Interrupted creation: no header, no records — drop the file.
        std::error_code rm;
        fs::remove(path, rm);
        if (rm) {
          return Status::IOError("cannot remove torn segment " + path + ": " +
                                 rm.message());
        }
        break;
      }
      LPATH_RETURN_IF_ERROR(TruncateFile(path, scan.valid_bytes));
    }
    Segment seg;
    seg.path = path;
    seg.seq = found[i].first;
    seg.first_lsn = scan.first_lsn;
    seg.last_lsn = scan.last_lsn;
    seg.records = scan.records;
    seg.bytes = scan.valid_bytes;
    if (scan.records > 0) {
      wal->next_lsn_ = scan.last_lsn + 1;
      expect_lsn = scan.last_lsn + 1;
      wal->stats_.recovered_records += scan.records;
      wal->stats_.last_lsn = scan.last_lsn;
    } else if (scan.header_first_lsn > wal->next_lsn_) {
      // A checkpoint's fresh empty segment: its header preserves the LSN
      // position of the records it replaced.
      wal->next_lsn_ = scan.header_first_lsn;
      wal->stats_.last_lsn = wal->next_lsn_ - 1;
    }
    wal->segments_.push_back(std::move(seg));
  }
  wal->stats_.segments = wal->segments_.size();
  return wal;
}

Status Wal::CloseTail() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return Status::OK();
}

Status Wal::EnsureTail(size_t incoming_bytes) {
  if (fd_ >= 0) {
    const Segment& tail = segments_.back();
    if (tail.records == 0 ||
        tail.bytes + incoming_bytes <= options_.segment_bytes) {
      return Status::OK();
    }
    LPATH_RETURN_IF_ERROR(CloseTail());
  } else if (!segments_.empty() &&
             (segments_.back().records == 0 ||
              segments_.back().bytes + incoming_bytes <=
                  options_.segment_bytes)) {
    // Reopen the recovered tail for appends at its committed end.
    LPATH_ASSIGN_OR_RETURN(fd_, io::OpenForAppend(segments_.back().path));
    return Status::OK();
  }
  // Rotate: a fresh segment whose header (and directory entry) is durable
  // before any record lands in it.
  Segment seg;
  seg.seq = segments_.empty() ? 1 : segments_.back().seq + 1;
  seg.path = dir_ + "/" + SegmentName(seg.seq);
  WalSegmentHeader header;
  std::memcpy(header.magic, kWalMagic, sizeof(kWalMagic));
  header.version = kWalFormatVersion;
  header.endian = kEndianMarker;
  header.first_lsn = next_lsn_;
  LPATH_ASSIGN_OR_RETURN(const int fd, io::OpenForWrite(seg.path));
  Status st = io::WriteFull(fd, &header, sizeof(header));
  if (st.ok() && options_.sync) st = io::Fsync(fd, seg.path);
  if (st.ok() && options_.sync) st = io::FsyncDir(dir_);
  if (!st.ok()) {
    ::close(fd);
    (void)io::Unlink(seg.path);
    return st;
  }
  seg.bytes = sizeof(header);
  fd_ = fd;
  segments_.push_back(std::move(seg));
  stats_.segments = segments_.size();
  return Status::OK();
}

Result<uint64_t> Wal::Append(std::string_view payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("Wal::Append: empty payload");
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument("Wal::Append: payload too large");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (wedged_) {
    return Status::IOError("WAL " + dir_ +
                           " is wedged by an earlier failed append");
  }
  if (io::CrashRequested("wal:append:start")) {
    return Status::IOError("injected crash: wal:append:start");
  }
  const size_t record_bytes = sizeof(WalRecordHeader) + payload.size();
  LPATH_RETURN_IF_ERROR(EnsureTail(record_bytes));
  Segment& tail = segments_.back();

  WalRecordHeader header;
  header.magic = kWalRecordMagic;
  header.length = static_cast<uint32_t>(payload.size());
  header.lsn = next_lsn_;
  header.checksum = RecordChecksum(header.lsn, header.length, payload);
  // One contiguous buffer, one write: a crash tears the record, never
  // interleaves it.
  std::string buf;
  buf.reserve(record_bytes);
  buf.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buf.append(payload);

  Status st = io::PWriteFull(fd_, buf.data(), buf.size(), tail.bytes);
  if (st.ok() && io::CrashRequested("wal:append:before_sync")) {
    st = Status::IOError("injected crash: wal:append:before_sync");
  }
  if (st.ok() && options_.sync) st = io::Fsync(fd_, tail.path);
  if (!st.ok()) {
    // Uncommitted bytes may have landed; cut them back so the next append
    // (and a post-crash recovery) never sees a record that was not
    // acknowledged. If even the cleanup fails, wedge the log instead of
    // appending after garbage.
    if (!io::TruncateFd(fd_, tail.bytes, tail.path).ok()) wedged_ = true;
    return st;
  }
  if (tail.records == 0) tail.first_lsn = header.lsn;
  tail.last_lsn = header.lsn;
  tail.records += 1;
  tail.bytes += buf.size();
  last_record_bytes_ = buf.size();
  stats_.appends += 1;
  stats_.appended_bytes += buf.size();
  stats_.last_lsn = header.lsn;
  next_lsn_ = header.lsn + 1;
  return header.lsn;
}

Status Wal::Replay(
    uint64_t after_lsn,
    const std::function<Status(uint64_t, std::string_view)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Segment& seg : segments_) {
    if (seg.records == 0 || seg.last_lsn <= after_lsn) continue;
    LPATH_ASSIGN_OR_RETURN(const std::string data, ReadFile(seg.path));
    if (data.size() < seg.bytes) {
      return CorruptionAt(seg.path, "segment shrank after recovery");
    }
    LPATH_ASSIGN_OR_RETURN(
        const ScanResult scan,
        ScanSegment(seg.path, std::string_view(data.data(), seg.bytes),
                    seg.first_lsn, after_lsn, &fn));
    if (scan.torn || scan.records != seg.records) {
      return CorruptionAt(seg.path, "segment changed after recovery");
    }
  }
  return Status::OK();
}

Status Wal::Checkpoint(uint64_t up_to_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  while (dropped < segments_.size()) {
    const Segment& seg = segments_[dropped];
    if (seg.records == 0 || seg.last_lsn > up_to_lsn) break;
    if (dropped + 1 == segments_.size()) LPATH_RETURN_IF_ERROR(CloseTail());
    LPATH_RETURN_IF_ERROR(io::Unlink(seg.path));
    dropped += 1;
  }
  if (dropped == 0) return Status::OK();
  segments_.erase(segments_.begin(),
                  segments_.begin() + static_cast<ptrdiff_t>(dropped));
  stats_.checkpoints += 1;
  if (segments_.empty()) {
    // The rotate half: a fresh empty segment whose header carries
    // next_lsn_, so the LSN position survives a restart even though every
    // record is gone. (EnsureTail also fsyncs the directory, covering the
    // unlinks above.)
    LPATH_RETURN_IF_ERROR(EnsureTail(0));
  } else if (options_.sync) {
    LPATH_RETURN_IF_ERROR(io::FsyncDir(dir_));
  }
  stats_.segments = segments_.size();
  return Status::OK();
}

Status Wal::Rollback(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.empty() || segments_.back().records == 0 ||
      segments_.back().last_lsn != lsn || lsn + 1 != next_lsn_ ||
      last_record_bytes_ == 0 || fd_ < 0) {
    return Status::InvalidArgument(
        "Wal::Rollback: not the most recent append");
  }
  Segment& tail = segments_.back();
  const uint64_t new_bytes = tail.bytes - last_record_bytes_;
  Status st = io::TruncateFd(fd_, new_bytes, tail.path);
  if (st.ok() && options_.sync) st = io::Fsync(fd_, tail.path);
  if (!st.ok()) {
    wedged_ = true;
    return st;
  }
  tail.bytes = new_bytes;
  tail.records -= 1;
  tail.last_lsn = tail.records == 0 ? 0 : lsn - 1;
  if (tail.records == 0) tail.first_lsn = 0;
  next_lsn_ = lsn;
  stats_.last_lsn = lsn - 1;
  last_record_bytes_ = 0;
  return Status::OK();
}

void Wal::EnsureNextLsnAbove(uint64_t floor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_lsn_ <= floor) {
    next_lsn_ = floor + 1;
    stats_.last_lsn = floor;
  }
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lpath
