#include "storage/wal.h"

#include <unistd.h>

#include <algorithm>
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

struct WalFileHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t endian = 0;
  uint64_t first_lsn = 0;  ///< next LSN when the file was written
  uint64_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<WalFileHeader> &&
              sizeof(WalFileHeader) == 32);

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

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("cannot read " + path);
  return data;
}

Status CorruptionAt(const std::string& path, const char* what) {
  return Status::Corruption("corrupt WAL " + path + ": " + what);
}

struct ScanResult {
  uint64_t records = 0;
  uint64_t last_lsn = 0;
  uint64_t header_first_lsn = 0;  ///< the next LSN when it was written
  uint64_t valid_bytes = 0;  ///< prefix ending at the last whole record
  bool torn = false;         ///< bytes past valid_bytes form a torn tail
};

/// Walks `data`'s records after validating the log header. A short final
/// record (or a file shorter than its header) is reported as `torn`, never
/// an error. Structural damage inside the valid region is Corruption.
/// `fn`, when set, receives every record with lsn > after_lsn.
Result<ScanResult> ScanLog(
    const std::string& path, std::string_view data, uint64_t after_lsn,
    const std::function<Status(uint64_t, std::string_view)>* fn) {
  ScanResult out;
  if (data.size() < sizeof(WalFileHeader)) {
    out.torn = true;
    return out;
  }
  WalFileHeader header;
  std::memcpy(&header, data.data(), sizeof(header));
  if (std::memcmp(header.magic, kWalMagic, sizeof(kWalMagic)) != 0) {
    return CorruptionAt(path, "bad log magic");
  }
  if (header.version != kWalFormatVersion) {
    return CorruptionAt(path, "unsupported log version");
  }
  if (header.endian != kEndianMarker) {
    return CorruptionAt(path, "foreign-endian log");
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
    if (out.records > 0 && rec.lsn != out.last_lsn + 1) {
      return CorruptionAt(path, "record LSNs are not contiguous");
    }
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

Wal::Wal(std::string dir)
    : dir_(std::move(dir)), path_(dir_ + "/" + kWalFileName) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("Wal::Open: empty directory");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create WAL directory " + dir + ": " +
                           ec.message());
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const fs::path name = entry.path().filename();
    if (name.extension() == ".wal" && name != kWalFileName) {
      return Status::NotSupported(
          "WAL " + dir + " holds " + name.string() +
          ", a segment of the older multi-file layout, which is not read");
    }
  }
  if (ec) {
    return Status::IOError("cannot list WAL directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(dir));
  // A fresh log that died before its rename: the log it was to replace is
  // still whole.
  fs::remove(wal->path_ + ".tmp", ec);
  if (ec) {
    return Status::IOError("cannot remove " + wal->path_ + ".tmp: " +
                           ec.message());
  }
  if (!fs::exists(wal->path_, ec)) {
    if (ec) {
      return Status::IOError("cannot stat " + wal->path_ + ": " +
                             ec.message());
    }
    return wal;
  }
  LPATH_ASSIGN_OR_RETURN(const std::string data, ReadFile(wal->path_));
  LPATH_ASSIGN_OR_RETURN(
      const ScanResult scan,
      ScanLog(wal->path_, data, /*after_lsn=*/0, nullptr));
  if (scan.torn) {
    // A crashed append. A file shorter than its header holds nothing:
    // bytes_ stays 0 and the first append replaces it.
    wal->stats_.truncated_bytes = data.size() - scan.valid_bytes;
    if (scan.valid_bytes > 0) {
      LPATH_RETURN_IF_ERROR(TruncateFile(wal->path_, scan.valid_bytes));
    }
  }
  wal->bytes_ = scan.valid_bytes;
  wal->records_ = scan.records;
  wal->stats_.recovered_records = scan.records;
  // Without records, the header keeps the LSN position of a checkpoint.
  wal->next_lsn_ = scan.records > 0
                       ? scan.last_lsn + 1
                       : std::max<uint64_t>(1, scan.header_first_lsn);
  wal->stats_.last_lsn = wal->next_lsn_ - 1;
  return wal;
}

Result<int> Wal::WriteFreshLog() {
  const std::string tmp = path_ + ".tmp";
  WalFileHeader header;
  std::memcpy(header.magic, kWalMagic, sizeof(kWalMagic));
  header.version = kWalFormatVersion;
  header.endian = kEndianMarker;
  header.first_lsn = next_lsn_;
  LPATH_ASSIGN_OR_RETURN(const int fd, io::OpenForWrite(tmp));
  Status st = io::WriteFull(fd, &header, sizeof(header));
  if (st.ok()) st = io::Fsync(fd, tmp);
  if (st.ok()) st = io::Rename(tmp, path_);
  if (st.ok()) st = io::FsyncDir(dir_);
  if (!st.ok()) {
    ::close(fd);
    (void)io::Unlink(tmp);  // a no-op once the rename has run
    return st;
  }
  return fd;
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
  if (fd_ < 0 && bytes_ == 0) {
    LPATH_ASSIGN_OR_RETURN(fd_, WriteFreshLog());
    bytes_ = sizeof(WalFileHeader);
  } else if (fd_ < 0) {
    // Reopen the recovered log for appends at its committed end.
    LPATH_ASSIGN_OR_RETURN(fd_, io::OpenForAppend(path_));
  }

  WalRecordHeader header;
  header.magic = kWalRecordMagic;
  header.length = static_cast<uint32_t>(payload.size());
  header.lsn = next_lsn_;
  header.checksum = RecordChecksum(header.lsn, header.length, payload);
  // One contiguous buffer, one write: a crash tears the record, never
  // interleaves it.
  std::string buf;
  buf.reserve(sizeof(header) + payload.size());
  buf.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buf.append(payload);

  Status st = io::PWriteFull(fd_, buf.data(), buf.size(), bytes_);
  if (st.ok() && io::CrashRequested("wal:append:before_sync")) {
    st = Status::IOError("injected crash: wal:append:before_sync");
  }
  if (st.ok()) st = io::Fsync(fd_, path_);
  if (!st.ok()) {
    // Uncommitted bytes may have landed; cut them back so the next append
    // (and a post-crash recovery) never sees a record that was not
    // acknowledged. If even the cleanup fails, wedge the log instead of
    // appending after garbage.
    if (!io::TruncateFd(fd_, bytes_, path_).ok()) wedged_ = true;
    return st;
  }
  records_ += 1;
  bytes_ += buf.size();
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
  if (records_ == 0 || next_lsn_ - 1 <= after_lsn) return Status::OK();
  LPATH_ASSIGN_OR_RETURN(const std::string data, ReadFile(path_));
  if (data.size() < bytes_) {
    return CorruptionAt(path_, "log shrank after recovery");
  }
  LPATH_ASSIGN_OR_RETURN(
      const ScanResult scan,
      ScanLog(path_, std::string_view(data.data(), bytes_), after_lsn, &fn));
  if (scan.torn || scan.records != records_) {
    return CorruptionAt(path_, "log changed after recovery");
  }
  return Status::OK();
}

Status Wal::Checkpoint(uint64_t up_to_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_ == 0 || up_to_lsn < next_lsn_ - 1) return Status::OK();
  // Every record is covered. Forget them first: if the replace fails, the
  // next append writes a fresh log instead of extending this one.
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  bytes_ = 0;
  records_ = 0;
  last_record_bytes_ = 0;
  LPATH_ASSIGN_OR_RETURN(fd_, WriteFreshLog());
  bytes_ = sizeof(WalFileHeader);
  stats_.checkpoints += 1;
  return Status::OK();
}

Status Wal::Rollback(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_ == 0 || lsn + 1 != next_lsn_ || last_record_bytes_ == 0 ||
      fd_ < 0) {
    return Status::InvalidArgument(
        "Wal::Rollback: not the most recent append");
  }
  const uint64_t new_bytes = bytes_ - last_record_bytes_;
  Status st = io::TruncateFd(fd_, new_bytes, path_);
  if (st.ok()) st = io::Fsync(fd_, path_);
  if (!st.ok()) {
    wedged_ = true;
    return st;
  }
  bytes_ = new_bytes;
  records_ -= 1;
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
    last_record_bytes_ = 0;  // the latest LSN is no longer a record
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
