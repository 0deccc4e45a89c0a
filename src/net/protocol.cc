#include "net/protocol.h"

#include <cstring>
#include <limits>

namespace lpath {
namespace net {

namespace {

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void PutString(std::string_view s, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

/// Bounds-checked cursor over one payload. Every Try* either consumes and
/// returns true or leaves the cursor untouched and returns false, so a
/// decoder is a chain of Trys plus one final Done() check.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> payload)
      : payload_(payload) {}

  bool TryU32(uint32_t* out) {
    if (Remaining() < 4) return false;
    *out = ReadU32(payload_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool TryU64(uint64_t* out) {
    if (Remaining() < 8) return false;
    *out = ReadU64(payload_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool TryString(std::string* out) {
    uint32_t len = 0;
    size_t saved = pos_;
    if (!TryU32(&len) || Remaining() < len) {
      pos_ = saved;
      return false;
    }
    out->assign(reinterpret_cast<const char*>(payload_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  size_t Remaining() const { return payload_.size() - pos_; }
  bool Done() const { return pos_ == payload_.size(); }

 private:
  std::span<const uint8_t> payload_;
  size_t pos_ = 0;
};

Status Malformed(std::string_view what) {
  return Status::Corruption("malformed " + std::string(what) + " payload");
}

}  // namespace

bool IsClientType(MsgType type) {
  switch (type) {
    case MsgType::kHello:
    case MsgType::kPrepare:
    case MsgType::kExecute:
    case MsgType::kCancel:
    case MsgType::kPing:
    case MsgType::kGoodbye:
      return true;
    case MsgType::kStreamBatch:
    case MsgType::kStreamEnd:
    case MsgType::kError:
      return false;
  }
  return false;
}

WireCode WireCodeFromStatus(const Status& status) {
  // StatusCode values 0..10 are mirrored one-for-one (protocol.h pins the
  // numbers); the cast is the whole mapping.
  return static_cast<WireCode>(static_cast<uint32_t>(status.code()));
}

Status StatusFromWire(WireCode code, const std::string& message) {
  switch (code) {
    case WireCode::kOk:
      return Status::OK();
    case WireCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireCode::kNotFound:
      return Status::NotFound(message);
    case WireCode::kNotSupported:
      return Status::NotSupported(message);
    case WireCode::kCorruption:
      return Status::Corruption(message);
    case WireCode::kOutOfRange:
      return Status::OutOfRange(message);
    case WireCode::kIOError:
      return Status::IOError(message);
    case WireCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case WireCode::kInternal:
      return Status::Internal(message);
    case WireCode::kCancelled:
      return Status::Cancelled(message);
    case WireCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case WireCode::kProtocolError:
      return Status::Corruption("protocol error: " + message);
    case WireCode::kShuttingDown:
      return Status::ResourceExhausted("server shutting down: " + message);
    case WireCode::kVersionMismatch:
      return Status::NotSupported("protocol version mismatch: " + message);
  }
  return Status::Internal("unknown wire code " +
                          std::to_string(static_cast<uint32_t>(code)) + ": " +
                          message);
}

void AppendFrame(MsgType type, uint32_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out) {
  size_t start = out->size();
  PutU32(kFrameMagic, out);
  out->push_back(static_cast<uint8_t>(type));
  out->push_back(0);  // reserved
  out->push_back(0);  // reserved
  out->push_back(0);  // reserved
  PutU32(request_id, out);
  PutU32(static_cast<uint32_t>(payload.size()), out);
  uint64_t hash = Fnv1a64(out->data() + start, 16);
  hash = Fnv1a64(payload.data(), payload.size(), hash);
  PutU64(hash, out);
  out->insert(out->end(), payload.begin(), payload.end());
}

FrameParse ParseFrame(std::span<const uint8_t> in, size_t max_payload,
                      Frame* out, size_t* consumed, std::string* error) {
  *consumed = 0;
  if (in.size() < kFrameHeaderBytes) {
    // Damage in the bytes we *do* have is still detectable: never ask for
    // more input on a prefix that can't open a valid frame.
    if (!in.empty()) {
      size_t check = in.size() < 4 ? in.size() : 4;
      static constexpr uint8_t kMagicBytes[4] = {'L', 'P', 'N', '1'};
      if (std::memcmp(in.data(), kMagicBytes, check) != 0) {
        *error = "bad frame magic";
        return FrameParse::kBad;
      }
    }
    return FrameParse::kNeedMore;
  }
  if (ReadU32(in.data()) != kFrameMagic) {
    *error = "bad frame magic";
    return FrameParse::kBad;
  }
  if (in[5] != 0 || in[6] != 0 || in[7] != 0) {
    *error = "nonzero reserved header bytes";
    return FrameParse::kBad;
  }
  uint8_t raw_type = in[4];
  if (raw_type < static_cast<uint8_t>(MsgType::kHello) ||
      raw_type > static_cast<uint8_t>(MsgType::kGoodbye)) {
    *error = "unknown message type " + std::to_string(raw_type);
    return FrameParse::kBad;
  }
  uint32_t payload_len = ReadU32(in.data() + 12);
  if (payload_len > max_payload) {
    *error = "payload length " + std::to_string(payload_len) +
             " exceeds limit " + std::to_string(max_payload);
    return FrameParse::kBad;
  }
  if (in.size() < kFrameHeaderBytes + payload_len) {
    return FrameParse::kNeedMore;
  }
  std::span<const uint8_t> payload = in.subspan(kFrameHeaderBytes, payload_len);
  uint64_t hash = Fnv1a64(in.data(), 16);
  hash = Fnv1a64(payload.data(), payload.size(), hash);
  if (hash != ReadU64(in.data() + 16)) {
    *error = "frame checksum mismatch";
    return FrameParse::kBad;
  }
  out->type = static_cast<MsgType>(raw_type);
  out->request_id = ReadU32(in.data() + 8);
  out->payload.assign(payload.begin(), payload.end());
  *consumed = kFrameHeaderBytes + payload_len;
  return FrameParse::kFrame;
}

std::vector<uint8_t> EncodeHello(const HelloPayload& hello) {
  std::vector<uint8_t> out;
  PutU32(hello.version, &out);
  PutString(hello.software, &out);
  PutU32(hello.max_inflight, &out);
  return out;
}

std::vector<uint8_t> EncodeQuery(const QueryPayload& query) {
  std::vector<uint8_t> out;
  PutString(query.corpus, &out);
  PutString(query.query, &out);
  return out;
}

std::vector<uint8_t> EncodeEnd(const EndPayload& end) {
  std::vector<uint8_t> out;
  PutU32(static_cast<uint32_t>(end.code), &out);
  PutString(end.message, &out);
  PutU64(end.total_rows, &out);
  return out;
}

std::vector<uint8_t> EncodeError(const ErrorPayload& error) {
  std::vector<uint8_t> out;
  PutU32(static_cast<uint32_t>(error.code), &out);
  PutString(error.message, &out);
  return out;
}

std::vector<uint8_t> EncodeBatch(std::span<const Hit> hits) {
  std::vector<uint8_t> out;
  out.reserve(4 + hits.size() * 8);
  PutU32(static_cast<uint32_t>(hits.size()), &out);
  for (const Hit& hit : hits) {
    PutU32(static_cast<uint32_t>(hit.tid), &out);
    PutU32(static_cast<uint32_t>(hit.id), &out);
  }
  return out;
}

Result<HelloPayload> DecodeHello(std::span<const uint8_t> payload) {
  PayloadReader r(payload);
  HelloPayload hello;
  if (!r.TryU32(&hello.version) || !r.TryString(&hello.software) ||
      !r.TryU32(&hello.max_inflight) || !r.Done()) {
    return Malformed("HELLO");
  }
  return hello;
}

Result<QueryPayload> DecodeQuery(std::span<const uint8_t> payload) {
  PayloadReader r(payload);
  QueryPayload query;
  if (!r.TryString(&query.corpus) || !r.TryString(&query.query) || !r.Done()) {
    return Malformed("PREPARE/EXECUTE");
  }
  return query;
}

Result<EndPayload> DecodeEnd(std::span<const uint8_t> payload) {
  PayloadReader r(payload);
  EndPayload end;
  uint32_t code = 0;
  if (!r.TryU32(&code) || !r.TryString(&end.message) ||
      !r.TryU64(&end.total_rows) || !r.Done()) {
    return Malformed("STREAM_END");
  }
  end.code = static_cast<WireCode>(code);
  return end;
}

Result<ErrorPayload> DecodeError(std::span<const uint8_t> payload) {
  PayloadReader r(payload);
  ErrorPayload error;
  uint32_t code = 0;
  if (!r.TryU32(&code) || !r.TryString(&error.message) || !r.Done()) {
    return Malformed("ERROR");
  }
  error.code = static_cast<WireCode>(code);
  return error;
}

Result<std::vector<Hit>> DecodeBatch(std::span<const uint8_t> payload) {
  PayloadReader r(payload);
  uint32_t nrows = 0;
  if (!r.TryU32(&nrows) || r.Remaining() != size_t{nrows} * 8) {
    return Malformed("STREAM_BATCH");
  }
  std::vector<Hit> hits;
  hits.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    uint32_t tid = 0;
    uint32_t id = 0;
    r.TryU32(&tid);
    r.TryU32(&id);
    hits.push_back(Hit{static_cast<int32_t>(tid), static_cast<int32_t>(id)});
  }
  return hits;
}

std::string_view MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "HELLO";
    case MsgType::kPrepare:
      return "PREPARE";
    case MsgType::kExecute:
      return "EXECUTE";
    case MsgType::kStreamBatch:
      return "STREAM_BATCH";
    case MsgType::kStreamEnd:
      return "STREAM_END";
    case MsgType::kCancel:
      return "CANCEL";
    case MsgType::kError:
      return "ERROR";
    case MsgType::kPing:
      return "PING";
    case MsgType::kGoodbye:
      return "GOODBYE";
  }
  return "UNKNOWN";
}

}  // namespace net
}  // namespace lpath
