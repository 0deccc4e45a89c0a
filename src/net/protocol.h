// The LPathDB wire protocol, v1: framing, message types, payload codecs
// and the Status <-> wire error-code mapping.
//
// This header is the *implementation* of the protocol; the *specification*
// is docs/PROTOCOL.md, which cross-references every constant below by
// name. Change one and you must change the other — CI's docs link-check
// greps the spec for these identifiers.
//
// Framing in one line: every message is a fixed 24-byte header
// (kFrameHeaderBytes) followed by `payload_len` payload bytes; all header
// and payload integers are little-endian; the header carries an FNV-1a64
// checksum over the first 16 header bytes plus the payload, so a frame is
// verifiable before any payload field is interpreted.

#ifndef LPATHDB_NET_PROTOCOL_H_
#define LPATHDB_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.h"
#include "common/status.h"
#include "lpath/engine.h"

namespace lpath {
namespace net {

// --- Frame constants (normative; see docs/PROTOCOL.md §2) -----------------

/// First four bytes of every frame: "LPN1" read as a little-endian u32.
constexpr uint32_t kFrameMagic = 0x314E504Cu;

/// Protocol version carried (and required to match) in HELLO.
constexpr uint32_t kProtocolVersion = 1;

/// Fixed frame-header size: magic u32, type u8, 3 reserved zero bytes,
/// request-id u32, payload-length u32, checksum u64.
constexpr size_t kFrameHeaderBytes = 24;

/// Request id 0 is reserved for connection-scoped frames (HELLO, PING,
/// GOODBYE replies and connection-fatal ERROR frames); request-scoped
/// frames carry the client-chosen nonzero id.
constexpr uint32_t kConnectionRequestId = 0;

/// FNV-1a64 parameters (common/fnv.h), shared with the image/WAL formats.
constexpr uint64_t kFnvOffset = kFnv1a64Offset;
constexpr uint64_t kFnvPrime = kFnv1a64Prime;

// --- Message types (normative; see docs/PROTOCOL.md §3) -------------------

enum class MsgType : uint8_t {
  kHello = 1,        ///< first frame in each direction; version handshake
  kPrepare = 2,      ///< c→s: compile + cache a query; answered by STREAM_END
  kExecute = 3,      ///< c→s: evaluate a query; batches + STREAM_END follow
  kStreamBatch = 4,  ///< s→c: one sorted, disjoint batch of result rows
  kStreamEnd = 5,    ///< s→c: terminal status of a PREPARE/EXECUTE request
  kCancel = 6,       ///< c→s: best-effort cancel of the in-flight request id
  kError = 7,        ///< s→c: protocol-level failure (request- or conn-scoped)
  kPing = 8,         ///< either direction; payload echoed back verbatim
  kGoodbye = 9,      ///< orderly shutdown of one direction
};

/// True for the types a *client* may send (the server rejects the rest).
bool IsClientType(MsgType type);

// --- Wire error codes (normative; see docs/PROTOCOL.md §5) ----------------

/// Error space carried by STREAM_END and ERROR payloads. Codes 0..10
/// mirror lpath::StatusCode value-for-value; codes ≥ 100 are
/// protocol-level conditions with no engine-side equivalent.
enum class WireCode : uint32_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kNotSupported = 3,
  kCorruption = 4,
  kOutOfRange = 5,
  kIOError = 6,
  kAlreadyExists = 7,
  kInternal = 8,
  kCancelled = 9,
  kResourceExhausted = 10,
  kProtocolError = 100,   ///< malformed frame / illegal message sequence
  kShuttingDown = 101,    ///< server is draining; request not accepted
  kVersionMismatch = 102, ///< HELLO carried an unsupported version
};

/// Maps an engine Status onto the wire (OK → kOk).
WireCode WireCodeFromStatus(const Status& status);

/// Reconstructs a Status from a wire code + message. Protocol-level codes
/// map onto the closest engine code (kProtocolError → Corruption,
/// kShuttingDown → ResourceExhausted, kVersionMismatch → NotSupported)
/// with the wire condition named in the message.
Status StatusFromWire(WireCode code, const std::string& message);

// --- Frames ----------------------------------------------------------------

/// One decoded frame. `payload` is owned (copied out of the read buffer).
struct Frame {
  MsgType type = MsgType::kError;
  uint32_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// Appends a fully framed message (header + checksum + payload) to `out`.
void AppendFrame(MsgType type, uint32_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out);

enum class FrameParse {
  kFrame,     ///< one frame decoded; `*consumed` bytes eaten
  kNeedMore,  ///< the buffer holds a valid prefix; read more bytes
  kBad,       ///< unrecoverable framing damage; `*error` says what
};

/// Decodes the first frame of `in`. Rejects (kBad) wrong magic, nonzero
/// reserved bytes, unknown message types, payload lengths above
/// `max_payload` and checksum mismatches; a short buffer that is still a
/// valid prefix yields kNeedMore. On kFrame, `*consumed` is
/// kFrameHeaderBytes + payload length.
FrameParse ParseFrame(std::span<const uint8_t> in, size_t max_payload,
                      Frame* out, size_t* consumed, std::string* error);

// --- Payload codecs (normative schemas; see docs/PROTOCOL.md §4) ----------

/// HELLO payload, both directions: protocol version, the sender's software
/// string, and (server→client only meaningful) the per-connection
/// EXECUTE admission limit.
struct HelloPayload {
  uint32_t version = kProtocolVersion;
  std::string software;
  uint32_t max_inflight = 0;
};

/// PREPARE / EXECUTE payload: target corpus + LPath query text.
struct QueryPayload {
  std::string corpus;
  std::string query;
};

/// STREAM_END payload: terminal status + total result rows streamed.
struct EndPayload {
  WireCode code = WireCode::kOk;
  std::string message;
  uint64_t total_rows = 0;
};

/// ERROR payload: protocol-level failure description.
struct ErrorPayload {
  WireCode code = WireCode::kProtocolError;
  std::string message;
};

std::vector<uint8_t> EncodeHello(const HelloPayload& hello);
std::vector<uint8_t> EncodeQuery(const QueryPayload& query);
std::vector<uint8_t> EncodeEnd(const EndPayload& end);
std::vector<uint8_t> EncodeError(const ErrorPayload& error);
/// STREAM_BATCH payload: u32 row count, then (i32 tid, i32 id) per row.
std::vector<uint8_t> EncodeBatch(std::span<const Hit> hits);

/// Each decoder consumes the *entire* payload: trailing bytes are as
/// malformed as missing ones.
Result<HelloPayload> DecodeHello(std::span<const uint8_t> payload);
Result<QueryPayload> DecodeQuery(std::span<const uint8_t> payload);
Result<EndPayload> DecodeEnd(std::span<const uint8_t> payload);
Result<ErrorPayload> DecodeError(std::span<const uint8_t> payload);
Result<std::vector<Hit>> DecodeBatch(std::span<const uint8_t> payload);

/// Human-readable type name for logs/tests ("EXECUTE", "STREAM_BATCH", ...).
std::string_view MsgTypeName(MsgType type);

}  // namespace net
}  // namespace lpath

#endif  // LPATHDB_NET_PROTOCOL_H_
