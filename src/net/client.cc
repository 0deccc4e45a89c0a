#include "net/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace lpath {
namespace net {

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = std::exchange(other.fd_, -1);
  next_request_id_ = other.next_request_id_;
  max_inflight_ = other.max_inflight_;
  server_software_ = std::move(other.server_software_);
  rbuf_ = std::move(other.rbuf_);
  pending_ = std::move(other.pending_);
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    return Status::InvalidArgument("bad address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status status = Status::IOError("connect " + host + ":" +
                                    std::to_string(port) + ": " +
                                    std::string(std::strerror(errno)));
    ::close(fd_);
    fd_ = -1;
    return status;
  }

  Status hello = Handshake();
  if (!hello.ok()) {
    ::close(fd_);
    fd_ = -1;
  }
  return hello;
}

Status Client::Handshake() {
  HelloPayload mine;
  mine.software = "lpathdb-client";
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kHello, kConnectionRequestId, EncodeHello(mine),
              &frame);
  LPATH_RETURN_IF_ERROR(WriteAll(frame));

  LPATH_ASSIGN_OR_RETURN(Frame reply, ReadFrame());
  if (reply.type == MsgType::kError) {
    LPATH_ASSIGN_OR_RETURN(ErrorPayload error, DecodeError(reply.payload));
    return StatusFromWire(error.code, error.message);
  }
  if (reply.type != MsgType::kHello) {
    return Status::Corruption("handshake: expected HELLO, got " +
                              std::string(MsgTypeName(reply.type)));
  }
  LPATH_ASSIGN_OR_RETURN(HelloPayload theirs, DecodeHello(reply.payload));
  if (theirs.version != kProtocolVersion) {
    return Status::NotSupported("server protocol version " +
                                std::to_string(theirs.version));
  }
  max_inflight_ = theirs.max_inflight;
  server_software_ = theirs.software;
  return Status::OK();
}

Status Client::WriteAll(std::span<const uint8_t> bytes) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("write: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Result<Frame> Client::ReadFrame() {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  while (true) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    FrameParse parse = ParseFrame(rbuf_, /*max_payload=*/1u << 30, &frame,
                                  &consumed, &error);
    if (parse == FrameParse::kFrame) {
      rbuf_.erase(rbuf_.begin(), rbuf_.begin() + consumed);
      return frame;
    }
    if (parse == FrameParse::kBad) {
      ::close(fd_);
      fd_ = -1;
      return Status::Corruption("server sent a malformed frame: " + error);
    }
    uint8_t buf[64 * 1024];
    ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ::close(fd_);
    fd_ = -1;
    if (n == 0) return Status::IOError("connection closed by server");
    return Status::IOError("read: " + std::string(std::strerror(errno)));
  }
}

Result<uint32_t> Client::SendExecute(const std::string& corpus,
                                     const std::string& query) {
  uint32_t id = next_request_id_++;
  if (next_request_id_ == 0) next_request_id_ = 1;  // skip the reserved id
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kExecute, id, EncodeQuery({corpus, query}), &frame);
  LPATH_RETURN_IF_ERROR(WriteAll(frame));
  return id;
}

Status Client::SendCancel(uint32_t request_id) {
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kCancel, request_id, {}, &frame);
  return WriteAll(frame);
}

Status Client::ReadResponse(uint32_t request_id, std::vector<Hit>* rows,
                            const BatchSink& on_batch) {
  const auto deliver = [&](std::span<const Hit> batch) {
    if (rows != nullptr) rows->insert(rows->end(), batch.begin(), batch.end());
    if (on_batch) on_batch(batch);
  };
  // Batches an earlier interleaved read buffered for this request come
  // first, whether or not its end has arrived yet.
  if (auto it = pending_.find(request_id); it != pending_.end()) {
    BufferedResponse resp = std::move(it->second);
    pending_.erase(it);
    for (const std::vector<Hit>& batch : resp.batches) deliver(batch);
    if (resp.done) return resp.status;
  }

  while (true) {
    LPATH_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    switch (frame.type) {
      case MsgType::kStreamBatch: {
        LPATH_ASSIGN_OR_RETURN(std::vector<Hit> batch,
                               DecodeBatch(frame.payload));
        if (frame.request_id == request_id) {
          deliver(batch);
        } else {
          pending_[frame.request_id].batches.push_back(std::move(batch));
        }
        break;
      }
      case MsgType::kStreamEnd: {
        LPATH_ASSIGN_OR_RETURN(EndPayload end, DecodeEnd(frame.payload));
        Status status = StatusFromWire(end.code, end.message);
        if (frame.request_id == request_id) return status;
        BufferedResponse& other = pending_[frame.request_id];
        other.status = std::move(status);
        other.done = true;
        break;
      }
      case MsgType::kError: {
        LPATH_ASSIGN_OR_RETURN(ErrorPayload error, DecodeError(frame.payload));
        Status status = StatusFromWire(error.code, error.message);
        if (frame.request_id == kConnectionRequestId) {
          // Connection-scoped: the server closes after this. Everything
          // outstanding fails.
          ::close(fd_);
          fd_ = -1;
          return status;
        }
        if (frame.request_id == request_id) return status;
        BufferedResponse& other = pending_[frame.request_id];
        other.status = std::move(status);
        other.done = true;
        break;
      }
      default:
        return Status::Corruption("unexpected frame " +
                                  std::string(MsgTypeName(frame.type)) +
                                  " while awaiting a response");
    }
  }
}

Result<QueryResult> Client::Query(const std::string& corpus,
                                  const std::string& query) {
  LPATH_ASSIGN_OR_RETURN(uint32_t id, SendExecute(corpus, query));
  QueryResult result;
  LPATH_RETURN_IF_ERROR(ReadResponse(id, &result.hits));
  return result;
}

Status Client::QueryStream(const std::string& corpus,
                           const std::string& query, const BatchSink& sink) {
  LPATH_ASSIGN_OR_RETURN(uint32_t id, SendExecute(corpus, query));
  return ReadResponse(id, nullptr, sink);
}

std::vector<Result<QueryResult>> Client::Pipeline(
    const std::string& corpus, const std::vector<std::string>& queries) {
  std::vector<Result<QueryResult>> results;
  results.reserve(queries.size());

  std::vector<uint32_t> ids;
  ids.reserve(queries.size());
  Status write_failure = Status::OK();
  for (const std::string& query : queries) {
    if (write_failure.ok()) {
      Result<uint32_t> id = SendExecute(corpus, query);
      if (id.ok()) {
        ids.push_back(*id);
        continue;
      }
      write_failure = id.status();
    }
    ids.push_back(0);  // placeholder: the send never happened
  }

  for (uint32_t id : ids) {
    if (id == 0) {
      results.push_back(write_failure);
      continue;
    }
    QueryResult result;
    Status status = ReadResponse(id, &result.hits);
    if (status.ok()) {
      results.push_back(std::move(result));
    } else {
      results.push_back(status);
    }
  }
  return results;
}

Status Client::Prepare(const std::string& corpus, const std::string& query) {
  uint32_t id = next_request_id_++;
  if (next_request_id_ == 0) next_request_id_ = 1;
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kPrepare, id, EncodeQuery({corpus, query}), &frame);
  LPATH_RETURN_IF_ERROR(WriteAll(frame));
  return ReadResponse(id, nullptr);
}

Status Client::Ping() {
  static constexpr uint8_t kProbe[] = {'p', 'i', 'n', 'g', '?'};
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kPing, kConnectionRequestId, kProbe, &frame);
  LPATH_RETURN_IF_ERROR(WriteAll(frame));
  LPATH_ASSIGN_OR_RETURN(Frame reply, ReadFrame());
  if (reply.type != MsgType::kPing ||
      !std::equal(reply.payload.begin(), reply.payload.end(),
                  std::begin(kProbe), std::end(kProbe))) {
    return Status::Corruption("ping echo mismatch");
  }
  return Status::OK();
}

Status Client::Close() {
  if (fd_ < 0) return Status::OK();
  std::vector<uint8_t> frame;
  AppendFrame(MsgType::kGoodbye, kConnectionRequestId, {}, &frame);
  Status wrote = WriteAll(frame);
  if (wrote.ok()) {
    // Wait for the server's GOODBYE (it drains our in-flight work first).
    while (true) {
      Result<Frame> reply = ReadFrame();
      if (!reply.ok()) break;  // server closed: also an acceptable ending
      if (reply->type == MsgType::kGoodbye) break;
      // Late STREAM_* frames for abandoned requests are drained silently.
    }
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();
  return Status::OK();
}

}  // namespace net
}  // namespace lpath
