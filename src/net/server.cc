#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <utility>

namespace lpath {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// listen(2) backlog.
constexpr int kListenBacklog = 128;
/// Frames with a longer payload are rejected as malformed.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;
/// Stop() grace period for draining in-flight queries and flushing
/// outbound buffers before force-closing.
constexpr std::chrono::milliseconds kShutdownGrace{5000};

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// poll(2) timeout until `at`: -1 (block) for time_point::max(), else the
/// milliseconds left, rounded up so that a deadline is never polled early.
int PollTimeoutMs(Clock::time_point at) {
  if (at == Clock::time_point::max()) return -1;
  const int64_t left =
      std::chrono::ceil<std::chrono::milliseconds>(at - Clock::now()).count();
  return static_cast<int>(std::clamp<int64_t>(left, 0, INT_MAX));
}

}  // namespace

/// Cross-thread wake for the poll loop: pool threads write one byte into a
/// self-pipe the loop polls. Held by shared_ptr from every pool-thread
/// callback, so a wake can never hit a closed pipe.
struct NetServer::Wakeup {
  int fds[2] = {-1, -1};

  ~Wakeup() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }

  bool Open() {
    if (::pipe(fds) != 0) return false;
    return SetNonBlocking(fds[0]) && SetNonBlocking(fds[1]);
  }

  void Notify() {
    uint8_t b = 1;
    // A full pipe already guarantees a pending wake; EAGAIN is success.
    [[maybe_unused]] ssize_t n = ::write(fds[1], &b, 1);
  }

  void Drain() {
    uint8_t buf[64];
    while (::read(fds[0], buf, sizeof buf) > 0) {
    }
  }
};

/// One in-flight PREPARE/EXECUTE on a connection.
struct ReqState {
  std::atomic<bool> cancelled{false};
  std::atomic<uint64_t> rows{0};
};

/// One frame queued for writing. `data` marks STREAM_BATCH frames — the
/// only kind counted against the backpressure bound — and `rows` is the
/// number of result rows such a frame carries.
struct OutFrame {
  std::vector<uint8_t> bytes;
  bool data = false;
  uint64_t rows = 0;
};

struct NetServer::Conn {
  int fd = -1;

  // --- Loop-thread-only state ----------------------------------------------
  std::vector<uint8_t> rbuf;
  std::vector<uint8_t> wbuf;  ///< partially written frame bytes
  size_t wbuf_pos = 0;
  Clock::time_point last_activity;
  bool hello_done = false;       ///< client HELLO accepted, reply queued
  bool goodbye = false;          ///< client said GOODBYE: no more reads
  bool goodbye_queued = false;   ///< our GOODBYE reply is in the queue
  bool close_after_flush = false;

  // --- Shared state (loop thread + pool threads), guarded by mu ------------
  std::mutex mu;
  std::condition_variable cv;  ///< waited on by backpressured producers
  std::deque<OutFrame> outq;
  size_t data_frames = 0;  ///< STREAM_BATCH entries currently in outq
  bool closed = false;     ///< set once, on teardown: producers drop
  std::unordered_map<uint32_t, std::shared_ptr<ReqState>> inflight;

  /// Pool-thread side of the queue: blocks while the data-frame bound is
  /// hit, drops everything once the connection is closed or the request
  /// cancelled. Returns false when the frame was dropped.
  bool EnqueueData(std::vector<uint8_t> frame, uint64_t rows, size_t bound,
                   const std::atomic<bool>& cancelled) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      return closed || cancelled.load(std::memory_order_relaxed) ||
             data_frames < bound;
    });
    if (closed || cancelled.load(std::memory_order_relaxed)) return false;
    outq.push_back(OutFrame{std::move(frame), /*data=*/true, rows});
    ++data_frames;
    return true;
  }

  /// Control frames (STREAM_END, ERROR, HELLO, PING, GOODBYE) always
  /// enqueue — completion must never deadlock behind unsent rows.
  bool EnqueueControl(std::vector<uint8_t> frame) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return false;
    outq.push_back(OutFrame{std::move(frame), /*data=*/false});
    return true;
  }
};

NetServer::NetServer(db::Database* db, NetOptions options)
    : db_(db), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  wakeup_ = std::make_shared<Wakeup>();
  if (!wakeup_->Open()) {
    running_.store(false);
    return Status::IOError("self-pipe: " + std::string(std::strerror(errno)));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    Status status =
        Status::IOError("bind/listen " + options_.host + ":" +
                        std::to_string(options_.port) + ": " +
                        std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    return status;
  }
  SetNonBlocking(listen_fd_);

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_.store(ntohs(bound.sin_port));
  }

  stopping_.store(false);
  loop_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  if (wakeup_) wakeup_->Notify();
  if (loop_.joinable()) loop_.join();
  running_.store(false);
  stopping_.store(false);
}

NetStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void NetServer::LoopMain() {
  Clock::time_point shutdown_deadline{};
  bool draining = false;
  // The nearest idle-timeout expiry, from the last maintenance walk. poll
  // sleeps until it (or the drain deadline); every other state change
  // writes the self-pipe.
  Clock::time_point next_expiry = Clock::time_point::max();

  while (true) {
    if (stopping_.load() && !draining) {
      // Begin graceful shutdown: no new connections, no new frames; cancel
      // what can be cancelled and give in-flight work the grace period to
      // stream its STREAM_ENDs and flush.
      draining = true;
      shutdown_deadline = Clock::now() + kShutdownGrace;
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lock(conn->mu);
        for (auto& [id, req] : conn->inflight) {
          req->cancelled.store(true, std::memory_order_relaxed);
        }
        conn->cv.notify_all();
      }
      // Poll once without waiting, so that the drain check runs at once.
      wakeup_->Notify();
    }

    // Build the poll set: listener, self-pipe, every connection.
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Conn>> polled;
    if (listen_fd_ >= 0 && !draining) {
      pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
      polled.push_back(nullptr);
    }
    pfds.push_back(pollfd{wakeup_->fds[0], POLLIN, 0});
    polled.push_back(nullptr);
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (!conn->goodbye && !conn->close_after_flush && !draining) {
        events |= POLLIN;
      }
      bool pending = conn->wbuf_pos < conn->wbuf.size();
      if (!pending) {
        std::lock_guard<std::mutex> lock(conn->mu);
        pending = !conn->outq.empty();
      }
      if (pending) events |= POLLOUT;
      pfds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn);
    }

    ::poll(pfds.data(), pfds.size(),
           PollTimeoutMs(draining ? std::min(next_expiry, shutdown_deadline)
                                  : next_expiry));
    wakeup_->Drain();

    // Service the fds. Collect teardowns; never mutate conns_ mid-walk.
    std::vector<std::shared_ptr<Conn>> dead;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (polled[i] == nullptr) {
        if (pfds[i].fd == listen_fd_ && (pfds[i].revents & POLLIN)) {
          AcceptPending();
        }
        continue;
      }
      const std::shared_ptr<Conn>& conn = polled[i];
      bool alive = true;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Peer hung up. Anything still buffered is undeliverable.
        alive = false;
      }
      if (alive && (pfds[i].revents & POLLIN)) {
        alive = HandleReadable(conn);
      }
      if (alive) alive = FlushWrites(conn);
      if (!alive) dead.push_back(conn);
    }
    for (const auto& conn : dead) CloseConn(conn);

    // Maintenance walk: idle timeouts, GOODBYE completion, drained closes.
    Clock::time_point now = Clock::now();
    next_expiry = Clock::time_point::max();
    std::vector<std::shared_ptr<Conn>> finished;
    for (auto& [fd, conn] : conns_) {
      size_t inflight_count;
      bool out_empty;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        inflight_count = conn->inflight.size();
        out_empty = conn->outq.empty();
      }
      bool flushed = out_empty && conn->wbuf_pos >= conn->wbuf.size();
      if (conn->goodbye && inflight_count == 0 && !conn->goodbye_queued) {
        conn->EnqueueControl(BuildFrame(MsgType::kGoodbye,
                                        kConnectionRequestId, {}));
        conn->goodbye_queued = true;
        flushed = false;
      }
      if ((conn->close_after_flush || conn->goodbye_queued) && flushed &&
          inflight_count == 0) {
        finished.push_back(conn);
        continue;
      }
      if (!draining && options_.idle_timeout_ms > 0 && inflight_count == 0 &&
          !conn->goodbye) {
        const Clock::time_point expiry =
            conn->last_activity +
            std::chrono::milliseconds(options_.idle_timeout_ms);
        if (now > expiry) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.idle_closes;
          finished.push_back(conn);
        } else {
          next_expiry = std::min(next_expiry, expiry);
        }
      }
    }
    for (const auto& conn : finished) CloseConn(conn);

    if (draining) {
      bool all_drained = true;
      for (auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->inflight.empty() || !conn->outq.empty() ||
            conn->wbuf_pos < conn->wbuf.size()) {
          all_drained = false;
          break;
        }
      }
      if (all_drained || now >= shutdown_deadline) {
        std::vector<std::shared_ptr<Conn>> rest;
        for (auto& [fd, conn] : conns_) rest.push_back(conn);
        for (const auto& conn : rest) CloseConn(conn);
        break;
      }
    }
  }
}

std::vector<uint8_t> NetServer::BuildFrame(MsgType type, uint32_t request_id,
                                           std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(type, request_id, payload, &out);
  return out;
}

void NetServer::AcceptPending() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_activity = Clock::now();

    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      std::vector<uint8_t> payload = EncodeError(ErrorPayload{
          WireCode::kResourceExhausted,
          "connection limit reached (" +
              std::to_string(options_.max_connections) + ")"});
      conn->EnqueueControl(
          BuildFrame(MsgType::kError, kConnectionRequestId, payload));
      conn->close_after_flush = true;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.refused_connections;
      }
    } else {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
    }
    conns_.emplace(fd, std::move(conn));
  }
}

bool NetServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  uint8_t buf[64 * 1024];
  while (true) {
    ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + n);
      conn->last_activity = Clock::now();
      if (n < static_cast<ssize_t>(sizeof buf)) break;
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  size_t pos = 0;
  while (pos < conn->rbuf.size()) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    FrameParse parse =
        ParseFrame({conn->rbuf.data() + pos, conn->rbuf.size() - pos},
                   kMaxPayloadBytes, &frame, &consumed, &error);
    if (parse == FrameParse::kNeedMore) break;
    if (parse == FrameParse::kBad) {
      SendFatalError(conn, WireCode::kProtocolError, error);
      // Keep what parsed before the damage; stop reading further.
      conn->rbuf.clear();
      return true;
    }
    pos += consumed;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_in;
    }
    if (!DispatchFrame(conn, std::move(frame))) break;
  }
  conn->rbuf.erase(conn->rbuf.begin(), conn->rbuf.begin() + pos);
  return true;
}

void NetServer::SendFatalError(const std::shared_ptr<Conn>& conn,
                               WireCode code, const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.protocol_errors;
  }
  std::vector<uint8_t> payload = EncodeError(ErrorPayload{code, message});
  conn->EnqueueControl(
      BuildFrame(MsgType::kError, kConnectionRequestId, payload));
  conn->close_after_flush = true;
  // Fail whatever is still running; its STREAM_END would be undeliverable.
  std::lock_guard<std::mutex> lock(conn->mu);
  for (auto& [id, req] : conn->inflight) {
    req->cancelled.store(true, std::memory_order_relaxed);
  }
  conn->cv.notify_all();
}

bool NetServer::DispatchFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
  if (!IsClientType(frame.type)) {
    SendFatalError(conn, WireCode::kProtocolError,
                   std::string("server-only message type ") +
                       std::string(MsgTypeName(frame.type)));
    return false;
  }
  if (!conn->hello_done && frame.type != MsgType::kHello) {
    SendFatalError(conn, WireCode::kProtocolError,
                   std::string(MsgTypeName(frame.type)) + " before HELLO");
    return false;
  }

  switch (frame.type) {
    case MsgType::kHello: {
      if (conn->hello_done) {
        SendFatalError(conn, WireCode::kProtocolError, "duplicate HELLO");
        return false;
      }
      Result<HelloPayload> hello = DecodeHello(frame.payload);
      if (!hello.ok()) {
        SendFatalError(conn, WireCode::kProtocolError,
                       hello.status().message());
        return false;
      }
      if (hello->version != kProtocolVersion) {
        SendFatalError(conn, WireCode::kVersionMismatch,
                       "server speaks version " +
                           std::to_string(kProtocolVersion) + ", client sent " +
                           std::to_string(hello->version));
        return false;
      }
      conn->hello_done = true;
      HelloPayload reply;
      reply.software = "lpathdb";
      reply.max_inflight = static_cast<uint32_t>(
          options_.max_inflight < 0 ? 0 : options_.max_inflight);
      std::vector<uint8_t> payload = EncodeHello(reply);
      conn->EnqueueControl(
          BuildFrame(MsgType::kHello, kConnectionRequestId, payload));
      return true;
    }

    case MsgType::kPing: {
      conn->EnqueueControl(
          BuildFrame(MsgType::kPing, frame.request_id, frame.payload));
      return true;
    }

    case MsgType::kGoodbye: {
      conn->goodbye = true;
      return false;  // stop dispatching buffered frames past the GOODBYE
    }

    case MsgType::kCancel: {
      std::lock_guard<std::mutex> lock(conn->mu);
      auto it = conn->inflight.find(frame.request_id);
      if (it != conn->inflight.end()) {
        it->second->cancelled.store(true, std::memory_order_relaxed);
        conn->cv.notify_all();
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.cancels;
      }
      // Unknown/finished id: idempotent no-op by design.
      return true;
    }

    case MsgType::kPrepare:
    case MsgType::kExecute: {
      if (frame.request_id == kConnectionRequestId) {
        SendFatalError(conn, WireCode::kProtocolError,
                       "request id 0 is reserved");
        return false;
      }
      Result<QueryPayload> query = DecodeQuery(frame.payload);
      if (!query.ok()) {
        SendFatalError(conn, WireCode::kProtocolError,
                       query.status().message());
        return false;
      }
      if (frame.type == MsgType::kPrepare) {
        HandlePrepare(conn, frame.request_id, *query);
      } else {
        StartExecute(conn, frame.request_id, std::move(*query));
      }
      return true;
    }

    case MsgType::kStreamBatch:
    case MsgType::kStreamEnd:
    case MsgType::kError:
      break;  // unreachable: filtered by IsClientType above
  }
  return true;
}

void NetServer::SendEnd(const std::shared_ptr<Conn>& conn, uint32_t request_id,
                        const Status& status, uint64_t total_rows) {
  EndPayload end;
  end.code = WireCodeFromStatus(status);
  end.message = status.message();
  end.total_rows = total_rows;
  std::vector<uint8_t> payload = EncodeEnd(end);
  conn->EnqueueControl(BuildFrame(MsgType::kStreamEnd, request_id, payload));
}

void NetServer::HandlePrepare(const std::shared_ptr<Conn>& conn,
                              uint32_t request_id, const QueryPayload& query) {
  // PREPARE compiles on the loop thread: plan compilation is small
  // compared to execution, and the prepared plan lands in the same
  // per-corpus cache a later EXECUTE (from any connection) will hit.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.prepares;
  }
  std::shared_ptr<service::QueryService> service = db_->service(query.corpus);
  if (service == nullptr) {
    SendEnd(conn, request_id,
            Status::NotFound("corpus not attached: " + query.corpus), 0);
    return;
  }
  auto plan = service->GetPlan(query.query);
  SendEnd(conn, request_id, plan.status(), 0);
}

void NetServer::StartExecute(const std::shared_ptr<Conn>& conn,
                             uint32_t request_id, QueryPayload query) {
  std::shared_ptr<ReqState> req;
  bool duplicate_id = false;
  bool refused = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight.count(request_id) != 0) {
      duplicate_id = true;  // reuse would interleave two requests' streams
    } else if (conn->inflight.size() >=
               static_cast<size_t>(std::max(options_.max_inflight, 0))) {
      refused = true;
    } else {
      req = std::make_shared<ReqState>();
      conn->inflight.emplace(request_id, req);
    }
  }
  if (duplicate_id) {
    SendFatalError(conn, WireCode::kProtocolError,
                   "request id " + std::to_string(request_id) +
                       " is already in flight");
    return;
  }
  if (refused) {
    std::vector<uint8_t> payload = EncodeError(ErrorPayload{
        WireCode::kResourceExhausted,
        "per-connection limit of " + std::to_string(options_.max_inflight) +
            " in-flight requests reached"});
    conn->EnqueueControl(BuildFrame(MsgType::kError, request_id, payload));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.refused_requests;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.executes;
  }

  // Everything a pool thread touches is captured by shared_ptr: the
  // connection, the wake pipe and the request state — never the server.
  std::shared_ptr<Wakeup> wakeup = wakeup_;
  size_t batch_rows = options_.batch_rows;
  size_t bound = std::max<size_t>(options_.stream_queue_frames, 1);

  service::RowSink sink = [conn, wakeup, req, request_id, batch_rows,
                           bound](std::span<const Hit> hits) {
    for (size_t off = 0; off < hits.size(); off += batch_rows) {
      std::span<const Hit> chunk =
          hits.subspan(off, std::min(batch_rows, hits.size() - off));
      std::vector<uint8_t> bytes =
          BuildFrame(MsgType::kStreamBatch, request_id, EncodeBatch(chunk));
      if (!conn->EnqueueData(std::move(bytes), chunk.size(), bound,
                             req->cancelled)) {
        return;  // connection closed or request cancelled: drop the rest
      }
      req->rows.fetch_add(chunk.size(), std::memory_order_relaxed);
      wakeup->Notify();
    }
  };

  service::SubmitOptions opts;
  opts.cancel = std::shared_ptr<const std::atomic<bool>>(req, &req->cancelled);
  // NOTE: captures only shared state — never `this`; the server may be
  // gone (post-Stop) by the time a straggling query resolves.
  opts.done = [conn, wakeup, req, request_id](const Status& status) {
    uint64_t rows = req->rows.load(std::memory_order_relaxed);
    EndPayload end;
    end.code = WireCodeFromStatus(status);
    end.message = status.message();
    end.total_rows = rows;
    std::vector<uint8_t> bytes =
        BuildFrame(MsgType::kStreamEnd, request_id, EncodeEnd(end));
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->inflight.erase(request_id);
      if (!conn->closed) {
        conn->outq.push_back(OutFrame{std::move(bytes), /*data=*/false});
      }
    }
    wakeup->Notify();
  };

  Result<service::PendingQuery> submitted =
      db_->Submit(query.corpus, query.query, std::move(sink), std::move(opts));
  if (!submitted.ok()) {
    // Submission itself failed (e.g. unknown corpus): the done hook never
    // fires, so terminate the request here.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->inflight.erase(request_id);
    }
    SendEnd(conn, request_id, submitted.status(), 0);
  }
}

bool NetServer::FlushWrites(const std::shared_ptr<Conn>& conn) {
  while (true) {
    if (conn->wbuf_pos >= conn->wbuf.size()) {
      conn->wbuf.clear();
      conn->wbuf_pos = 0;
      std::lock_guard<std::mutex> lock(conn->mu);
      bool woke_producer = false;
      size_t popped = 0;
      uint64_t rows = 0;
      while (!conn->outq.empty() && conn->wbuf.size() < 256 * 1024) {
        OutFrame& front = conn->outq.front();
        conn->wbuf.insert(conn->wbuf.end(), front.bytes.begin(),
                          front.bytes.end());
        if (front.data) {
          --conn->data_frames;
          woke_producer = true;
        }
        rows += front.rows;
        conn->outq.pop_front();
        ++popped;
      }
      if (popped != 0) {
        std::lock_guard<std::mutex> slock(stats_mu_);
        stats_.frames_out += popped;
        stats_.rows_streamed += rows;
      }
      if (woke_producer) conn->cv.notify_all();
      if (conn->wbuf.empty()) return true;
    }
    ssize_t n = ::write(conn->fd, conn->wbuf.data() + conn->wbuf_pos,
                        conn->wbuf.size() - conn->wbuf_pos);
    if (n > 0) {
      conn->wbuf_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

void NetServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->outq.clear();
    conn->data_frames = 0;
    for (auto& [id, req] : conn->inflight) {
      req->cancelled.store(true, std::memory_order_relaxed);
    }
    conn->cv.notify_all();
  }
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->fd = -1;
  }
}

}  // namespace net
}  // namespace lpath
