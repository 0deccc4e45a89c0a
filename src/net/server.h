// The network front end: a poll()-driven TCP server speaking the LPathDB
// wire protocol (net/protocol.h, spec in docs/PROTOCOL.md) in front of a
// db::Database.
//
// Threading model — one loop, many producers:
//   - A single event-loop thread owns every file descriptor: it accepts,
//     reads, parses frames, dispatches requests and performs all writes.
//     No other thread ever touches a socket.
//   - Query execution happens on the database's worker pools via
//     db::Database::Submit. Pool threads never write to sockets; they
//     encode STREAM_BATCH / STREAM_END frames into the connection's
//     mutex-guarded outbound queue and wake the loop through a self-pipe.
//   - Backpressure: the outbound queue bounds *data* frames
//     (NetOptions::stream_queue_frames). A sink that would overflow it
//     blocks on a condition variable — suspending the producing worker —
//     until the loop drains the socket, the request is cancelled, or the
//     connection dies. Control frames (STREAM_END, ERROR, PING) always
//     enqueue, so a query's completion can never deadlock behind its own
//     unsent rows.
//
// Lifetime: pool-thread callbacks capture shared_ptrs to the connection
// state and the wakeup pipe, never the server, so a connection force-closed
// (or a server torn down after Stop()) cannot leave a worker touching
// freed state. The Database must outlive the server.

#ifndef LPATHDB_NET_SERVER_H_
#define LPATHDB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "net/protocol.h"

namespace lpath {
namespace net {

struct NetOptions {
  /// Listen address. The default binds loopback only — exposing a corpus
  /// on a routable interface is an explicit decision.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Admission control: connections over this limit are greeted with a
  /// connection-scoped ERROR (kResourceExhausted) and closed.
  int max_connections = 256;
  /// Admission control: EXECUTEs in flight per connection. Excess ones are
  /// refused with a request-scoped ERROR; the connection survives. Also
  /// advertised to the client in the HELLO reply.
  int max_inflight = 32;
  /// Outbound STREAM_BATCH frames buffered per connection before the
  /// producing worker is suspended (the backpressure knob).
  size_t stream_queue_frames = 16;
  /// Result rows per STREAM_BATCH frame: a sink delivery larger than this
  /// is split across frames.
  size_t batch_rows = 4096;
  /// Connections idle (no readable frame progress) longer than this are
  /// closed. 0 disables the timeout.
  int64_t idle_timeout_ms = 0;
  /// poll(2) tick, which bounds timeout detection latency.
  int64_t poll_interval_ms = 100;
};

/// Monitoring counters, cumulative since Start().
struct NetStats {
  uint64_t accepted = 0;           ///< connections accepted
  uint64_t refused_connections = 0;///< closed by max_connections admission
  uint64_t frames_in = 0;          ///< well-formed frames parsed
  uint64_t frames_out = 0;         ///< frames written to sockets
  uint64_t protocol_errors = 0;    ///< malformed frames / illegal sequences
  uint64_t refused_requests = 0;   ///< EXECUTEs refused by max_inflight
  uint64_t executes = 0;           ///< EXECUTE requests admitted
  uint64_t prepares = 0;           ///< PREPARE requests served
  uint64_t cancels = 0;            ///< CANCEL frames honored
  uint64_t rows_streamed = 0;      ///< rows of STREAM_BATCH frames out
  uint64_t idle_closes = 0;        ///< connections closed by idle timeout
};

class NetServer {
 public:
  /// `db` must outlive the server.
  NetServer(db::Database* db, NetOptions options = {});
  ~NetServer();  ///< implies Stop()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and starts the event-loop thread. IOError on bind
  /// failure; InvalidArgument if already started.
  Status Start();

  /// The bound TCP port (resolves port 0), or 0 before Start().
  uint16_t port() const { return port_; }

  /// Graceful shutdown: stops accepting, stops reading, cancels what can
  /// be cancelled, drains in-flight queries and outbound buffers for up to
  /// a fixed grace period (5 s), then force-closes stragglers. Idempotent.
  void Stop();

  NetStats stats() const;

 private:
  struct Conn;
  struct Wakeup;

  void LoopMain();
  void AcceptPending();
  /// Encodes one frame (header + checksum + payload) into a byte vector.
  static std::vector<uint8_t> BuildFrame(MsgType type, uint32_t request_id,
                                         std::span<const uint8_t> payload);
  /// Queues a connection-scoped ERROR, fails the connection's in-flight
  /// requests and marks it close-after-flush.
  void SendFatalError(const std::shared_ptr<Conn>& conn, WireCode code,
                      const std::string& message);
  /// Queues a request-scoped STREAM_END carrying `status`.
  void SendEnd(const std::shared_ptr<Conn>& conn, uint32_t request_id,
               const Status& status, uint64_t total_rows);
  /// Reads, parses and dispatches what it can; returns false if the
  /// connection must be torn down.
  bool HandleReadable(const std::shared_ptr<Conn>& conn);
  bool DispatchFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  void StartExecute(const std::shared_ptr<Conn>& conn, uint32_t request_id,
                    QueryPayload query);
  void HandlePrepare(const std::shared_ptr<Conn>& conn, uint32_t request_id,
                     const QueryPayload& query);
  /// Flushes the outbound queue to the socket; returns false on a fatal
  /// write error.
  bool FlushWrites(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);

  db::Database* const db_;
  const NetOptions options_;

  std::atomic<uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  std::shared_ptr<Wakeup> wakeup_;
  std::thread loop_;

  /// Loop-thread-only connection table (fd → state).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  mutable std::mutex stats_mu_;
  NetStats stats_;
};

}  // namespace net
}  // namespace lpath

#endif  // LPATHDB_NET_SERVER_H_
