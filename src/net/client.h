// A blocking client for the LPathDB wire protocol (net/protocol.h, spec
// in docs/PROTOCOL.md): connect + HELLO handshake, synchronous queries,
// streaming, and explicit pipelining for throughput.
//
// Not thread-safe: one Client is one connection driven by one thread.
// Open a Client per thread for concurrent load (that is what bench_net
// does).

#ifndef LPATHDB_NET_CLIENT_H_
#define LPATHDB_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "lpath/engine.h"
#include "net/protocol.h"

namespace lpath {
namespace net {

class Client {
 public:
  Client() = default;
  ~Client();  ///< closes without GOODBYE; call Close() for an orderly exit

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;  ///< closes any open socket

  /// Connects to host:port and performs the HELLO handshake. The server's
  /// advertised per-connection EXECUTE limit lands in max_inflight().
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  uint32_t max_inflight() const { return max_inflight_; }
  const std::string& server_software() const { return server_software_; }

  /// EXECUTE, collecting every streamed batch; rows arrive batch-sorted
  /// and are returned in stream order (already DISTINCT server-side).
  Result<QueryResult> Query(const std::string& corpus,
                            const std::string& query);

  /// Receives one STREAM_BATCH's rows.
  using BatchSink = std::function<void(std::span<const Hit>)>;

  /// EXECUTE, invoking `sink` per STREAM_BATCH as frames arrive.
  Status QueryStream(const std::string& corpus, const std::string& query,
                     const BatchSink& sink);

  /// Pipelines all `queries` on this one connection (writes every EXECUTE
  /// up front, then reads the multiplexed responses) and returns results
  /// positionally aligned with `queries`.
  std::vector<Result<QueryResult>> Pipeline(
      const std::string& corpus, const std::vector<std::string>& queries);

  /// PREPARE: compile `query` into the server's plan cache for `corpus`.
  Status Prepare(const std::string& corpus, const std::string& query);

  /// PING with an arbitrary payload; OK iff the echo matches.
  Status Ping();

  /// Orderly shutdown: GOODBYE, wait for the server's GOODBYE, close.
  Status Close();

  // --- Low-level request plumbing (tests and benchmarks) -------------------

  /// Writes one EXECUTE frame and returns its request id without reading
  /// anything back.
  Result<uint32_t> SendExecute(const std::string& corpus,
                               const std::string& query);

  /// Writes a CANCEL for `request_id` (fire-and-forget).
  Status SendCancel(uint32_t request_id);

  /// One fully decoded response for `request_id`: each batch streamed
  /// before its STREAM_END (appended to `*rows` if non-null, and handed to
  /// `on_batch` if set) and the terminal status. Responses for *other*
  /// request ids encountered along the way are buffered batch by batch and
  /// served to their own ReadResponse call later — this is what makes
  /// Pipeline() work. Every request-reading method goes through here.
  Status ReadResponse(uint32_t request_id, std::vector<Hit>* rows,
                      const BatchSink& on_batch = {});

 private:
  Status WriteAll(std::span<const uint8_t> bytes);
  /// Reads until one whole frame is available; kBad framing or EOF closes.
  Result<Frame> ReadFrame();
  Status Handshake();

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  uint32_t max_inflight_ = 0;
  std::string server_software_;
  std::vector<uint8_t> rbuf_;

  /// Fully terminated responses read while looking for a different id.
  struct BufferedResponse {
    std::vector<std::vector<Hit>> batches;
    Status status;
    bool done = false;
  };
  std::unordered_map<uint32_t, BufferedResponse> pending_;
};

}  // namespace net
}  // namespace lpath

#endif  // LPATHDB_NET_CLIENT_H_
