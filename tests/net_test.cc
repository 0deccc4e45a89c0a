// End-to-end tests of the network front end over real loopback sockets:
// handshake and version negotiation, a 150-query fuzz differential proving
// the wire result bit-identical to the in-process db::Database::Query
// result, pipelined multiplexing, cancellation, a malformed-frame battery,
// admission control, idle timeouts, graceful shutdown and backpressure.
// This suite runs under ThreadSanitizer in CI; the socketless framing unit
// suite is net_frame_test.cc.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/database.h"
#include "gen/generator.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace lpath {
namespace {

using net::AppendFrame;
using net::EncodeEnd;
using net::EncodeHello;
using net::EncodeQuery;
using net::Frame;
using net::FrameParse;
using net::MsgType;
using net::WireCode;
using testing::QueryGen;

/// A raw, frame-level connection for protocol-abuse tests: writes
/// arbitrary bytes, reads whole frames, with a receive timeout so a
/// misbehaving server fails the test instead of hanging it.
class RawConn {
 public:
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  bool Write(std::span<const uint8_t> bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool WriteFrame(MsgType type, uint32_t request_id,
                  std::span<const uint8_t> payload) {
    std::vector<uint8_t> frame;
    AppendFrame(type, request_id, payload, &frame);
    return Write(frame);
  }

  /// Reads until one whole frame parses; false on EOF/timeout/bad bytes.
  bool ReadFrame(Frame* out) {
    while (true) {
      size_t consumed = 0;
      std::string error;
      FrameParse parse =
          net::ParseFrame(rbuf_, 64u << 20, out, &consumed, &error);
      if (parse == FrameParse::kFrame) {
        rbuf_.erase(rbuf_.begin(), rbuf_.begin() + consumed);
        return true;
      }
      if (parse == FrameParse::kBad) return false;
      uint8_t buf[4096];
      ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) return false;
      rbuf_.insert(rbuf_.end(), buf, buf + n);
    }
  }

  /// True once the server closes the connection (EOF), draining anything
  /// still buffered.
  bool AwaitEof() {
    uint8_t buf[4096];
    while (true) {
      ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout/error: not an EOF
    }
  }

 private:
  int fd_ = -1;
  std::vector<uint8_t> rbuf_;
};

/// One database (fuzz corpus "fuzz" + WSJ-profile corpus "wsj") behind one
/// server on an ephemeral loopback port.
class NetTest : public ::testing::Test {
 protected:
  void StartServer(net::NetOptions options = {}) {
    db_ = std::make_unique<db::Database>();
    ASSERT_TRUE(
        db_->OpenCorpus("fuzz", testing::RandomCorpus(4242, 24, 30)).ok());
    Result<Corpus> wsj = gen::GenerateWsj(40);
    ASSERT_TRUE(wsj.ok());
    ASSERT_TRUE(db_->OpenCorpus("wsj", std::move(*wsj)).ok());
    server_ = std::make_unique<net::NetServer>(db_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  net::Client Connected() {
    net::Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  std::unique_ptr<db::Database> db_;
  std::unique_ptr<net::NetServer> server_;
};

TEST_F(NetTest, HandshakeAndPing) {
  StartServer();
  net::Client client = Connected();
  EXPECT_EQ(client.server_software(), "lpathdb");
  EXPECT_EQ(client.max_inflight(), 32u);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(NetTest, VersionMismatchIsRefused) {
  StartServer();
  RawConn raw;
  ASSERT_TRUE(raw.Connect(server_->port()));
  net::HelloPayload hello;
  hello.version = 99;
  hello.software = "from-the-future";
  ASSERT_TRUE(raw.WriteFrame(MsgType::kHello, 0, EncodeHello(hello)));
  Frame reply;
  ASSERT_TRUE(raw.ReadFrame(&reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  auto error = net::DecodeError(reply.payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireCode::kVersionMismatch);
  EXPECT_TRUE(raw.AwaitEof());
}

// The acceptance differential: 150 generated queries through the wire
// client must match the direct in-process result byte for byte, and every
// streamed batch must arrive internally sorted and disjoint from the rest.
TEST_F(NetTest, FuzzDifferential150QueriesMatchDirectExecution) {
  StartServer();
  net::Client client = Connected();
  Rng rng(20260808);
  QueryGen gen(&rng);
  int nonempty = 0;
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    const std::string corpus = i % 3 == 0 ? "wsj" : "fuzz";
    Result<QueryResult> direct = db_->Query(corpus, q);

    std::vector<std::vector<Hit>> batches;
    Status streamed = client.QueryStream(
        corpus, q, [&batches](std::span<const Hit> rows) {
          batches.emplace_back(rows.begin(), rows.end());
        });

    if (!direct.ok()) {
      EXPECT_FALSE(streamed.ok()) << q;
      EXPECT_EQ(streamed.code(), direct.status().code()) << q;
      continue;
    }
    ASSERT_TRUE(streamed.ok()) << q << ": " << streamed.ToString();

    std::vector<Hit> reassembled;
    for (const std::vector<Hit>& batch : batches) {
      ASSERT_TRUE(std::is_sorted(batch.begin(), batch.end())) << q;
      reassembled.insert(reassembled.end(), batch.begin(), batch.end());
    }
    size_t streamed_rows = reassembled.size();
    std::sort(reassembled.begin(), reassembled.end());
    ASSERT_EQ(std::adjacent_find(reassembled.begin(), reassembled.end()),
              reassembled.end())
        << q << ": batches overlapped";
    EXPECT_EQ(reassembled, direct->hits) << q;
    EXPECT_EQ(streamed_rows, direct->hits.size()) << q;
    if (!direct->hits.empty()) ++nonempty;
  }
  // The generator must actually exercise the stream path.
  EXPECT_GT(nonempty, 20);
}

TEST_F(NetTest, PipelinedQueriesMultiplexOneConnection) {
  StartServer();
  net::Client client = Connected();
  Rng rng(7);
  QueryGen gen(&rng);
  std::vector<std::string> queries = {"//VP", "//NP//N", "//ZZZUNK"};
  for (int i = 0; i < 17; ++i) queries.push_back(gen.Query());

  std::vector<Result<QueryResult>> piped = client.Pipeline("fuzz", queries);
  ASSERT_EQ(piped.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> direct = db_->Query("fuzz", queries[i]);
    ASSERT_EQ(piped[i].ok(), direct.ok()) << queries[i];
    if (direct.ok()) {
      QueryResult got = std::move(*piped[i]);
      got.Normalize();
      EXPECT_EQ(got.hits, direct->hits) << queries[i];
    }
  }
}

TEST_F(NetTest, PrepareWarmsThePlanCacheAndReportsErrors) {
  StartServer();
  net::Client client = Connected();
  EXPECT_TRUE(client.Prepare("fuzz", "//VP{/V-->N}").ok());
  // A prepared query executes as usual (now through the warmed cache).
  auto result = client.Query("fuzz", "//VP{/V-->N}");
  ASSERT_TRUE(result.ok());

  Status parse_error = client.Prepare("fuzz", "not a query ((");
  EXPECT_FALSE(parse_error.ok());
  EXPECT_TRUE(parse_error.IsInvalidArgument()) << parse_error.ToString();

  Status unknown = client.Prepare("nope", "//VP");
  EXPECT_TRUE(unknown.IsNotFound()) << unknown.ToString();

  // The connection survived all three outcomes.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, ExecuteOnUnknownCorpusFailsCleanly) {
  StartServer();
  net::Client client = Connected();
  auto result = client.Query("nope", "//VP");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, DeeplyNestedQueryIsRefusedAndTheServerKeepsServing) {
  StartServer();
  // ~100 KB: far inside the payload limit, far past the parser's nesting
  // limit. It used to overflow the parser's stack and take the server down.
  std::string deep = "//S";
  for (int i = 0; i < 20000; ++i) deep += "[//NP";
  deep.append(20000, ']');

  net::Client client = Connected();
  auto refused = client.Query("wsj", deep);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
  Status prepared = client.Prepare("wsj", deep);
  EXPECT_TRUE(prepared.IsInvalidArgument()) << prepared.ToString();

  // The same connection and a fresh one both still get answers.
  auto after = client.Query("wsj", "//VP[//NP]");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->count(), 0u);
  net::Client fresh = Connected();
  auto fresh_result = fresh.Query("wsj", "//VP[//NP]");
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.status().ToString();
  EXPECT_EQ(fresh_result.value(), after.value());
}

TEST_F(NetTest, OutOfRangeNumberIsRefusedAndTheServerKeepsServing) {
  StartServer();
  // Past INT64_MAX. Its number scan used to throw: on PREPARE that aborted
  // the server, and an EXECUTE never got its STREAM_END.
  const std::string huge = "//NP[99999999999999999999]";
  net::Client client = Connected();
  Status prepared = client.Prepare("wsj", huge);
  EXPECT_TRUE(prepared.IsInvalidArgument()) << prepared.ToString();
  auto refused = client.Query("wsj", huge);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();

  auto after = client.Query("wsj", "//VP[//NP]");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(after->count(), 0u);
}

TEST_F(NetTest, CancelIsBestEffortAndLeavesTheConnectionUsable) {
  StartServer();
  net::Client client = Connected();
  for (int i = 0; i < 8; ++i) {
    auto id = client.SendExecute("wsj", "//_[//_[//_]]");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(client.SendCancel(*id).ok());
    std::vector<Hit> rows;
    Status status = client.ReadResponse(*id, &rows);
    // The race is inherent: the cancel may land before, during or after
    // the query. Both terminal outcomes are legal; anything else is not.
    EXPECT_TRUE(status.ok() || status.IsCancelled()) << status.ToString();
  }
  auto after = client.Query("fuzz", "//VP");
  Result<QueryResult> direct = db_->Query("fuzz", "//VP");
  ASSERT_TRUE(after.ok() && direct.ok());
  QueryResult got = std::move(*after);
  got.Normalize();
  EXPECT_EQ(got.hits, direct->hits);
}

// Every corrupted frame must be answered with a clean connection-scoped
// ERROR and a close — and the server must keep serving new connections
// afterwards.
TEST_F(NetTest, MalformedFrameBattery) {
  StartServer();

  std::vector<uint8_t> valid;
  AppendFrame(MsgType::kExecute, 3, EncodeQuery({"fuzz", "//VP"}), &valid);

  enum class Abuse { kBadMagic, kBadType, kReserved, kChecksum, kOversized,
                     kServerOnlyType, kBeforeHello, kZeroRequestId };
  const Abuse kAbuses[] = {Abuse::kBadMagic,   Abuse::kBadType,
                           Abuse::kReserved,   Abuse::kChecksum,
                           Abuse::kOversized,  Abuse::kServerOnlyType,
                           Abuse::kBeforeHello, Abuse::kZeroRequestId};
  for (Abuse abuse : kAbuses) {
    SCOPED_TRACE(static_cast<int>(abuse));
    RawConn raw;
    ASSERT_TRUE(raw.Connect(server_->port()));
    if (abuse != Abuse::kBeforeHello) {
      ASSERT_TRUE(
          raw.WriteFrame(MsgType::kHello, 0, EncodeHello({})));
      Frame hello_reply;
      ASSERT_TRUE(raw.ReadFrame(&hello_reply));
      ASSERT_EQ(hello_reply.type, MsgType::kHello);
    }

    std::vector<uint8_t> bytes = valid;
    switch (abuse) {
      case Abuse::kBadMagic:
        bytes[1] = 'X';
        break;
      case Abuse::kBadType:
        bytes[4] = 111;
        break;
      case Abuse::kReserved:
        bytes[7] = 9;
        break;
      case Abuse::kChecksum:
        bytes[20] ^= 0x10;
        break;
      case Abuse::kOversized: {
        // A bare header declaring an absurd payload length.
        bytes.assign(valid.begin(), valid.begin() + net::kFrameHeaderBytes);
        bytes[12] = 0xFF;
        bytes[13] = 0xFF;
        bytes[14] = 0xFF;
        bytes[15] = 0x7F;
        break;
      }
      case Abuse::kServerOnlyType:
        bytes.clear();
        AppendFrame(MsgType::kStreamEnd, 3,
                    EncodeEnd({WireCode::kOk, "", 0}), &bytes);
        break;
      case Abuse::kBeforeHello:
      case Abuse::kZeroRequestId:
        bytes.clear();
        AppendFrame(MsgType::kExecute,
                    abuse == Abuse::kZeroRequestId ? 0 : 3,
                    EncodeQuery({"fuzz", "//VP"}), &bytes);
        break;
    }
    ASSERT_TRUE(raw.Write(bytes));

    Frame reply;
    ASSERT_TRUE(raw.ReadFrame(&reply));
    EXPECT_EQ(reply.type, MsgType::kError);
    EXPECT_EQ(reply.request_id, net::kConnectionRequestId);
    auto error = net::DecodeError(reply.payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, WireCode::kProtocolError);
    EXPECT_TRUE(raw.AwaitEof());
  }

  // The server is still alive and correct after the whole battery.
  net::Client client = Connected();
  auto result = client.Query("fuzz", "//VP");
  Result<QueryResult> direct = db_->Query("fuzz", "//VP");
  ASSERT_TRUE(result.ok() && direct.ok());
  QueryResult got = std::move(*result);
  got.Normalize();
  EXPECT_EQ(got.hits, direct->hits);
}

TEST_F(NetTest, MaxInflightZeroRefusesEveryExecute) {
  net::NetOptions options;
  options.max_inflight = 0;
  StartServer(options);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_EQ(client.max_inflight(), 0u);
  auto result = client.Query("fuzz", "//VP");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  // Request-scoped refusal: the connection itself stays open.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, MaxConnectionsRefusesTheSecondClient) {
  net::NetOptions options;
  options.max_connections = 1;
  StartServer(options);
  net::Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(first.Ping().ok());

  net::Client second;
  Status refused = second.Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(refused.ok());
  // The refusal arrives as a connection-scoped ERROR when the write/read
  // race allows; a reset (IOError) is also a refusal.
  EXPECT_TRUE(refused.IsResourceExhausted() || refused.IsIOError())
      << refused.ToString();

  // The first connection is unaffected.
  EXPECT_TRUE(first.Ping().ok());
}

TEST_F(NetTest, IdleConnectionsAreReaped) {
  // The timeout must outlast the gap between the handshake and the first
  // ping even on a loaded host, or the server reaps the connection first.
  net::NetOptions options;
  options.idle_timeout_ms = 2000;
  options.poll_interval_ms = 10;
  StartServer(options);
  net::Client client = Connected();
  ASSERT_TRUE(client.Ping().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server_->stats().idle_closes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server_->stats().idle_closes, 1u);
  EXPECT_FALSE(client.Ping().ok());
}

TEST_F(NetTest, GracefulShutdownDrainsInFlightQueries) {
  StartServer();
  net::Client client = Connected();
  std::vector<uint32_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = client.SendExecute("wsj", "//_[//_]");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Frames dispatch in order, so once the *last* request has terminated,
  // every earlier one has been admitted — Stop() below is then draining
  // genuinely in-flight queries, not dropping unread ones.
  std::vector<Hit> last_rows;
  Status last = client.ReadResponse(ids.back(), &last_rows);
  EXPECT_TRUE(last.ok()) << last.ToString();
  ids.pop_back();
  // Stop() drains: every admitted query gets its terminal STREAM_END
  // (completed or cancelled by the shutdown) before the socket closes.
  server_->Stop();
  for (uint32_t id : ids) {
    std::vector<Hit> rows;
    Status status = client.ReadResponse(id, &rows);
    EXPECT_TRUE(status.ok() || status.IsCancelled()) << status.ToString();
  }
}

// A one-frame queue with one-row batches forces the producing worker to
// suspend on every row; the stream must still come out complete and exact.
TEST_F(NetTest, TinyStreamQueueBackpressuresWithoutCorruption) {
  net::NetOptions options;
  options.stream_queue_frames = 1;
  options.batch_rows = 1;
  StartServer(options);
  net::Client client = Connected();
  auto result = client.Query("wsj", "//_");
  Result<QueryResult> direct = db_->Query("wsj", "//_");
  ASSERT_TRUE(result.ok() && direct.ok());
  ASSERT_GT(direct->hits.size(), 500u);  // the stream was actually long
  QueryResult got = std::move(*result);
  got.Normalize();
  EXPECT_EQ(got.hits, direct->hits);
}

}  // namespace
}  // namespace lpath
