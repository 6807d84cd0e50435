// End-to-end tests for the CQMS network daemon: a real CqmsServer on a
// loopback socket driven through the CqmsClient library, checked against
// the same Cqms instance called in process (the oracle), plus protocol
// hardening (fuzzed frames, wrong versions), resource limits (idle
// timeout, max connections, oversized frames) and graceful shutdown with
// durable state.

#include "server/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "netclient/client.h"
#include "storage/record_builder.h"
#include "wire_corpus.h"
#include "workload/synthetic.h"

namespace cqms::server {
namespace {

using netclient::ClientOptions;
using netclient::CqmsClient;

/// A Cqms populated with the lake schema and a small deterministic
/// query log, served by a CqmsServer on an ephemeral loopback port.
struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {}, size_t log_queries = 24,
                         bool start = true) {
    Status s = workload::PopulateLakeDatabase(cqms.database(), 60);
    EXPECT_TRUE(s.ok()) << s;
    cqms.RegisterUser("alice", {"lab0"});
    cqms.RegisterUser("bob", {"lab0"});
    SeedLog(log_queries);
    server = std::make_unique<CqmsServer>(&cqms, options);
    if (start) {
      Status st = server->Start();
      EXPECT_TRUE(st.ok()) << st;
    }
  }

  void SeedLog(size_t n) {
    const char* templates[] = {
        "SELECT * FROM Sensors WHERE sensor_id < %zu",
        "SELECT lake, temp FROM WaterTemp WHERE temp > %zu",
        "SELECT lake, salinity FROM WaterSalinity WHERE salinity < %zu",
        "SELECT species FROM Species WHERE count_obs > %zu",
        "SELECT city, pop FROM CityLocations WHERE pop > %zu",
        "SELECT sensor_id, value FROM Readings WHERE ts < %zu",
    };
    for (size_t i = 0; i < n; ++i) {
      char sql[160];
      std::snprintf(sql, sizeof(sql), templates[i % 6], i + 1);
      const char* user = (i % 2 == 0) ? "alice" : "bob";
      profiler::ProfiledExecution exec = cqms.Execute(user, sql);
      EXPECT_TRUE(exec.stats.succeeded) << sql << ": " << exec.stats.error;
    }
    Status s = cqms.Annotate(0, "alice", "the canonical sensor probe");
    EXPECT_TRUE(s.ok()) << s;
  }

  std::unique_ptr<CqmsClient> Client() {
    auto r = CqmsClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? std::move(*r) : nullptr;
  }

  Cqms cqms;
  std::unique_ptr<CqmsServer> server;
};

/// Raw TCP connection for feeding the server hostile bytes.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Write(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // server already disconnected us: fine
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until the peer closes; returns everything received.
  std::string DrainUntilClose() {
    std::string out;
    char buf[4096];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string FrameHello(uint32_t version) {
  BinaryWriter w;
  net::BeginRequest(&w, 1, net::Op::kHello);
  net::HelloRequest hello;
  hello.protocol_version = version;
  net::EncodeHelloRequest(&w, hello);
  std::string out;
  AppendFrame(&out, w.data());
  return out;
}

/// A well-formed request body of type M: every optional present, edge
/// values throughout (tests/wire_corpus.h).
template <typename M>
std::string WellFormedBody() {
  M m{};
  if constexpr (!std::is_same_v<M, net::Empty>) {
    m = wiretest::Filled<M>(wiretest::Filler::Mode::kEdges, /*seed=*/1);
  }
  BinaryWriter w;
  net::EncodeBody(&w, m);
  return w.Take();
}

/// One well-formed request body for each op of the table.
std::string RequestBody(net::Op op) {
  switch (op) {
#define CQMS_TEST_REQUEST_BODY(name, code, request, ...) \
  case net::Op::k##name:                                \
    return WellFormedBody<net::request>();
    CQMS_NET_OPS(CQMS_TEST_REQUEST_BODY)
#undef CQMS_TEST_REQUEST_BODY
  }
  return "";
}

std::string RequestPayload(uint64_t request_id, net::Op op,
                           const std::string& body) {
  BinaryWriter w;
  net::BeginRequest(&w, request_id, op);
  return w.Take() + body;
}

// --- oracle equality -------------------------------------------------------

TEST(ServerTest, SearchMatchesInProcessOracle) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->server_hello().store_size, 24u);

  // A spread of specs across predicate types, each compared field by
  // field against the same Cqms instance called directly (the read-view
  // pipeline makes the in-process call safe while the server runs).
  std::vector<net::SearchSpec> specs;
  {
    net::SearchSpec spec;
    spec.keyword = net::KeywordSpec{"sensors", true};
    specs.push_back(spec);
  }
  {
    net::SearchSpec spec;
    spec.substring = "WaterTemp";
    spec.limit = 5;
    specs.push_back(spec);
  }
  {
    net::SearchSpec spec;
    net::FeatureSpec feature;
    feature.tables = {"Species"};
    feature.succeeded_only = true;
    spec.feature = feature;
    spec.order = metaquery::ResultOrder::kLogOrder;
    specs.push_back(spec);
  }
  {
    net::SearchSpec spec;
    spec.similarity = net::SimilaritySpec{};
    spec.similarity->probe_text = "SELECT * FROM Sensors WHERE sensor_id < 9";
    spec.limit = 10;
    specs.push_back(spec);
  }

  for (const net::SearchSpec& spec : specs) {
    auto wire = client->Search("alice", spec);
    ASSERT_TRUE(wire.ok()) << wire.status();

    storage::QueryRecord probe;
    const storage::QueryRecord* probe_ptr = nullptr;
    if (spec.similarity.has_value()) {
      probe = storage::BuildRecordFromText(spec.similarity->probe_text, "alice",
                                           0, storage::SignatureMode::kTransient);
      probe_ptr = &probe;
    }
    metaquery::MetaQueryResponse oracle =
        fx.cqms.Search("alice", net::ToMetaQueryRequest(spec, probe_ptr));

    ASSERT_EQ(wire->matches.size(), oracle.matches.size());
    for (size_t i = 0; i < oracle.matches.size(); ++i) {
      EXPECT_EQ(wire->matches[i].id, oracle.matches[i].id);
      EXPECT_EQ(wire->matches[i].similarity, oracle.matches[i].similarity);
      EXPECT_EQ(wire->matches[i].score, oracle.matches[i].score);
    }
    EXPECT_EQ(wire->generator, static_cast<uint8_t>(oracle.generator));
    EXPECT_EQ(wire->candidates_considered, oracle.candidates_considered);
  }

  // Browse and ShowSession render identically over the wire.
  auto browse = client->Browse("alice");
  ASSERT_TRUE(browse.ok()) << browse.status();
  EXPECT_EQ(*browse, fx.cqms.BrowseLog("alice"));
}

TEST(ServerTest, WriteOpsLandInTheStore) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  net::AppendRequest append;
  append.user = "alice";
  append.sql = "SELECT * FROM Species WHERE count_obs > 3";
  auto appended = client->Append(append);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_TRUE(appended->succeeded) << appended->error;
  ASSERT_GE(appended->id, 0);

  EXPECT_TRUE(client->Annotate(appended->id, "alice", "wire note").ok());
  EXPECT_TRUE(client
                  ->SetVisibility("alice", appended->id,
                                  storage::Visibility::kPrivate)
                  .ok());
  // bob cannot see alice's now-private query.
  Status bobs = client->SetVisibility("bob", appended->id,
                                      storage::Visibility::kPublic);
  EXPECT_FALSE(bobs.ok());

  // Log-only append, then a rewrite of its text.
  append.sql = "SELECT lake FROM WaterTemp WHERE temp > 11";
  append.execute = false;
  auto logged = client->Append(append);
  ASSERT_TRUE(logged.ok()) << logged.status();
  EXPECT_TRUE(
      client->Rewrite(logged->id, "SELECT lake FROM WaterTemp WHERE temp > 12")
          .ok());

  EXPECT_TRUE(client->RegisterUser("carol", {"lab1"}).ok());
  EXPECT_TRUE(client->Maintain(/*run_mining=*/true).ok());

  auto recommend =
      client->Recommend("alice", "SELECT * FROM Sensors WHERE sensor_id < 2");
  ASSERT_TRUE(recommend.ok()) << recommend.status();
  ASSERT_FALSE(recommend->items.empty());
  EXPECT_NE(recommend->items[0].text, "");

  // Everything above is visible to a later reader through the store.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->store_size, 26u);
  EXPECT_GE(stats->per_op.size(), 5u);

  // Checkpoint without durability is a typed error, not a crash.
  Status ck = client->Checkpoint();
  EXPECT_EQ(ck.code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, OverflowingAppendFailsAndTheConnectionLives) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  // INT64_MIN / -1 once trapped in the writer and killed the daemon.
  net::AppendRequest append;
  append.user = "alice";
  append.sql = "SELECT (-9223372036854775807 - 1) / -1";
  auto appended = client->Append(append);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_FALSE(appended->succeeded);
  EXPECT_NE(appended->error.find("integer overflow"), std::string::npos)
      << appended->error;

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->store_size, 25u);
}

// --- pipelining ------------------------------------------------------------

TEST(ServerTest, PipelinedBatchCompletesOutOfOrderWaits) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  // Interleave reads and writes in one batch, flush once, then wait in
  // reverse order — the completion map must park early arrivals.
  std::vector<uint64_t> search_ids;
  std::vector<uint64_t> append_ids;
  for (int i = 0; i < 8; ++i) {
    net::SearchSpec spec;
    spec.keyword = net::KeywordSpec{"sensors", true};
    search_ids.push_back(client->SendSearch("alice", spec));
    net::AppendRequest append;
    append.user = "bob";
    append.sql = "SELECT * FROM Sensors WHERE sensor_id < " +
                 std::to_string(100 + i);
    append_ids.push_back(client->SendAppend(append));
  }
  ASSERT_TRUE(client->Flush().ok());

  for (int i = 7; i >= 0; --i) {
    auto append = client->WaitAppend(append_ids[i]);
    ASSERT_TRUE(append.ok()) << append.status();
    EXPECT_TRUE(append->succeeded);
    auto search = client->WaitSearch(search_ids[i]);
    ASSERT_TRUE(search.ok()) << search.status();
    EXPECT_FALSE(search->matches.empty());
  }

  // All 8 appends landed exactly once.
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->store_size, 24u + 8u);
}

// --- protocol hardening ----------------------------------------------------

TEST(ServerTest, WrongProtocolVersionGetsTypedErrorThenDisconnect) {
  ServerFixture fx;
  RawConn conn(fx.server->port());
  ASSERT_TRUE(conn.connected());
  conn.Write(FrameHello(/*version=*/99));
  std::string raw = conn.DrainUntilClose();  // close proves the disconnect

  FrameDecoder decoder(kDefaultMaxFrameBytes);
  decoder.Feed(raw.data(), raw.size());
  std::string payload;
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  net::ResponseEnvelope env;
  ASSERT_TRUE(net::DecodeResponseEnvelope(payload, &env));
  EXPECT_EQ(env.code, StatusCode::kUnsupported);
  EXPECT_NE(env.message.find("version"), std::string::npos);
}

TEST(ServerTest, OpBeforeHandshakeIsRejected) {
  ServerFixture fx;
  RawConn conn(fx.server->port());
  ASSERT_TRUE(conn.connected());
  BinaryWriter w;
  net::BeginRequest(&w, 7, net::Op::kStats);
  std::string frame;
  AppendFrame(&frame, w.data());
  conn.Write(frame);
  std::string raw = conn.DrainUntilClose();

  FrameDecoder decoder(kDefaultMaxFrameBytes);
  decoder.Feed(raw.data(), raw.size());
  std::string payload;
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  net::ResponseEnvelope env;
  ASSERT_TRUE(net::DecodeResponseEnvelope(payload, &env));
  EXPECT_EQ(env.code, StatusCode::kInvalidArgument);
}

TEST(ServerTest, RandomBytesAndBitFlipsNeverCrashTheServer) {
  ServerOptions options;
  options.max_frame_bytes = 64 << 10;
  // Short idle timeout: DrainUntilClose below relies on the server
  // hanging up on connections whose bytes never complete a frame.
  options.idle_timeout_ms = 100;
  ServerFixture fx(options, /*log_queries=*/6);
  Rng rng(20260808);

  // Three rounds per op of the table: pure noise, a well-formed request
  // of that op with one bit flipped in its frame (the CRC catches it),
  // and one with a bit flipped in its payload before framing (the CRC
  // holds, so the envelope and body decoders see the damage).
  for (size_t round = 0; round < 3 * std::size(net::kOps); ++round) {
    RawConn conn(fx.server->port());
    ASSERT_TRUE(conn.connected());
    std::string bytes;
    if (round % 3 == 0) {
      // Pure noise: random length, random bytes.
      size_t len = 1 + rng.Uniform(512);
      for (size_t i = 0; i < len; ++i) {
        bytes.push_back(static_cast<char>(rng.Next() & 0xFF));
      }
    } else {
      const net::Op op = net::kOps[round / 3].op;
      std::string payload = RequestPayload(2, op, RequestBody(op));
      std::string frame;
      if (round % 3 == 2) {
        size_t bit = rng.Uniform(payload.size() * 8);
        payload[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        AppendFrame(&frame, payload);
      } else {
        AppendFrame(&frame, payload);
        size_t bit = rng.Uniform(frame.size() * 8);
        frame[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
      bytes = FrameHello(net::kProtocolVersion) + frame;
    }
    conn.Write(bytes);
    // Either a typed error arrives and the server disconnects, or the
    // flipped bit produced a benign frame and the server answers; both
    // end with the connection usable or cleanly closed — never a hang
    // or a crash. Half the rounds just slam the connection shut.
    if (round % 2 == 0) conn.DrainUntilClose();
  }

  // The server survived: a fresh client still gets full service.
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->protocol_errors, 10u);
}

// Every request body must be used up exactly, including the bodies of
// the ops the event-loop thread answers inline.
TEST(ServerTest, LoopOpsRejectTrailingRequestBytes) {
  ServerFixture fx(ServerOptions{}, /*log_queries=*/4);
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);
  size_t loop_ops = 0;
  for (const net::OpInfo& info : net::kOps) {
    if (info.runs != net::Runs::kLoop) continue;
    ++loop_ops;
    ASSERT_TRUE(client
                    ->SendRawPayload(RequestPayload(
                        9, info.op, RequestBody(info.op) + std::string(1, '\0')))
                    .ok());
    auto raw = client->ReadRawPayload();
    ASSERT_TRUE(raw.ok()) << info.name << ": " << raw.status();
    net::ResponseEnvelope env;
    ASSERT_TRUE(net::DecodeResponseEnvelope(*raw, &env));
    EXPECT_EQ(env.op, info.op);
    EXPECT_EQ(env.code, StatusCode::kInvalidArgument) << info.name;
  }
  EXPECT_GE(loop_ops, 4u);  // Hello, Stats, MetricsDump, ReplAck at least

  // A handshake with a trailing byte is refused, then disconnected.
  RawConn conn(fx.server->port());
  ASSERT_TRUE(conn.connected());
  BinaryWriter hello;
  net::EncodeHelloRequest(&hello, net::HelloRequest{});
  std::string frame;
  AppendFrame(&frame, RequestPayload(1, net::Op::kHello, hello.data() + "x"));
  conn.Write(frame);
  std::string raw = conn.DrainUntilClose();
  FrameDecoder decoder(kDefaultMaxFrameBytes);
  decoder.Feed(raw.data(), raw.size());
  std::string payload;
  ASSERT_EQ(decoder.Poll(&payload), FrameDecoder::Next::kFrame);
  net::ResponseEnvelope env;
  ASSERT_TRUE(net::DecodeResponseEnvelope(payload, &env));
  EXPECT_EQ(env.code, StatusCode::kInvalidArgument);
}

TEST(ServerTest, OversizedFrameIsATypedErrorThenDisconnect) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  ServerFixture fx(options, /*log_queries=*/4);
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  BinaryWriter w;
  net::BeginRequest(&w, 3, net::Op::kSearch);
  net::SearchRequest req;
  req.viewer = "alice";
  req.spec.substring = std::string(4096, 'q');  // payload > 1024
  net::EncodeSearchRequest(&w, req);
  ASSERT_TRUE(client->SendRawPayload(w.data()).ok());

  auto raw = client->ReadRawPayload();
  ASSERT_TRUE(raw.ok()) << raw.status();
  net::ResponseEnvelope env;
  ASSERT_TRUE(net::DecodeResponseEnvelope(*raw, &env));
  EXPECT_EQ(env.code, StatusCode::kInvalidArgument);
  // The connection is then closed.
  auto next = client->ReadRawPayload();
  EXPECT_FALSE(next.ok());
}

TEST(ServerTest, TruncatedFrameThenCloseIsHandled) {
  ServerFixture fx(ServerOptions{}, /*log_queries=*/4);
  {
    RawConn conn(fx.server->port());
    ASSERT_TRUE(conn.connected());
    std::string frame = FrameHello(net::kProtocolVersion);
    conn.Write(frame.substr(0, frame.size() / 2));
  }  // close mid-frame
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Stats().ok());
}

// --- limits ----------------------------------------------------------------

TEST(ServerTest, IdleConnectionsAreClosed) {
  ServerOptions options;
  options.idle_timeout_ms = 150;
  ServerFixture fx(options, /*log_queries=*/4);
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);
  // The connection dies quietly after ~150ms of silence; the next read
  // reports it closed.
  auto read = client->ReadRawPayload();
  EXPECT_FALSE(read.ok());
}

TEST(ServerTest, MaxConnsRejectsTheOverflowConnection) {
  ServerOptions options;
  options.max_conns = 2;
  ServerFixture fx(options, /*log_queries=*/4);
  auto a = fx.Client();
  ASSERT_NE(a, nullptr);
  auto b_result = CqmsClient::Connect("127.0.0.1", fx.server->port());
  ASSERT_TRUE(b_result.ok()) << b_result.status();
  // The third connection is accepted and immediately closed: the
  // handshake cannot complete.
  auto c_result = CqmsClient::Connect("127.0.0.1", fx.server->port());
  EXPECT_FALSE(c_result.ok());

  auto stats = a->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->rejected_connections, 1u);
  EXPECT_LE(stats->active_connections, 2u);
}

// --- graceful shutdown -----------------------------------------------------

TEST(ServerTest, GracefulShutdownFlushesAcknowledgedWritesToDisk) {
  std::string dir = ::testing::TempDir() + "/cqms_server_shutdown";
  std::string cleanup = "rm -rf " + dir;
  std::system(cleanup.c_str());

  size_t acked = 0;
  {
    Cqms cqms;
    Status d = cqms.EnableDurability(dir);
    ASSERT_TRUE(d.ok()) << d;
    Status p = workload::PopulateLakeDatabase(cqms.database(), 40);
    ASSERT_TRUE(p.ok()) << p;
    cqms.RegisterUser("alice", {"lab0"});

    CqmsServer server(&cqms);
    ASSERT_TRUE(server.Start().ok());
    auto connected = CqmsClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok()) << connected.status();
    CqmsClient& client = **connected;

    std::vector<uint64_t> ids;
    for (int i = 0; i < 10; ++i) {
      net::AppendRequest append;
      append.user = "alice";
      append.sql =
          "SELECT * FROM Sensors WHERE sensor_id < " + std::to_string(i + 1);
      ids.push_back(client.SendAppend(append));
    }
    ASSERT_TRUE(client.Flush().ok());
    for (uint64_t id : ids) {
      auto r = client.WaitAppend(id);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(r->succeeded);
      ++acked;
    }
    server.Shutdown();  // graceful: drains, flushes, final checkpoint
    EXPECT_FALSE(server.running());
  }

  // Reopen: every acknowledged write must be there.
  Cqms reopened;
  Status d = reopened.EnableDurability(dir);
  ASSERT_TRUE(d.ok()) << d;
  EXPECT_EQ(reopened.store()->size(), acked);
  std::system(cleanup.c_str());
}

TEST(ServerTest, InFlightRequestsCompleteDuringShutdown) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  // Queue a batch, flush, immediately request shutdown. The drain
  // contract: every request the server *dispatched* before the stop
  // still gets its (well-formed) response; requests still in the
  // kernel buffer may be dropped — but every Wait must return (answer
  // or clean close), never hang, and the server must terminate.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    net::SearchSpec spec;
    spec.keyword = net::KeywordSpec{"sensors", true};
    ids.push_back(client->SendSearch("alice", spec));
  }
  ASSERT_TRUE(client->Flush().ok());
  fx.server->RequestShutdown();
  size_t returned = 0;
  for (uint64_t id : ids) {
    auto r = client->WaitSearch(id);
    if (r.ok()) {
      EXPECT_FALSE(r->matches.empty());
    }
    ++returned;
  }
  EXPECT_EQ(returned, ids.size());
  fx.server->Wait();
  EXPECT_FALSE(fx.server->running());
}

// --- observability over the wire -------------------------------------------

TEST(ServerTest, TracedSearchMatchesInProcessOracle) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"sensors", true};
  spec.want_trace = true;
  auto wire = client->Search("alice", spec);
  ASSERT_TRUE(wire.ok()) << wire.status();
  ASSERT_TRUE(wire->trace.has_value());

  // In-process oracle with its own trace: generator and the
  // deterministic candidate counters must agree exactly (span timings
  // are wall-clock and can differ).
  obs::ExecTrace oracle_trace;
  metaquery::MetaQueryRequest mreq = net::ToMetaQueryRequest(spec, nullptr);
  mreq.trace = &oracle_trace;
  metaquery::MetaQueryResponse oracle = fx.cqms.Search("alice", mreq);

  const net::TraceSummary& t = *wire->trace;
  EXPECT_EQ(t.generator, oracle_trace.generator);
  auto counter = [&](const char* name) -> uint64_t {
    for (const auto& [k, v] : t.counters) {
      if (k == name) return v;
    }
    return ~0ull;
  };
  EXPECT_EQ(counter("candidates"), oracle.candidates_considered);
  EXPECT_EQ(counter("matches"), oracle.matches.size());
  EXPECT_EQ(counter("matches"), wire->matches.size());
  EXPECT_EQ(counter("matches_prefilter"),
            oracle_trace.CounterOr("matches_prefilter"));
  EXPECT_EQ(t.spans_micros.size(), 4u);

  // An untraced search must not carry a trace.
  spec.want_trace = false;
  auto plain = client->Search("alice", spec);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(plain->trace.has_value());
}

TEST(ServerTest, MetricsDumpCoversEveryLayer) {
  ServerFixture fx;
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  // Drive one op of each kind so the per-op and per-layer series exist.
  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"sensors", true};
  ASSERT_TRUE(client->Search("alice", spec).ok());
  net::AppendRequest append;
  append.user = "alice";
  append.sql = "SELECT * FROM Sensors WHERE sensor_id < 3";
  ASSERT_TRUE(client->Append(append).ok());

  auto dump = client->MetricsDump();
  ASSERT_TRUE(dump.ok()) << dump.status();
  const std::string& text = *dump;
  // Planner layer (registry), server layer (per-op counters), and the
  // storage/publish layer must all be present in one dump.
  EXPECT_NE(text.find("cqms_planner_queries_total"), std::string::npos) << text;
  EXPECT_NE(text.find("cqms_search_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("cqms_append_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("cqms_views_published_total"), std::string::npos);
  EXPECT_NE(text.find("cqms_server_uptime_micros"), std::string::npos);
  EXPECT_NE(text.find("cqms_server_connections_total 1"), std::string::npos);
}

TEST(ServerTest, StatsCarriesDurabilityAndArenaFields) {
  std::string dir = ::testing::TempDir() + "/obs_stats_durable";
  std::string cleanup = "rm -rf " + dir;
  std::system(cleanup.c_str());

  // Durability must see a pristine store, so this test builds its own
  // Cqms instead of using the (pre-seeded) fixture.
  Cqms cqms;
  Status d = cqms.EnableDurability(dir);
  ASSERT_TRUE(d.ok()) << d;
  Status p = workload::PopulateLakeDatabase(cqms.database(), 40);
  ASSERT_TRUE(p.ok()) << p;
  cqms.RegisterUser("alice", {"lab0"});
  cqms.Execute("alice", "SELECT * FROM Sensors WHERE sensor_id < 5");

  CqmsServer server(&cqms);
  ASSERT_TRUE(server.Start().ok());
  auto connected = CqmsClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status();

  auto stats = (*connected)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Healthy durable server: writable, no failures, no backoff.
  EXPECT_FALSE(stats->durable_read_only);
  EXPECT_EQ(stats->checkpoint_failure_streak, 0u);
  EXPECT_EQ(stats->checkpoints_backed_off, 0u);
  server.Shutdown();
  std::system(cleanup.c_str());
}

TEST(ServerTest, SlowQueryLogCapturesSlowSearches) {
  std::string path = ::testing::TempDir() + "/obs_server_slow.jsonl";
  std::remove(path.c_str());
  ServerOptions options;
  options.slow_query_micros = 1;  // every search is "slow"
  options.slow_query_log_path = path;
  ServerFixture fx(options);
  auto client = fx.Client();
  ASSERT_NE(client, nullptr);

  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"sensors", true};
  ASSERT_TRUE(client->Search("alice", spec).ok());
  ASSERT_TRUE(client->Search("bob", spec).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[8192];
  std::vector<std::string> lines;
  while (std::fgets(buf, sizeof buf, f) != nullptr) lines.emplace_back(buf);
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"viewer\":\"alice\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"op\":\"Search\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"generator\":\"posting_intersection\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"viewer\":\"bob\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ServerTest, SlowQueryMicrosWithoutPathFailsStart) {
  ServerOptions options;
  options.slow_query_micros = 1000;
  ServerFixture fx(options, /*log_queries=*/4, /*start=*/false);
  Status s = fx.server->Start();
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace cqms::server
