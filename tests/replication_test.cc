// End-to-end and unit tests for WAL-shipping replication
// (docs/replication.md): a durable primary CqmsServer streaming to
// follower CqmsServers over loopback, checked for byte-identical
// convergence (snapshot-v2 encodings of both read views must match),
// zero acked-write loss under link faults injected by ChaosProxy (cuts
// mid-frame, bit flips, delays), snapshot re-bootstrap when a follower
// falls behind the retained WAL window, kNotPrimary redirects, and the
// failover-aware client. Runs under TSan in CI: every cross-thread
// observation goes through atomics, the wire, or published read views.

#include "repl/follower.h"

#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_codec.h"
#include "common/frame_codec.h"
#include "core/cqms.h"
#include "net/wire.h"
#include "netclient/client.h"
#include "netclient/failover.h"
#include "repl/chaos_proxy.h"
#include "server/server.h"
#include "storage/durable_store.h"
#include "storage/snapshot_v2.h"
#include "storage/wal.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::repl {
namespace {

using netclient::ClientOptions;
using netclient::CqmsClient;
using netclient::Endpoint;
using netclient::FailoverClient;
using netclient::FailoverOptions;
using netclient::ParseEndpoint;
using server::CqmsServer;
using server::ServerOptions;

bool WaitUntil(const std::function<bool()>& pred, int64_t timeout_ms = 15000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Fresh empty directory under the test temp root (clears leftovers
/// from a previous run, including any number of retired WAL segments).
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  for (const char* base : {"snapshot.cqms", "snapshot.cqms.1",
                           "snapshot.cqms.tmp", "wal.log"}) {
    std::remove((dir + "/" + base).c_str());
  }
  for (int i = 1; i < 64; ++i) {
    if (std::remove((dir + "/wal.log." + std::to_string(i)).c_str()) != 0) {
      break;
    }
  }
  return dir;
}

/// Snapshot-v2 encoding of the latest published read view — the
/// byte-equality convergence oracle. Views are epoch-published
/// (acquire/release), so this is safe on any thread while the owning
/// server's writer is quiescent.
std::string ViewBytes(Cqms* cqms) {
  std::shared_ptr<const storage::ReadViewState> view = cqms->CurrentReadView();
  EXPECT_NE(view, nullptr);
  std::string out;
  Status s = storage::EncodeSnapshotV2(*view, 0, &out);
  EXPECT_TRUE(s.ok()) << s;
  return out;
}

/// A durable primary: lake database, registered users, CqmsServer with
/// fast replication heartbeats on an ephemeral loopback port.
struct Primary {
  /// `wipe` false reopens an existing durable dir (primary restart).
  explicit Primary(const std::string& dir_name,
                   storage::DurabilityOptions dopts = {},
                   uint16_t fixed_port = 0, bool wipe = true) {
    dir = wipe ? FreshDir(dir_name) : ::testing::TempDir() + "/" + dir_name;
    Status s = cqms.EnableDurability(dir, dopts);
    EXPECT_TRUE(s.ok()) << s;
    s = workload::PopulateLakeDatabase(cqms.database(), 30);
    EXPECT_TRUE(s.ok()) << s;
    cqms.RegisterUser("alice", {"lab0"});
    cqms.RegisterUser("bob", {"lab0"});
    sequence += 2;  // Two kAddUser WAL records.
    ServerOptions sopts;
    sopts.port = fixed_port;
    sopts.repl_heartbeat_ms = 40;
    server = std::make_unique<CqmsServer>(&cqms, sopts);
    s = server->Start();
    EXPECT_TRUE(s.ok()) << s;
  }

  uint16_t port() const { return server->port(); }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(port());
  }

  std::unique_ptr<CqmsClient> Client() {
    auto r = CqmsClient::Connect("127.0.0.1", port());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? std::move(*r) : nullptr;
  }

  /// Log-only appends through the wire (each is one WAL record). The
  /// returned OK responses are the "acked writes" the fault-matrix
  /// tests assert are never lost.
  void AppendN(CqmsClient* client, size_t n, const std::string& tag) {
    for (size_t i = 0; i < n; ++i) {
      net::AppendRequest req;
      req.user = (i % 2 == 0) ? "alice" : "bob";
      req.sql = "SELECT * FROM Sensors WHERE sensor_id < " +
                std::to_string(sequence + 100) + " /* " + tag + " */";
      req.execute = false;
      auto r = client->Append(req);
      ASSERT_TRUE(r.ok()) << r.status();
      ++sequence;
    }
  }

  Cqms cqms;
  std::unique_ptr<CqmsServer> server;
  std::string dir;
  /// WAL sequence the primary has acked through (tracked client-side:
  /// one record per registration/append this fixture performed).
  uint64_t sequence = 0;
};

/// A follower CqmsServer wired to a repl::Follower, exactly as
/// cqms_serverd --follow does, with test-fast backoff.
struct Replica {
  /// `advertised` is the primary address baked into kNotPrimary
  /// redirects; `connect_port` is where the replication link actually
  /// dials (a ChaosProxy port in the fault tests).
  Replica(const std::string& advertised, uint16_t connect_port,
          const std::string& name = "replica") {
    ServerOptions sopts;
    sopts.follow_primary = advertised;
    server = std::make_unique<CqmsServer>(&cqms, sopts);
    FollowerOptions fopts;
    fopts.primary_host = "127.0.0.1";
    fopts.primary_port = connect_port;
    fopts.name = name;
    fopts.liveness_timeout_ms = 2000;
    fopts.backoff_initial_ms = 20;
    fopts.backoff_max_ms = 200;
    std::shared_ptr<Cqms> live(&cqms, [](Cqms*) {});
    follower = std::make_unique<Follower>(server.get(), live, fopts);
    server->SetFollower(follower.get());
    Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s;
    s = follower->Start();
    EXPECT_TRUE(s.ok()) << s;
  }

  ~Replica() { Stop(); }

  void Stop() {
    if (server != nullptr && server->running()) server->Shutdown();
    if (follower != nullptr) follower->Stop();
  }

  uint16_t port() const { return server->port(); }

  std::unique_ptr<CqmsClient> Client() {
    auto r = CqmsClient::Connect("127.0.0.1", port());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? std::move(*r) : nullptr;
  }

  /// True once the follower has applied everything the primary acked
  /// (>= min_sequence guards against a stale pre-write equality).
  bool ConvergedTo(uint64_t min_sequence) const {
    Follower::Stats s = follower->GetStats();
    return s.connected && s.applied_sequence >= min_sequence &&
           s.applied_sequence == s.primary_sequence;
  }

  Cqms cqms;
  std::unique_ptr<CqmsServer> server;
  std::unique_ptr<Follower> follower;
};

// --- wire codecs -----------------------------------------------------------

TEST(ReplWireTest, CodecRoundTrips) {
  {
    net::ReplSubscribeRequest m;
    m.from_sequence = 42;
    m.follower_name = "replica-7";
    m.force_snapshot = true;
    BinaryWriter w;
    net::EncodeReplSubscribeRequest(&w, m);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    net::ReplSubscribeRequest d;
    ASSERT_TRUE(net::DecodeReplSubscribeRequest(&r, &d));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(d.from_sequence, 42u);
    EXPECT_EQ(d.follower_name, "replica-7");
    EXPECT_TRUE(d.force_snapshot);
  }
  {
    net::ReplSubscribeResult m;
    m.snapshot_bootstrap = true;
    m.primary_sequence = 99;
    BinaryWriter w;
    net::EncodeReplSubscribeResult(&w, m);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    net::ReplSubscribeResult d;
    ASSERT_TRUE(net::DecodeReplSubscribeResult(&r, &d));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_TRUE(d.snapshot_bootstrap);
    EXPECT_EQ(d.primary_sequence, 99u);
  }
  {
    net::ReplFrameBatch m;
    m.frames.push_back({0xdeadbeef, "frame-one"});
    m.frames.push_back({7, std::string("\x00\x01\x02", 3)});
    m.primary_sequence = 1234;
    BinaryWriter w;
    net::EncodeReplFrameBatch(&w, m);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    net::ReplFrameBatch d;
    ASSERT_TRUE(net::DecodeReplFrameBatch(&r, &d));
    EXPECT_TRUE(r.AtEnd());
    ASSERT_EQ(d.frames.size(), 2u);
    EXPECT_EQ(d.frames[0].crc32, 0xdeadbeefu);
    EXPECT_EQ(d.frames[0].frame, "frame-one");
    EXPECT_EQ(d.frames[1].frame, std::string("\x00\x01\x02", 3));
    EXPECT_EQ(d.primary_sequence, 1234u);
  }
  {
    net::ReplSnapshotBegin m;
    m.covered_sequence = 5;
    m.total_bytes = 1 << 20;
    m.crc32 = 0xabcd;
    BinaryWriter w;
    net::EncodeReplSnapshotBegin(&w, m);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    net::ReplSnapshotBegin d;
    ASSERT_TRUE(net::DecodeReplSnapshotBegin(&r, &d));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(d.covered_sequence, 5u);
    EXPECT_EQ(d.total_bytes, static_cast<uint64_t>(1 << 20));
    EXPECT_EQ(d.crc32, 0xabcdu);
  }
  {
    net::ReplHeartbeat m;
    m.primary_sequence = 77;
    BinaryWriter w;
    net::EncodeReplHeartbeat(&w, m);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    net::ReplHeartbeat d;
    ASSERT_TRUE(net::DecodeReplHeartbeat(&r, &d));
    EXPECT_EQ(d.primary_sequence, 77u);
  }
  {
    net::ReplAckRequest m;
    m.acked_sequence = 31;
    BinaryWriter w;
    net::EncodeReplAckRequest(&w, m);
    std::string bytes = w.Take();
    BinaryReader r(bytes);
    net::ReplAckRequest d;
    ASSERT_TRUE(net::DecodeReplAckRequest(&r, &d));
    EXPECT_EQ(d.acked_sequence, 31u);
  }
}

TEST(ReplWireTest, NotPrimaryMessageRoundTrips) {
  std::string msg = net::FormatNotPrimary("10.0.0.7:9911");
  EXPECT_EQ(net::ParseNotPrimaryLeader(msg), "10.0.0.7:9911");
  EXPECT_EQ(net::ParseNotPrimaryLeader("some other error"), "");
  EXPECT_EQ(net::ParseNotPrimaryLeader(net::FormatNotPrimary("")), "");
}

TEST(ReplWireTest, ParseEndpointAcceptsHostPortOnly) {
  auto ep = ParseEndpoint("127.0.0.1:8080");
  ASSERT_TRUE(ep.ok()) << ep.status();
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8080);
  EXPECT_FALSE(ParseEndpoint("no-port").ok());
  EXPECT_FALSE(ParseEndpoint(":123").ok());
  EXPECT_FALSE(ParseEndpoint("host:").ok());
  EXPECT_FALSE(ParseEndpoint("host:99999").ok());
  EXPECT_FALSE(ParseEndpoint("host:12x").ok());
}

// --- WAL scanning and shipping retention -----------------------------------

TEST(ReplWalTest, ScanWalFramesEnumeratesCommittedFrames) {
  std::string dir = FreshDir("repl_scan_wal");
  Cqms cqms;
  ASSERT_TRUE(workload::PopulateLakeDatabase(cqms.database(), 20).ok());
  ASSERT_TRUE(cqms.EnableDurability(dir).ok());
  cqms.RegisterUser("alice", {"lab0"});
  for (int i = 0; i < 5; ++i) {
    cqms.Execute("alice", "SELECT * FROM Sensors WHERE sensor_id < " +
                              std::to_string(i + 2));
  }

  std::vector<uint64_t> sequences;
  Status s = storage::ScanWalFrames(
      cqms.durable()->wal_path(), nullptr,
      [&](uint64_t sequence, std::string_view frame) {
        EXPECT_FALSE(frame.empty());
        sequences.push_back(sequence);
        return true;
      });
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(sequences.size(), 6u);  // 1 registration + 5 appends.
  for (size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], i + 1);  // Contiguous from 1.
  }

  // Early stop.
  size_t seen = 0;
  s = storage::ScanWalFrames(cqms.durable()->wal_path(), nullptr,
                             [&](uint64_t, std::string_view) {
                               ++seen;
                               return seen < 2;
                             });
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(seen, 2u);

  // Missing file scans zero frames successfully.
  s = storage::ScanWalFrames(dir + "/does_not_exist.log", nullptr,
                             [&](uint64_t, std::string_view) { return true; });
  EXPECT_TRUE(s.ok()) << s;
}

/// Stand-in shipper: pins retention to a configurable floor.
class FakeShippingHook : public storage::WalShippingHook {
 public:
  void OnWalFrame(uint64_t sequence, std::string_view) override {
    last_shipped = sequence;
  }
  uint64_t MinRequiredSequence() override { return min_required; }

  uint64_t min_required = 1;
  uint64_t last_shipped = 0;
};

TEST(ReplWalTest, RetentionKeepsSegmentsUntilFollowersAckPast) {
  std::string dir = FreshDir("repl_retention");
  storage::DurabilityOptions dopts;
  dopts.checkpoint_wal_bytes = 1ull << 40;  // Only explicit checkpoints.
  dopts.checkpoint_wal_records = 1ull << 40;
  dopts.repl_backlog_max_segments = 4;
  Cqms cqms;
  ASSERT_TRUE(workload::PopulateLakeDatabase(cqms.database(), 20).ok());
  ASSERT_TRUE(cqms.EnableDurability(dir, dopts).ok());
  FakeShippingHook hook;
  cqms.durable_store()->SetShippingHook(&hook);
  cqms.RegisterUser("alice", {"lab0"});
  EXPECT_EQ(hook.last_shipped, 1u);

  // A laggard follower (still needs sequence 1) pins every rotated
  // generation, up to the configured cap.
  for (int round = 0; round < 3; ++round) {
    cqms.Execute("alice", "SELECT * FROM Sensors WHERE sensor_id < " +
                              std::to_string(round + 2));
    ASSERT_TRUE(cqms.Checkpoint().ok());
  }
  EXPECT_EQ(cqms.durable()->retired_wal_segments().size(), 3u);
  EXPECT_GT(cqms.durable()->repl_backlog_bytes(), 0u);
  EXPECT_EQ(cqms.durable()->shippable_floor(), 0u);  // Seq 1 still on disk.

  // The cap bounds a dead follower's hold on disk.
  cqms.Execute("alice", "SELECT * FROM Sensors WHERE sensor_id < 90");
  ASSERT_TRUE(cqms.Checkpoint().ok());
  EXPECT_EQ(cqms.durable()->retired_wal_segments().size(), 4u);
  cqms.Execute("alice", "SELECT * FROM Sensors WHERE sensor_id < 91");
  ASSERT_TRUE(cqms.Checkpoint().ok());
  EXPECT_EQ(cqms.durable()->retired_wal_segments().size(), 4u);

  // Everyone acked past everything: retention collapses back to the
  // single recovery generation.
  hook.min_required = UINT64_MAX;
  cqms.Execute("alice", "SELECT * FROM Sensors WHERE sensor_id < 92");
  ASSERT_TRUE(cqms.Checkpoint().ok());
  EXPECT_EQ(cqms.durable()->retired_wal_segments().size(), 1u);
  EXPECT_GT(cqms.durable()->shippable_floor(), 0u);
  cqms.durable_store()->SetShippingHook(nullptr);
}

// --- live replication e2e --------------------------------------------------

TEST(ReplicationTest, FollowerServesReplicatedReads) {
  Primary primary("repl_e2e_primary");
  Replica replica(primary.address(), primary.port());
  auto writer = primary.Client();
  ASSERT_NE(writer, nullptr);
  primary.AppendN(writer.get(), 8, "e2e");

  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }))
      << "follower never converged; applied="
      << replica.follower->GetStats().applied_sequence;

  // Reads on the replica see the replicated log.
  auto reader = replica.Client();
  ASSERT_NE(reader, nullptr);
  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"Sensors", true};
  spec.limit = 50;
  auto found = reader->Search("alice", spec);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_GT(found->matches.size(), 0u);

  // Roles over the wire.
  auto pstats = writer->Stats();
  ASSERT_TRUE(pstats.ok()) << pstats.status();
  EXPECT_EQ(pstats->role, 1);
  EXPECT_EQ(pstats->repl_followers, 1u);
  auto fstats = reader->Stats();
  ASSERT_TRUE(fstats.ok()) << fstats.status();
  EXPECT_EQ(fstats->role, 2);
  EXPECT_EQ(fstats->primary_address, primary.address());
  EXPECT_TRUE(fstats->repl_connected);
  EXPECT_EQ(fstats->repl_applied_sequence, primary.sequence);

  // Byte-identical convergence: snapshot-v2 encodings of both read
  // views must match exactly.
  std::shared_ptr<Cqms> replica_cqms = replica.server->CurrentCqms();
  EXPECT_EQ(ViewBytes(&primary.cqms), ViewBytes(replica_cqms.get()));
}

// A follower applies each Append frame the way WAL replay does, so its
// records hold one copy of each repeated string, as the primary's do:
// the runs of one statement, and two statements with one plan or one
// error.
TEST(ReplicationTest, FollowerRunsHoldOneCopyOfEachString) {
  Primary primary("repl_run_strings");
  Replica replica(primary.address(), primary.port());
  auto writer = primary.Client();
  ASSERT_NE(writer, nullptr);
  auto append = [&](int i, const char* sql) {
    net::AppendRequest req;
    req.user = i % 2 == 0 ? "alice" : "bob";
    req.sql = sql;
    auto r = writer->Append(req);
    ASSERT_TRUE(r.ok()) << r.status();
    ++primary.sequence;
  };
  for (int i = 0; i < 4; ++i) {
    for (const char* sql :
         {"SELECT sensor_id FROM Sensors WHERE sensor_id < 3",
          "SELECT nope FROM Missing", "SELEKT sensor_id FROM Sensors"}) {
      append(i, sql);
    }
  }
  for (int i = 0; i < 2; ++i) {
    append(i, "select sensor_id from Sensors where sensor_id < 3");
    append(i, "SELECT other FROM Missing");
  }
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));

  std::shared_ptr<const storage::ReadViewState> primary_view =
      primary.cqms.CurrentReadView();
  std::shared_ptr<const storage::ReadViewState> follower_view =
      replica.server->CurrentCqms()->CurrentReadView();
  ASSERT_NE(follower_view, nullptr);
  ASSERT_EQ(follower_view->size(), 16u);
  ASSERT_FALSE(follower_view->Get(0)->stats.plan.empty());
  ASSERT_FALSE(follower_view->Get(1)->stats.error.empty());
  const testing_util::SharedRepeats expected =
      testing_util::ExpectOneCopyPerRepeatedString(*primary_view);
  const testing_util::SharedRepeats repeats =
      testing_util::ExpectOneCopyPerRepeatedString(*follower_view);
  EXPECT_EQ(repeats.plans, 5u);
  EXPECT_EQ(repeats.errors, 8u);
  EXPECT_EQ(repeats.owners, 14u);
  EXPECT_EQ(expected.plans, repeats.plans);
  EXPECT_EQ(expected.errors, repeats.errors);
  EXPECT_EQ(expected.owners, repeats.owners);
}

TEST(ReplicationTest, FollowerRejectsMutationsWithTypedNotPrimary) {
  Primary primary("repl_notprimary");
  Replica replica(primary.address(), primary.port());
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));

  auto client = replica.Client();
  ASSERT_NE(client, nullptr);
  net::AppendRequest req;
  req.user = "alice";
  req.sql = "SELECT * FROM Sensors";
  req.execute = false;
  auto r = client->Append(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotPrimary) << r.status();
  EXPECT_EQ(net::ParseNotPrimaryLeader(r.status().message()),
            primary.address());
  // The connection survives a typed rejection: reads still work.
  auto stats = client->Stats();
  EXPECT_TRUE(stats.ok()) << stats.status();
}

TEST(ReplicationTest, FailoverClientFollowsNotPrimaryRedirect) {
  Primary primary("repl_failover_redirect");
  Replica replica(primary.address(), primary.port());
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));

  // The replica is listed first: the client's initial primary guess is
  // wrong and must be corrected by the redirect.
  FailoverOptions fopts;
  fopts.retry_backoff_ms = 5;
  FailoverClient failover({{"127.0.0.1", replica.port()},
                           {"127.0.0.1", primary.port()}},
                          fopts);
  net::AppendRequest req;
  req.user = "alice";
  req.sql = "SELECT * FROM Sensors WHERE sensor_id < 500";
  req.execute = false;
  auto r = failover.Append(req);
  ASSERT_TRUE(r.ok()) << r.status();
  ++primary.sequence;
  EXPECT_EQ(failover.primary_index(), 1u);  // Learned the real primary.
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));

  // Reads go through regardless of which endpoint answers.
  auto stats = failover.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
}

TEST(ReplicationTest, FailoverReadsSurviveOutageAndMutationsResume) {
  uint16_t primary_port = 0;
  uint64_t acked = 0;
  std::string dir_name = "repl_failover_outage";
  auto primary = std::make_unique<Primary>(dir_name);
  primary_port = primary->port();
  Replica replica(primary->address(), primary_port);
  {
    auto writer = primary->Client();
    ASSERT_NE(writer, nullptr);
    primary->AppendN(writer.get(), 4, "pre-outage");
  }
  acked = primary->sequence;
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(acked); }));

  FailoverOptions fopts;
  fopts.retry_backoff_ms = 5;
  fopts.client.connect_timeout_ms = 500;
  fopts.client.timeout_ms = 2000;
  FailoverClient failover({{"127.0.0.1", primary_port},
                           {"127.0.0.1", replica.port()}},
                          fopts);

  // Take the primary down (graceful: all acked writes are durable).
  primary->server->Shutdown();
  primary.reset();

  // Reads keep flowing from the replica.
  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"Sensors", true};
  spec.limit = 10;
  auto found = failover.Search("alice", spec);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_GT(found->matches.size(), 0u);

  // Mutations fail while no primary exists — typed, not hung.
  net::AppendRequest req;
  req.user = "alice";
  req.sql = "SELECT * FROM Sensors WHERE sensor_id < 600";
  req.execute = false;
  auto rejected = failover.Append(req);
  ASSERT_FALSE(rejected.ok());

  // Restart the primary on the same port from its durable state;
  // the follower reconnects and mutations resume through the same
  // failover client.
  storage::DurabilityOptions dopts;
  auto revived = std::make_unique<Primary>(dir_name, dopts, primary_port,
                                           /*wipe=*/false);
  revived->sequence = acked;
  ASSERT_TRUE(WaitUntil([&] {
    Follower::Stats s = replica.follower->GetStats();
    return s.connected && s.reconnects >= 1;
  })) << "follower never reconnected to the revived primary";

  auto resumed = failover.Append(req);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ++revived->sequence;
  ASSERT_TRUE(
      WaitUntil([&] { return replica.ConvergedTo(revived->sequence); }));
  std::shared_ptr<Cqms> replica_cqms = replica.server->CurrentCqms();
  EXPECT_EQ(ViewBytes(&revived->cqms), ViewBytes(replica_cqms.get()));
}

TEST(ReplicationTest, RegressedPrimaryForcesRebootstrap) {
  // A primary that comes back with a SHORTER timeline (wiped disk,
  // restore from an older backup) leaves the follower "ahead". The
  // follower must notice and adopt the primary's truth via a forced
  // snapshot — not skip the primary's frames as duplicates forever.
  uint16_t port = 0;
  auto primary = std::make_unique<Primary>("repl_regressed");
  port = primary->port();
  Replica replica(primary->address(), port);
  {
    auto writer = primary->Client();
    ASSERT_NE(writer, nullptr);
    primary->AppendN(writer.get(), 6, "doomed");
  }
  ASSERT_TRUE(
      WaitUntil([&] { return replica.ConvergedTo(primary->sequence); }));

  primary->server->Shutdown();
  primary.reset();
  // Revive WIPED on the same port: its history restarts near zero.
  auto wiped = std::make_unique<Primary>("repl_regressed",
                                         storage::DurabilityOptions{}, port);
  ASSERT_TRUE(WaitUntil([&] {
    Follower::Stats s = replica.follower->GetStats();
    return s.snapshots_loaded >= 1 && replica.ConvergedTo(wiped->sequence);
  })) << "follower never re-bootstrapped off the regressed primary";
  EXPECT_GE(replica.follower->GetStats().gaps_detected, 1u);
  std::shared_ptr<Cqms> replica_cqms = replica.server->CurrentCqms();
  EXPECT_EQ(ViewBytes(&wiped->cqms), ViewBytes(replica_cqms.get()));
}

TEST(ReplicationTest, SnapshotBootstrapWhenBehindRetainedWal) {
  storage::DurabilityOptions dopts;
  // Retention keeps only the newest rotated generation (the recovery
  // fallback): after TWO checkpoints the oldest frames are gone from
  // disk, so a subscriber from zero is behind the shippable floor and
  // must bootstrap.
  dopts.repl_backlog_max_segments = 0;
  dopts.checkpoint_wal_bytes = 1ull << 40;
  dopts.checkpoint_wal_records = 1ull << 40;
  Primary primary("repl_snapshot_bootstrap", dopts);
  auto writer = primary.Client();
  ASSERT_NE(writer, nullptr);
  primary.AppendN(writer.get(), 6, "pre-checkpoint");
  ASSERT_TRUE(writer->Checkpoint().ok());
  primary.AppendN(writer.get(), 3, "mid-checkpoint");
  ASSERT_TRUE(writer->Checkpoint().ok());
  primary.AppendN(writer.get(), 2, "post-checkpoint");

  Replica replica(primary.address(), primary.port());
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));
  Follower::Stats stats = replica.follower->GetStats();
  EXPECT_GE(stats.snapshots_loaded, 1u);

  // The bootstrap replaced the served instance wholesale.
  std::shared_ptr<Cqms> replica_cqms = replica.server->CurrentCqms();
  EXPECT_NE(replica_cqms.get(), &replica.cqms);
  EXPECT_EQ(ViewBytes(&primary.cqms), ViewBytes(replica_cqms.get()));

  auto reader = replica.Client();
  ASSERT_NE(reader, nullptr);
  net::SearchSpec spec;
  spec.keyword = net::KeywordSpec{"Sensors", true};
  spec.limit = 50;
  auto found = reader->Search("alice", spec);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_GT(found->matches.size(), 0u);
}

TEST(ReplicationTest, FollowerRestartCatchesUpFromScratch) {
  Primary primary("repl_follower_restart");
  auto writer = primary.Client();
  ASSERT_NE(writer, nullptr);
  {
    Replica first(primary.address(), primary.port(), "replica-a");
    primary.AppendN(writer.get(), 5, "first-replica");
    ASSERT_TRUE(
        WaitUntil([&] { return first.ConvergedTo(primary.sequence); }));
  }  // Follower killed; primary keeps accepting writes.
  primary.AppendN(writer.get(), 5, "while-down");

  Replica second(primary.address(), primary.port(), "replica-b");
  ASSERT_TRUE(WaitUntil([&] { return second.ConvergedTo(primary.sequence); }));
  std::shared_ptr<Cqms> replica_cqms = second.server->CurrentCqms();
  EXPECT_EQ(ViewBytes(&primary.cqms), ViewBytes(replica_cqms.get()));
}

// --- link fault injection --------------------------------------------------

TEST(ReplicationChaosTest, LinkCutMidFrameLosesNoAckedWrite) {
  Primary primary("repl_chaos_cut");
  ChaosProxy proxy("127.0.0.1", primary.port());
  ASSERT_TRUE(proxy.Start().ok());
  Replica replica(primary.address(), proxy.port(), "chaos-replica");
  auto writer = primary.Client();
  ASSERT_NE(writer, nullptr);
  primary.AppendN(writer.get(), 5, "before-cut");
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));

  // Sever the stream mid-frame (the budget lands inside a frame almost
  // surely) with a slow link, then keep writing: every write below is
  // acked by the primary and must survive to the replica.
  proxy.SetDelayMs(5);
  proxy.CutAfter(64);
  primary.AppendN(writer.get(), 5, "during-cut");
  ASSERT_TRUE(WaitUntil([&] {
    return replica.follower->GetStats().reconnects >= 1;
  })) << "cut link never triggered a reconnect";
  proxy.CutAfter(-1);  // Heal the link.
  proxy.SetDelayMs(0);
  primary.AppendN(writer.get(), 5, "after-heal");

  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }))
      << "replica never converged after link cut";
  Follower::Stats stats = replica.follower->GetStats();
  EXPECT_GE(stats.reconnects, 1u);
  std::shared_ptr<Cqms> replica_cqms = replica.server->CurrentCqms();
  EXPECT_EQ(ViewBytes(&primary.cqms), ViewBytes(replica_cqms.get()))
      << "acked writes lost or diverged across the cut";
  replica.Stop();
  proxy.Stop();
}

TEST(ReplicationChaosTest, CorruptedStreamRecoversAndConverges) {
  Primary primary("repl_chaos_corrupt");
  ChaosProxy proxy("127.0.0.1", primary.port());
  ASSERT_TRUE(proxy.Start().ok());
  Replica replica(primary.address(), proxy.port(), "corrupt-replica");
  auto writer = primary.Client();
  ASSERT_NE(writer, nullptr);
  primary.AppendN(writer.get(), 4, "clean");
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }));

  // Flip one bit in the next downstream chunk. Depending on where it
  // lands the follower sees a CRC divergence (forced snapshot
  // re-bootstrap) or a framing error (reconnect); both must converge to
  // byte-identical state with zero acked-write loss.
  proxy.CorruptNext();
  primary.AppendN(writer.get(), 4, "through-corruption");
  ASSERT_TRUE(WaitUntil([&] { return replica.ConvergedTo(primary.sequence); }))
      << "replica never recovered from stream corruption";
  Follower::Stats stats = replica.follower->GetStats();
  EXPECT_GE(stats.crc_failures + stats.gaps_detected + stats.reconnects, 1u)
      << "corruption was never even noticed";
  std::shared_ptr<Cqms> replica_cqms = replica.server->CurrentCqms();
  EXPECT_EQ(ViewBytes(&primary.cqms), ViewBytes(replica_cqms.get()));
  replica.Stop();
  proxy.Stop();
}

// --- hostile primary -------------------------------------------------------

/// A loopback listener that plays the primary's side of the replication
/// protocol from a script, through the public net:: codecs, so it can
/// announce what no real primary would.
class ScriptedPrimary {
 public:
  ScriptedPrimary() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }

  ~ScriptedPrimary() {
    CloseConnection();
    ::close(listen_fd_);
  }
  ScriptedPrimary(const ScriptedPrimary&) = delete;
  ScriptedPrimary& operator=(const ScriptedPrimary&) = delete;

  uint16_t port() const { return port_; }
  const net::ReplSubscribeRequest& subscription() const { return subscription_; }

  /// Accepts the follower's next connection, answers its handshake, and
  /// answers its subscription with a snapshot bootstrap. False when no
  /// follower arrives in time or it says something unexpected.
  bool AcceptSubscriber() {
    CloseConnection();
    if (!WaitReadable(listen_fd_)) return false;
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd_ < 0) return false;
    decoder_ = FrameDecoder();

    net::RequestEnvelope env;
    if (!ReadRequest(&env) || env.op != net::Op::kHello) return false;
    BinaryWriter hello;
    net::BeginResponse(&hello, env.request_id, net::Op::kHello);
    net::EncodeHelloResponse(&hello, net::HelloResponse{});
    Send(hello);

    if (!ReadRequest(&env) || env.op != net::Op::kReplSubscribe) return false;
    BinaryReader r(env.body);
    if (!net::DecodeReplSubscribeRequest(&r, &subscription_)) return false;
    subscribe_id_ = env.request_id;
    BinaryWriter result;
    net::BeginResponse(&result, subscribe_id_, net::Op::kReplSubscribe);
    net::ReplSubscribeResult subscribed;
    subscribed.snapshot_bootstrap = true;
    net::EncodeReplSubscribeResult(&result, subscribed);
    Send(result);
    return true;
  }

  void SendSnapshotBegin(uint64_t total_bytes) {
    net::ReplSnapshotBegin begin;
    begin.total_bytes = total_bytes;
    BinaryWriter w = StreamMessage(net::ReplStreamKind::kSnapshotBegin);
    net::EncodeReplSnapshotBegin(&w, begin);
    Send(w);
  }

  void SendSnapshotChunk(std::string data) {
    net::ReplSnapshotChunk chunk;
    chunk.data = std::move(data);
    BinaryWriter w = StreamMessage(net::ReplStreamKind::kSnapshotChunk);
    net::EncodeReplSnapshotChunk(&w, chunk);
    Send(w);
  }

  void SendSnapshotEnd() {
    Send(StreamMessage(net::ReplStreamKind::kSnapshotEnd));
  }

  /// True once the follower hangs up.
  bool WaitForHangUp() {
    char buf[4096];
    while (WaitReadable(conn_fd_)) {
      if (::recv(conn_fd_, buf, sizeof(buf), 0) <= 0) return true;
    }
    return false;
  }

 private:
  static bool WaitReadable(int fd) {
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 10000) == 1;
  }

  bool ReadRequest(net::RequestEnvelope* env) {
    while (true) {
      switch (decoder_.Poll(&payload_)) {
        case FrameDecoder::Next::kFrame:
          return net::DecodeRequestEnvelope(payload_, env);
        case FrameDecoder::Next::kError:
          return false;
        case FrameDecoder::Next::kNeedMore:
          break;
      }
      char buf[4096];
      if (!WaitReadable(conn_fd_)) return false;
      ssize_t n = ::recv(conn_fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

  BinaryWriter StreamMessage(net::ReplStreamKind kind) const {
    BinaryWriter w;
    net::BeginResponse(&w, subscribe_id_, net::Op::kReplStream);
    w.PutU8(static_cast<uint8_t>(kind));
    return w;
  }

  /// Best effort: the follower may already have hung up.
  void Send(const BinaryWriter& w) {
    std::string frame;
    AppendFrame(&frame, w.data());
    size_t sent = 0;
    while (sent < frame.size()) {
      ssize_t n = ::send(conn_fd_, frame.data() + sent, frame.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  void CloseConnection() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    conn_fd_ = -1;
  }

  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
  FrameDecoder decoder_;
  std::string payload_;
  uint64_t subscribe_id_ = 0;
  net::ReplSubscribeRequest subscription_;
};

// The follower used to reserve the announced bootstrap size before any
// chunk arrived, so a primary announcing 2^50 bytes ended the follower
// process with an uncaught exception. The image now grows only with the
// chunks that arrive, and a stream that overruns its announced size is
// refused at once. Either way the follower counts a verification
// failure, hangs up and asks the next connection for a fresh snapshot.
TEST(ReplicationTest, FollowerRefusesBootstrapSizeTheStreamDoesNotMatch) {
  ScriptedPrimary primary;
  Replica replica("127.0.0.1:" + std::to_string(primary.port()),
                  primary.port());

  ASSERT_TRUE(primary.AcceptSubscriber());
  primary.SendSnapshotBegin(uint64_t{1} << 50);
  primary.SendSnapshotChunk(std::string(4096, 'x'));
  primary.SendSnapshotEnd();
  EXPECT_TRUE(primary.WaitForHangUp());
  EXPECT_TRUE(WaitUntil(
      [&] { return replica.follower->GetStats().crc_failures == 1; }));

  ASSERT_TRUE(primary.AcceptSubscriber());
  EXPECT_TRUE(primary.subscription().force_snapshot);
  primary.SendSnapshotBegin(16);
  primary.SendSnapshotChunk(std::string(64, 'y'));  // no End follows
  EXPECT_TRUE(primary.WaitForHangUp());
  EXPECT_TRUE(WaitUntil(
      [&] { return replica.follower->GetStats().crc_failures == 2; }));

  Follower::Stats stats = replica.follower->GetStats();
  EXPECT_EQ(stats.snapshots_loaded, 0u);
  EXPECT_EQ(replica.server->CurrentCqms()->store()->size(), 0u);
  replica.Stop();
}

// --- client deadlines ------------------------------------------------------

TEST(ClientDeadlineTest, HungServerYieldsTypedDeadlineExceeded) {
  // A listener that accepts into its backlog but never answers the
  // handshake: without a deadline Connect would hang forever.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t port = ntohs(addr.sin_port);

  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.timeout_ms = 200;
  auto start = std::chrono::steady_clock::now();
  auto r = CqmsClient::Connect("127.0.0.1", port, options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << r.status();
  EXPECT_LT(elapsed.count(), 5000);
  ::close(fd);
}

TEST(ClientDeadlineTest, TimeoutsDoNotBreakHealthySessions) {
  Primary primary("repl_deadline_healthy");
  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.timeout_ms = 5000;
  auto r = CqmsClient::Connect("127.0.0.1", primary.port(), options);
  ASSERT_TRUE(r.ok()) << r.status();
  auto stats = (*r)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->role, 1);

  // Pipelined path under a deadline.
  uint64_t id1 = (*r)->SendStats();
  uint64_t id2 = (*r)->SendStats();
  ASSERT_TRUE((*r)->Flush().ok());
  EXPECT_TRUE((*r)->WaitStats(id2).ok());
  EXPECT_TRUE((*r)->WaitStats(id1).ok());
}

}  // namespace
}  // namespace cqms::repl
