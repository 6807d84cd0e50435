// Tests for the table-driven wire layer (src/net/wire.h): the op table,
// byte-for-byte equality with the golden bodies the hand-written
// protocol 1.2 codecs wrote (tests/data/wire_golden.txt), a seeded
// mutation loop over every message decoder, forged element counts, and
// version skew between a newer server and this client.

#include "net/wire.h"

#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "allocation_probe.h"
#include "common/frame_codec.h"
#include "common/rng.h"
#include "netclient/client.h"
#include "wire_corpus.h"

namespace cqms::net {
namespace {

using testing_util::LargestAllocationDuring;
using wiretest::DecodeMessage;
using wiretest::EncodeMessage;
using wiretest::EncodeToString;

std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::map<std::string, std::string> LoadGolden() {
  std::ifstream in(std::string(CQMS_TEST_DATA_DIR) + "/wire_golden.txt");
  EXPECT_TRUE(in.good());
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.find(' ');
    golden[line.substr(0, space)] =
        space == std::string::npos ? "" : FromHex(line.substr(space + 1));
  }
  return golden;
}

// --- the op table ----------------------------------------------------------

TEST(WireTableTest, RowsNameEveryOpInCodeOrder) {
  ASSERT_EQ(kMaxOp, 18);
  for (const OpInfo& info : kOps) {
    EXPECT_STREQ(OpName(info.op), info.name);
    EXPECT_EQ(&InfoOf(info.op), &info);
  }
  EXPECT_STREQ(OpName(Op::kReplAck), "ReplAck");
  EXPECT_STREQ(OpName(static_cast<Op>(0)), "Unknown");
  EXPECT_STREQ(OpName(static_cast<Op>(kMaxOp + 1)), "Unknown");

  // The routing the server and docs/server.md rely on.
  EXPECT_EQ(InfoOf(Op::kSearch).runs, Runs::kWorker);
  EXPECT_EQ(InfoOf(Op::kBrowse).runs, Runs::kWriter);
  EXPECT_EQ(InfoOf(Op::kStats).runs, Runs::kLoop);
  EXPECT_EQ(InfoOf(Op::kReplSubscribe).runs, Runs::kWriter);
  EXPECT_EQ(InfoOf(Op::kReplAck).runs, Runs::kLoop);
  std::set<std::string> follower_serves;
  for (const OpInfo& info : kOps) {
    if (info.follower_serves) follower_serves.insert(info.name);
  }
  EXPECT_EQ(follower_serves,
            (std::set<std::string>{"Hello", "Search", "Recommend", "Browse",
                                   "ShowSession", "Stats", "MetricsDump"}));
}

// --- golden bytes ----------------------------------------------------------

TEST(WireGoldenTest, CorpusEncodesToTheGoldenBytes) {
  std::map<std::string, std::string> golden = LoadGolden();
  size_t samples = 0;
  wiretest::ForEachSample([&](const std::string& name, const auto& m,
                              size_t cut) {
    ++samples;
    auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << name << " missing from the fixture";
    std::string full = EncodeToString(m);
    ASSERT_GE(full.size(), cut) << name;
    std::string body = full.substr(0, full.size() - cut);
    EXPECT_EQ(wiretest::ToHex(body), wiretest::ToHex(it->second)) << name;

    // Every fixture body decodes and uses up its bytes; re-encoding
    // gives back the full body (a truncated one gains its defaults).
    std::decay_t<decltype(m)> decoded;
    BinaryReader r(it->second);
    ASSERT_TRUE(DecodeMessage(&r, &decoded)) << name;
    EXPECT_TRUE(r.AtEnd()) << name;
    EXPECT_EQ(wiretest::ToHex(EncodeToString(decoded)), wiretest::ToHex(full))
        << name;
  });
  EXPECT_EQ(samples, golden.size());
  EXPECT_GE(samples, 25u * (2 + wiretest::kRandomPerMessage));
}

// --- hostile bytes ---------------------------------------------------------

/// Mutates `body` in one of several ways: bit flip, byte overwrite,
/// truncation, inserted byte, or a large varint spliced in.
std::string Mutate(const std::string& body, Rng* rng) {
  std::string out = body;
  size_t pos = out.empty() ? 0 : rng->Uniform(out.size());
  switch (rng->Uniform(5)) {
    case 0:
      if (!out.empty()) out[pos] ^= static_cast<char>(1u << rng->Uniform(8));
      break;
    case 1:
      if (!out.empty()) out[pos] = static_cast<char>(rng->Next());
      break;
    case 2:
      out.resize(pos);
      break;
    case 3:
      out.insert(out.begin() + pos, static_cast<char>(rng->Next()));
      break;
    default: {
      BinaryWriter w;
      w.PutVarint(rng->Next() >> rng->Uniform(64));
      out.insert(pos, w.data());
      break;
    }
  }
  return out;
}

TEST(WireFuzzTest, SeededMutationsDecodeOrFailCleanly) {
  Rng rng(0x5eedf00d);
  size_t accepted = 0, rejected = 0;
  wiretest::ForEachSample([&](const std::string& name, const auto& m,
                              size_t) {
    using M = std::decay_t<decltype(m)>;
    const std::string body = EncodeToString(m);
    for (int i = 0; i < 200; ++i) {
      std::string mutated = Mutate(body, &rng);
      if (rng.Uniform(4) == 0) mutated = Mutate(mutated, &rng);
      M decoded;
      BinaryReader r(mutated);
      if (!DecodeMessage(&r, &decoded)) {
        ++rejected;
        continue;
      }
      ++accepted;
      // What decodes re-encodes to a body that decodes to itself.
      std::string again = EncodeToString(decoded);
      M twice;
      BinaryReader r2(again);
      ASSERT_TRUE(DecodeMessage(&r2, &twice)) << name;
      EXPECT_TRUE(r2.AtEnd()) << name;
      EXPECT_EQ(EncodeToString(twice), again) << name;
    }
  });
  // The loop reaches both outcomes for the corpus as a whole.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// A count is trusted only as far as the bytes behind it: splicing a
// large count followed by that many undecodable bytes anywhere into a
// body must not make any decoder allocate more than the bytes present.
// (Reserving the claimed count would allocate 24+ bytes per element.)
TEST(WireFuzzTest, ForgedCountsAllocateOnlyWhatTheBytesHold) {
  constexpr size_t kForged = 16 << 10;
  BinaryWriter forged;
  forged.PutVarint(kForged);
  const std::string tail = forged.data() + std::string(kForged, '\xff');
  size_t decodes = 0;
  wiretest::ForEachSample([&](const std::string& name, const auto& m,
                              size_t) {
    if (name.find("/edges") == std::string::npos) return;
    using M = std::decay_t<decltype(m)>;
    const std::string body = EncodeToString(m);
    for (size_t at = 0; at <= body.size(); ++at) {
      const std::string hostile = body.substr(0, at) + tail;
      size_t largest = LargestAllocationDuring([&] {
        M decoded;
        BinaryReader r(hostile);
        DecodeMessage(&r, &decoded);
      });
      ++decodes;
      ASSERT_LE(largest, 2 * kForged) << name << " at byte " << at;
    }
  });
  EXPECT_GT(decodes, 1000u);
}

// --- version skew ----------------------------------------------------------

/// A listener that answers every request of one connection with its
/// op's default OK response plus one trailing byte — what a server one
/// minor revision newer than this client would send.
class NewerServer {
 public:
  NewerServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~NewerServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  NewerServer(const NewerServer&) = delete;
  NewerServer& operator=(const NewerServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  static std::string ResponseBody(Op op) {
    BinaryWriter w;
    switch (op) {
#define CQMS_TEST_RESPONSE_BODY(name, code, request, response, ...) \
  case Op::k##name:                                                 \
    EncodeBody(&w, response{});                                     \
    break;
      CQMS_NET_OPS(CQMS_TEST_RESPONSE_BODY)
#undef CQMS_TEST_RESPONSE_BODY
    }
    return w.Take();
  }

  void Serve() {
    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, 10000) != 1) return;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    FrameDecoder decoder(kDefaultMaxFrameBytes);
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      decoder.Feed(buf, static_cast<size_t>(n));
      std::string payload;
      while (decoder.Poll(&payload) == FrameDecoder::Next::kFrame) {
        RequestEnvelope env;
        if (!DecodeRequestEnvelope(payload, &env)) break;
        BinaryWriter w;
        BeginResponse(&w, env.request_id, env.op);
        std::string frame;
        AppendFrame(&frame, w.data() + ResponseBody(env.op) + "\x2a");
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(WireSkewTest, ClientIgnoresANewerServersTrailingResponseFields) {
  NewerServer server;
  {
    auto client = netclient::CqmsClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE((*client)->Stats().ok());
    EXPECT_TRUE((*client)->Search("alice", SearchSpec{}).ok());
    EXPECT_TRUE((*client)->Append(AppendRequest{"alice", "SELECT 1", true}).ok());
    EXPECT_TRUE((*client)->Rewrite(1, "SELECT 2").ok());
    EXPECT_TRUE((*client)->Browse("alice").ok());
    EXPECT_TRUE((*client)->MetricsDump().ok());
  }  // closing the connection ends the scripted server
}

}  // namespace
}  // namespace cqms::net
