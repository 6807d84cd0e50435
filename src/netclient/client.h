#ifndef CQMS_NETCLIENT_CLIENT_H_
#define CQMS_NETCLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/frame_codec.h"
#include "common/result.h"
#include "common/status.h"
#include "net/wire.h"

namespace cqms::netclient {

struct ClientOptions {
  /// Reported to the server in the Hello handshake (logs, debugging).
  std::string client_name = "cqms_client";
  /// Ceiling on response frames this client will accept.
  size_t max_frame_bytes = 64u << 20;
  /// TCP connect deadline; 0 blocks indefinitely (kernel default). A
  /// partitioned or blackholed server yields kDeadlineExceeded instead
  /// of hanging the caller.
  int64_t connect_timeout_ms = 0;
  /// Per-socket-operation deadline (SO_RCVTIMEO/SO_SNDTIMEO) applied to
  /// every request path, one-shot and pipelined; 0 blocks indefinitely.
  /// An expired deadline surfaces as a *sticky* kDeadlineExceeded: the
  /// response stream position is unknown, so the connection is dead —
  /// reconnect to retry.
  int64_t timeout_ms = 0;
};

/// Synchronous client for the CQMS wire protocol (docs/server.md) with
/// explicit pipelining. Send<op>(request) encodes a request of any op
/// in the net::CQMS_NET_OPS table into a local buffer and returns its
/// request id; Flush() pushes the batch down the socket in one write;
/// Wait<op>(id) blocks for that specific response, parking any other
/// responses that arrive first (the server answers out of order: reads
/// overtake writes). Call<op> is the one-shot Send + Flush + Wait, and
/// each named method below is one Call.
///
/// Not thread-safe: one CqmsClient per thread, or external locking.
class CqmsClient {
 public:
  /// Connects and runs the version handshake; fails on connection
  /// errors and on protocol version mismatch.
  static Result<std::unique_ptr<CqmsClient>> Connect(const std::string& host,
                                                     uint16_t port,
                                                     ClientOptions options = {});
  ~CqmsClient();

  CqmsClient(const CqmsClient&) = delete;
  CqmsClient& operator=(const CqmsClient&) = delete;

  /// Handshake results.
  const net::HelloResponse& server_hello() const { return hello_; }

  // --- any op --------------------------------------------------------------

  template <net::Op kOp>
  uint64_t Send(const net::RequestOf<kOp>& request) {
    uint64_t id = next_request_id_++;
    BinaryWriter w;
    net::BeginRequest(&w, id, kOp);
    net::EncodeBody(&w, request);
    AppendFrame(&sendbuf_, w.data());
    return id;
  }

  /// A response decodes from the fields this client knows; trailing
  /// fields from a newer server are ignored.
  template <net::Op kOp>
  Result<net::ResponseOf<kOp>> Wait(uint64_t request_id) {
    std::string payload;
    std::string_view body;
    Status s = WaitBody(request_id, kOp, &payload, &body);
    if (!s.ok()) return s;
    net::ResponseOf<kOp> out;
    BinaryReader r(body);
    if (!net::DecodeBody(&r, &out)) {
      return Status::Corruption(std::string("malformed ") + net::OpName(kOp) +
                                " response body");
    }
    return out;
  }

  template <net::Op kOp>
  Result<net::ResponseOf<kOp>> Call(const net::RequestOf<kOp>& request) {
    uint64_t id = Send<kOp>(request);
    Status s = Flush();
    if (!s.ok()) return s;
    return Wait<kOp>(id);
  }

  /// Writes every buffered request down the socket.
  Status Flush();

  // --- one-shot synchronous wrappers ---------------------------------------

  Result<net::SearchResult> Search(const std::string& viewer,
                                   const net::SearchSpec& spec) {
    return Call<net::Op::kSearch>({viewer, spec});
  }
  Result<net::AppendResult> Append(const net::AppendRequest& request) {
    return Call<net::Op::kAppend>(request);
  }
  Status Rewrite(int64_t id, const std::string& new_text) {
    return Call<net::Op::kRewrite>({id, new_text}).status();
  }
  Status Annotate(int64_t id, const std::string& author, const std::string& text,
                  const std::string& fragment = "") {
    return Call<net::Op::kAnnotate>({id, author, text, fragment}).status();
  }
  Status SetVisibility(const std::string& requester, int64_t id,
                       storage::Visibility visibility) {
    return Call<net::Op::kSetVisibility>({requester, id, visibility}).status();
  }
  Status Delete(const std::string& requester, int64_t id, bool is_admin = false) {
    return Call<net::Op::kDelete>({requester, id, is_admin}).status();
  }
  Status RegisterUser(const std::string& user,
                      const std::vector<std::string>& groups) {
    return Call<net::Op::kRegisterUser>({user, groups}).status();
  }
  Result<net::RecommendResult> Recommend(const std::string& viewer,
                                         const std::string& sql_text,
                                         uint64_t k = 5) {
    return Call<net::Op::kRecommend>({viewer, sql_text, k});
  }
  Result<std::string> Browse(const std::string& viewer,
                             uint64_t max_sessions = 20) {
    return Text(Call<net::Op::kBrowse>({viewer, max_sessions}));
  }
  Result<std::string> ShowSession(const std::string& viewer,
                                  int64_t session_id) {
    return Text(Call<net::Op::kShowSession>({viewer, session_id}));
  }
  Result<net::StatsResult> Stats() { return Call<net::Op::kStats>({}); }
  /// Prometheus-style exposition text covering every layer's metric
  /// series plus the server's own per-op counters.
  Result<std::string> MetricsDump() {
    return Text(Call<net::Op::kMetricsDump>({}));
  }
  Status Checkpoint() { return Call<net::Op::kCheckpoint>({}).status(); }
  Status Maintain(bool run_mining = true) {
    return Call<net::Op::kMaintain>({run_mining}).status();
  }

  // --- pipelining ----------------------------------------------------------

  uint64_t SendSearch(const std::string& viewer, const net::SearchSpec& spec) {
    return Send<net::Op::kSearch>({viewer, spec});
  }
  uint64_t SendAppend(const net::AppendRequest& request) {
    return Send<net::Op::kAppend>(request);
  }
  uint64_t SendRecommend(const std::string& viewer, const std::string& sql_text,
                         uint64_t k = 5) {
    return Send<net::Op::kRecommend>({viewer, sql_text, k});
  }
  uint64_t SendStats() { return Send<net::Op::kStats>({}); }

  Result<net::SearchResult> WaitSearch(uint64_t request_id) {
    return Wait<net::Op::kSearch>(request_id);
  }
  Result<net::AppendResult> WaitAppend(uint64_t request_id) {
    return Wait<net::Op::kAppend>(request_id);
  }
  Result<net::RecommendResult> WaitRecommend(uint64_t request_id) {
    return Wait<net::Op::kRecommend>(request_id);
  }
  Result<net::StatsResult> WaitStats(uint64_t request_id) {
    return Wait<net::Op::kStats>(request_id);
  }

  /// Raw escape hatches for tests: frame an arbitrary payload / read one
  /// raw response payload.
  Status SendRawPayload(const std::string& payload);
  Result<std::string> ReadRawPayload();

  /// Shuts the socket down both ways, unblocking any in-progress read
  /// with kUnavailable. The only method safe to call from another
  /// thread; the replication follower's Stop() uses it to interrupt its
  /// streaming thread.
  void Abort();

  /// Sticky transport failure, if any (kOk while the connection is
  /// healthy). Typed server *responses* never set this; a non-OK value
  /// means the response stream position is unknown and the connection
  /// must be abandoned. FailoverClient keys its at-most-once mutation
  /// rule on this: an error with a healthy transport was a server
  /// rejection (safe to retry elsewhere), an error with a broken
  /// transport may have executed (never retried).
  const Status& transport_status() const { return broken_; }

 private:
  CqmsClient(int fd, ClientOptions options);

  /// Blocks until the response for `request_id` is available, filing
  /// out-of-order arrivals in `parked_`.
  Result<std::string> WaitPayload(uint64_t request_id);

  /// Waits for the response to `request_id`, checks its envelope names
  /// `op`, surfaces a typed error, and points `body` into `payload`.
  Status WaitBody(uint64_t request_id, net::Op op, std::string* payload,
                  std::string_view* body);

  static Result<std::string> Text(Result<net::TextResult> result) {
    if (!result.ok()) return result.status();
    return std::move(result->text);
  }

  Status ReadMore();  ///< One blocking read into the decoder.

  int fd_ = -1;
  ClientOptions options_;
  net::HelloResponse hello_;
  uint64_t next_request_id_ = 1;
  std::string sendbuf_;
  FrameDecoder decoder_;
  /// Responses read while waiting for a different id (payload owned).
  std::unordered_map<uint64_t, std::string> parked_;
  /// Sticky transport failure: every later call returns it.
  Status broken_;
};

}  // namespace cqms::netclient

#endif  // CQMS_NETCLIENT_CLIENT_H_
