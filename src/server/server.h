#ifndef CQMS_SERVER_SERVER_H_
#define CQMS_SERVER_SERVER_H_

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

#include "common/frame_codec.h"
#include "common/result.h"
#include "common/status.h"
#include "core/cqms.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "repl/follower_host.h"

namespace cqms::repl {
class Follower;
class WalShipper;
}  // namespace cqms::repl

namespace cqms::server {

/// Server identity reported by Hello and Stats. The minor revision
/// tracks net::kProtocolMinorVersion (backward-compatible additions).
constexpr char kServerVersion[] = "cqms_serverd/1 proto 1.2";

struct ServerOptions {
  /// Bind address. The daemon is loopback-by-default: exposing a lab's
  /// query history beyond the host is an explicit operator decision.
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (tests, benches); read the
  /// outcome from CqmsServer::port().
  uint16_t port = 0;

  /// Read-op worker threads (Search, Recommend): each executes against a
  /// pinned immutable read view, so they scale with cores and never
  /// block the writer.
  size_t workers = 4;

  /// Accepted-connection ceiling; excess connections are accepted and
  /// immediately closed (counted in Stats as rejected).
  size_t max_conns = 256;
  /// Per-frame payload ceiling, enforced before any payload byte is
  /// trusted. Oversized frames are a protocol error: typed response,
  /// then disconnect.
  size_t max_frame_bytes = 4u << 20;
  /// Close connections with no complete frame for this long (0 = never).
  /// In-flight requests keep a connection alive.
  int64_t idle_timeout_ms = 60000;
  /// Requests that wait in a dispatch queue longer than this are
  /// answered with kDeadlineExceeded instead of executing — a stuck
  /// writer or a hostile flood cannot pin every worker behind stale
  /// work (0 = never).
  int64_t request_timeout_ms = 10000;
  /// Per-connection response backlog ceiling; a client that stops
  /// reading while pipelining is disconnected past this.
  size_t max_outbox_bytes = 64u << 20;

  /// Searches slower than this (planner execution, microseconds) are
  /// appended to the slow-query log with their trace summary. 0
  /// disables slow-query logging entirely.
  int64_t slow_query_micros = 0;
  /// JSONL file the slow-query log appends to. Empty with
  /// slow_query_micros set is a Start() error.
  std::string slow_query_log_path;

  /// Non-empty ("host:port") runs the server as a live read replica of
  /// that primary: reads (Search, Recommend, Browse, ShowSession, Stats,
  /// MetricsDump) are served from the replicated store, every mutation
  /// is rejected with a typed kNotPrimary carrying this address so
  /// failover clients can redirect. The daemon wires a repl::Follower
  /// to the server's writer thread (docs/replication.md).
  std::string follow_primary;
  /// Primary only: heartbeat cadence on replication subscriptions, the
  /// followers' liveness signal during write silence. Effective
  /// granularity is bounded below by the event-loop poll timeout
  /// (~100ms). 0 disables heartbeats.
  int64_t repl_heartbeat_ms = 500;
};

/// Lock-free per-op counters. Latencies go into an obs::Histogram
/// (power-of-two microsecond buckets); percentiles are the upper bound
/// of the bucket holding the requested rank, clamped to the observed
/// min/max, and 0 for an op never recorded (2x-granular,
/// allocation-free).
struct OpCounters {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  obs::Histogram latency;

  void RecordLatency(uint64_t micros) { latency.Record(micros); }
  uint64_t Percentile(double p) const { return latency.Percentile(p); }
  uint64_t max_micros() const { return latency.max(); }
};

/// The CQMS network daemon core: one epoll event-loop thread owning
/// every socket, a worker pool executing read ops against pinned read
/// views, and one writer thread owning every mutation — the
/// process-level materialization of the store's single-writer /
/// multi-reader contract (docs/server.md). Each op's thread and reply
/// types come from the net::CQMS_NET_OPS table.
///
/// Responses may be sent out of order; clients pipeline batches of
/// requests and match responses by request id.
class CqmsServer : public repl::FollowerHost {
 public:
  /// `cqms` must outlive the server. All prior setup (EnableDurability,
  /// seeding) must happen before Start(); after Start() the server's
  /// writer thread owns all mutations. In follower mode the instance
  /// may later be replaced wholesale through InstallCqms (snapshot
  /// re-bootstrap) — the original must still outlive the server.
  CqmsServer(Cqms* cqms, ServerOptions options = {});
  ~CqmsServer() override;

  CqmsServer(const CqmsServer&) = delete;
  CqmsServer& operator=(const CqmsServer&) = delete;

  /// Binds, listens and spawns the loop, worker and writer threads.
  Status Start();

  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Begins a graceful shutdown: stop accepting, stop reading, finish
  /// every queued request, flush every response, final checkpoint when
  /// durability is enabled, then exit the threads. Async-signal-safe
  /// (a SIGTERM handler may call it directly).
  void RequestShutdown();

  /// Blocks until a requested shutdown completes. Idempotent.
  void Wait();

  /// RequestShutdown + Wait (also run by the destructor if needed).
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Snapshot of the Stats op's payload (also served over the wire).
  net::StatsResult StatsSnapshot() const;

  // --- repl::FollowerHost --------------------------------------------------

  /// Runs `fn` on the writer thread, blocking until it completes. Every
  /// successfully enqueued closure is guaranteed to run (the writer
  /// drains its queue before exiting); once the queue has stopped the
  /// call fails fast with kUnavailable instead of enqueueing.
  Status RunOnWriter(std::function<Status()> fn) override;

  /// Atomically swaps the instance served to new requests. In-flight
  /// handlers finish against the instance they grabbed at task start.
  void InstallCqms(std::shared_ptr<Cqms> cqms) override;

  /// Follower mode: lets StatsSnapshot report replication link health.
  /// Call before Start(); the follower must outlive the server's Wait().
  void SetFollower(repl::Follower* follower) { follower_ = follower; }

  /// The instance currently serving requests. Normally the constructor
  /// argument; in follower mode a snapshot re-bootstrap swaps it. The
  /// replication tests reach through this to compare replica state
  /// byte-for-byte against the primary.
  std::shared_ptr<Cqms> CurrentCqms() const { return current_cqms(); }

 private:
  struct Connection;
  struct Task;
  class TaskQueue;
  /// Returned by a handler that sent its own response frames.
  struct Answered {};

  void LoopThread();
  void WorkerThread();
  void WriterThread();

  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Routes one request by its op's table row: rejects it, runs it
  /// inline, or queues it for a worker or the writer.
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     std::string payload);
  /// Appends one response frame to the connection's outbox and wakes
  /// the loop (callable from any thread; drops silently once closed).
  void SendPayload(const std::shared_ptr<Connection>& conn,
                   const std::string& payload);
  /// The one error reply: counts the error, encodes the typed status.
  std::string ErrorPayload(uint64_t request_id, net::Op op,
                           const Status& error);
  /// Stops reading `conn` and closes it once its outbox is flushed.
  void CloseAfterFlush(const std::shared_ptr<Connection>& conn);
  /// (Re)arms epoll interest in `fd` (EPOLL_CTL_ADD or _MOD).
  Status Watch(int fd, int ctl, bool want_read, bool want_write);
  /// Writes pending outbox bytes; arms/disarms EPOLLOUT. Loop thread.
  void FlushConn(const std::shared_ptr<Connection>& conn);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  void SweepIdle();
  void NotifyLoop();

  /// Runs a request (any thread), then sends its reply and updates the
  /// op's counters.
  void ExecuteTask(const Task& task);
  /// The single request path: decode the body (it must be used up),
  /// call the op's handler, encode its result or the typed error.
  template <net::Op kOp, auto kHandler>
  std::string Serve(const Task& task);

  // One handler per row of the op table, Handle<name>: it gets the
  // decoded request and returns the response or an error. Worker ops
  // run against pinned read views; writer ops on the writer thread.
  using Empty = net::Empty;
  Result<net::HelloResponse> HandleHello(const Task&, const net::HelloRequest&);
  Result<net::SearchResult> HandleSearch(const Task&, const net::SearchRequest&);
  Result<net::AppendResult> HandleAppend(const Task&, const net::AppendRequest&);
  Result<Empty> HandleRewrite(const Task&, const net::RewriteRequest&);
  Result<Empty> HandleAnnotate(const Task&, const net::AnnotateRequest&);
  Result<Empty> HandleSetVisibility(const Task&,
                                    const net::SetVisibilityRequest&);
  Result<Empty> HandleDelete(const Task&, const net::DeleteRequest&);
  Result<net::RecommendResult> HandleRecommend(const Task&,
                                               const net::RecommendRequest&);
  Result<net::TextResult> HandleBrowse(const Task&, const net::BrowseRequest&);
  Result<net::TextResult> HandleShowSession(const Task&,
                                            const net::ShowSessionRequest&);
  Result<net::StatsResult> HandleStats(const Task&, const Empty&);
  Result<Empty> HandleCheckpoint(const Task&, const Empty&);
  Result<Empty> HandleRegisterUser(const Task&,
                                   const net::RegisterUserRequest&);
  Result<Empty> HandleMaintain(const Task&, const net::MaintainRequest&);
  Result<net::TextResult> HandleMetricsDump(const Task&, const Empty&);
  Result<Answered> HandleReplSubscribe(const Task&,
                                       const net::ReplSubscribeRequest&);
  Result<Empty> HandleReplStream(const Task&, const Empty&);
  Result<Empty> HandleReplAck(const Task&, const net::ReplAckRequest&);

  OpCounters& CountersFor(net::Op op);
  const OpCounters& CountersFor(net::Op op) const;

  /// The instance new requests execute against. Normally the
  /// constructor argument (non-owning alias); in follower mode,
  /// InstallCqms replaces it with a restored instance.
  std::shared_ptr<Cqms> current_cqms() const;

  bool follower_mode() const { return !options_.follow_primary.empty(); }

  /// The constructor argument: primary-only wiring (shipper, final
  /// checkpoint) that never survives an InstallCqms swap goes through
  /// this, never through current_cqms().
  Cqms* cqms_;
  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  int epoll_fd_ = -1;

  std::thread loop_thread_;
  std::vector<std::thread> worker_threads_;
  std::thread writer_thread_;

  std::unique_ptr<TaskQueue> read_queue_;
  std::unique_ptr<TaskQueue> write_queue_;

  // Loop-thread-owned connection table.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  // Connections with freshly enqueued output, handed from any thread to
  // the loop thread.
  std::mutex pending_out_mu_;
  std::vector<std::shared_ptr<Connection>> pending_out_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> active_conns_{0};
  std::atomic<uint64_t> total_conns_{0};
  std::atomic<uint64_t> rejected_conns_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  int64_t start_micros_ = 0;

  /// Indexed by raw op value (kMinOp..kMaxOp); slot 0 unused.
  OpCounters op_counters_[net::kMaxOp + 1];

  /// Open iff options_.slow_query_micros > 0 (see Start()).
  obs::SlowQueryLog slow_log_;

  /// Primary with durability: WAL shipping engine, hooked into the
  /// DurableStore for the server's lifetime (Start..Wait).
  std::unique_ptr<repl::WalShipper> shipper_;
  /// Follower mode: borrowed link-health source for Stats (see
  /// SetFollower); null until the daemon wires it.
  repl::Follower* follower_ = nullptr;

  mutable std::mutex cqms_mu_;
  std::shared_ptr<Cqms> live_cqms_;  ///< See current_cqms().

  std::mutex lifecycle_mu_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace cqms::server

#endif  // CQMS_SERVER_SERVER_H_
