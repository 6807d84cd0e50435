#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>

#include "obs/log.h"
#include "obs/trace.h"
#include "repl/follower.h"
#include "repl/wal_shipper.h"
#include "sql/diff.h"
#include "storage/record_builder.h"

namespace cqms::server {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::string(strerror(errno)));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

// --- internal types --------------------------------------------------------
// (OpCounters latency lives in obs::Histogram now — see server.h.)

struct CqmsServer::Connection {
  explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

  int fd = -1;
  /// Monotonic accept ordinal, carried into protocol-error log lines so
  /// operators can correlate one misbehaving client across events.
  uint64_t id = 0;
  FrameDecoder decoder;
  bool handshaken = false;
  /// Loop-owned: false once the server stops consuming this
  /// connection's input (protocol error, shutdown drain).
  bool reading = true;
  bool close_after_flush = false;
  int64_t last_active_us = 0;
  std::atomic<int> inflight{0};

  /// Non-zero once this connection subscribed as a replication
  /// follower (written on the writer thread, read at CloseConn on the
  /// loop thread).
  std::atomic<uint64_t> repl_follower_id{0};

  std::mutex out_mu;
  std::string outbox;  ///< Encoded frames awaiting write.
  size_t out_off = 0;
  bool closed = false;     ///< fd closed; drop late responses.
  bool overflow = false;   ///< Outbox ceiling breached; hard-close.
  bool want_write = false; /// Loop-owned: EPOLLOUT currently armed.

  size_t PendingOut() {
    std::lock_guard<std::mutex> lock(out_mu);
    return outbox.size() - out_off;
  }
};

struct CqmsServer::Task {
  std::shared_ptr<Connection> conn;
  uint64_t request_id = 0;
  net::Op op = net::Op::kHello;
  std::string body;
  int64_t enqueue_us = 0;
  /// Non-null: a bare writer-thread closure (replication frame apply)
  /// instead of a wire request; every other field is ignored.
  std::function<void()> work;
};

class CqmsServer::TaskQueue {
 public:
  /// False once stopped (and drained).
  bool Pop(Task* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stopped_ || !tasks_.empty(); });
    if (tasks_.empty()) return false;
    *out = std::move(tasks_.front());
    tasks_.pop_front();
    return true;
  }

  /// False (task dropped) once Stop() ran. A true return guarantees the
  /// task will be popped: the consumer only exits on stopped + empty,
  /// and Stop and Push serialize on the same mutex — the guarantee
  /// RunOnWriter's unbounded completion wait rests on.
  bool Push(Task task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return false;
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
    return true;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  bool Empty() {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.empty();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  bool stopped_ = false;
};

// --- lifecycle -------------------------------------------------------------

CqmsServer::CqmsServer(Cqms* cqms, ServerOptions options)
    : cqms_(cqms), options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  // Non-owning alias: the caller keeps ownership of the initial
  // instance. InstallCqms may later swap in an owned replacement.
  live_cqms_ = std::shared_ptr<Cqms>(cqms, [](Cqms*) {});
}

CqmsServer::~CqmsServer() {
  Shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::shared_ptr<Cqms> CqmsServer::current_cqms() const {
  std::lock_guard<std::mutex> lock(cqms_mu_);
  return live_cqms_;
}

void CqmsServer::InstallCqms(std::shared_ptr<Cqms> cqms) {
  std::lock_guard<std::mutex> lock(cqms_mu_);
  live_cqms_ = std::move(cqms);
}

Status CqmsServer::RunOnWriter(std::function<Status()> fn) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::Unavailable("server is not running");
  }
  struct Completion {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
  };
  auto completion = std::make_shared<Completion>();
  Task task;
  task.work = [fn = std::move(fn), completion] {
    Status s = fn();
    std::lock_guard<std::mutex> lock(completion->mu);
    completion->status = std::move(s);
    completion->done = true;
    completion->cv.notify_all();
  };
  if (!write_queue_->Push(std::move(task))) {
    return Status::Unavailable("server writer has stopped");
  }
  // Unbounded wait is safe: a successful Push guarantees the writer
  // pops and runs the closure before it exits.
  std::unique_lock<std::mutex> lock(completion->mu);
  completion->cv.wait(lock, [&] { return completion->done; });
  return completion->status;
}

Status CqmsServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::InvalidArgument("server already started");

  if (options_.slow_query_micros > 0) {
    if (options_.slow_query_log_path.empty()) {
      return Status::InvalidArgument(
          "slow_query_micros set but slow_query_log_path is empty");
    }
    if (!slow_log_.Open(options_.slow_query_log_path)) {
      return Status::IoError("cannot open slow-query log: " +
                             options_.slow_query_log_path);
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!SetNonBlocking(listen_fd_)) return ErrnoStatus("fcntl(listen)");

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + options_.host + ":" +
                       std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return ErrnoStatus("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  CQMS_RETURN_IF_ERROR(Watch(listen_fd_, EPOLL_CTL_ADD, true, false));
  CQMS_RETURN_IF_ERROR(Watch(wake_read_fd_, EPOLL_CTL_ADD, true, false));

  // From here on the server's writer thread owns all mutations; turning
  // on the read-view pipeline now (still single-threaded) is safe.
  if (!cqms_->store()->views_enabled()) cqms_->EnableConcurrentReads();

  // Primary with durability: tail the WAL into the shipping engine.
  // Installed before any thread exists, so the writer thread observes
  // the hook from its first mutation.
  if (!follower_mode() && cqms_->durable() != nullptr) {
    shipper_ = std::make_unique<repl::WalShipper>(cqms_->durable_store(),
                                                  cqms_->store());
    cqms_->durable_store()->SetShippingHook(shipper_.get());
  }

  read_queue_ = std::make_unique<TaskQueue>();
  write_queue_ = std::make_unique<TaskQueue>();
  start_micros_ = NowMicros();
  running_.store(true, std::memory_order_release);

  loop_thread_ = std::thread(&CqmsServer::LoopThread, this);
  writer_thread_ = std::thread(&CqmsServer::WriterThread, this);
  worker_threads_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    worker_threads_.emplace_back(&CqmsServer::WorkerThread, this);
  }
  started_ = true;
  return Status::Ok();
}

void CqmsServer::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    char byte = 'x';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void CqmsServer::Shutdown() {
  RequestShutdown();
  Wait();
}

void CqmsServer::Wait() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || joined_) return;
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop drained every queued request and flushed every response
  // before exiting; release the workers and the writer.
  read_queue_->Stop();
  write_queue_->Stop();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  if (writer_thread_.joinable()) writer_thread_.join();
  // The writer is gone: no more WAL appends, safe to unhook shipping.
  if (shipper_ != nullptr) cqms_->durable_store()->SetShippingHook(nullptr);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
  running_.store(false, std::memory_order_release);
  joined_ = true;
}

Status CqmsServer::Watch(int fd, int ctl, bool want_read, bool want_write) {
  epoll_event ev;
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, ctl, fd, &ev) != 0) return ErrnoStatus("epoll_ctl");
  return Status::Ok();
}

void CqmsServer::NotifyLoop() {
  if (wake_write_fd_ >= 0) {
    char byte = 'w';
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

// --- event loop ------------------------------------------------------------

void CqmsServer::LoopThread() {
  epoll_event events[64];
  std::vector<std::shared_ptr<Connection>> flushable;
  int64_t last_sweep_us = NowMicros();
  int64_t last_heartbeat_us = last_sweep_us;
  bool draining = false;

  while (true) {
    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      draining = true;
      if (listen_fd_ >= 0) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Stop consuming input: every already-dispatched request still
      // completes and flushes, nothing new is read.
      for (auto& [fd, conn] : conns_) {
        if (conn->reading) {
          conn->reading = false;
          Watch(fd, EPOLL_CTL_MOD, false, conn->want_write);
        }
      }
    }

    // Flush connections whose outbox grew since the last iteration.
    {
      std::lock_guard<std::mutex> lock(pending_out_mu_);
      flushable.swap(pending_out_);
    }
    for (const std::shared_ptr<Connection>& conn : flushable) {
      if (conn->fd >= 0 && conns_.count(conn->fd) != 0) FlushConn(conn);
    }
    flushable.clear();

    if (draining) {
      bool outboxes_empty = true;
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        if (conn->PendingOut() > 0) {
          outboxes_empty = false;
          break;
        }
      }
      if (inflight_.load(std::memory_order_acquire) == 0 &&
          read_queue_->Empty() && write_queue_->Empty() && outboxes_empty) {
        break;
      }
    }

    int n = epoll_wait(epoll_fd_, events, 64, draining ? 10 : 100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining) AcceptNew();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & EPOLLERR) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) FlushConn(conn);
      if ((events[i].events & (EPOLLIN | EPOLLHUP)) && conns_.count(fd) != 0) {
        HandleReadable(conn);
      }
    }

    // Idle sweep, at most a few times per second.
    int64_t now = NowMicros();
    if (!draining && options_.idle_timeout_ms > 0 &&
        now - last_sweep_us > 200 * 1000) {
      last_sweep_us = now;
      SweepIdle();
    }

    // Replication heartbeats: followers read them as liveness during
    // write silence.
    if (!draining && shipper_ != nullptr && options_.repl_heartbeat_ms > 0 &&
        now - last_heartbeat_us > options_.repl_heartbeat_ms * 1000) {
      last_heartbeat_us = now;
      shipper_->HeartbeatTick();
    }
  }

  // Drained: close everything.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    remaining.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : remaining) CloseConn(conn);
}

void CqmsServer::AcceptNew() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error; retried by epoll.
    if (conns_.size() >= options_.max_conns) {
      rejected_conns_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->last_active_us = NowMicros();
    if (!Watch(fd, EPOLL_CTL_ADD, true, false).ok()) {
      ::close(fd);
      continue;
    }
    conn->id = total_conns_.fetch_add(1, std::memory_order_relaxed) + 1;
    conns_.emplace(fd, std::move(conn));
    active_conns_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CqmsServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  if (!conn->reading) {
    // Still drain the socket so the peer is not wedged on a full send
    // buffer, but discard the bytes.
    char sink[4096];
    while (::read(conn->fd, sink, sizeof(sink)) > 0) {
    }
    return;
  }
  char buf[65536];
  bool peer_closed = false;
  while (true) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      conn->last_active_us = NowMicros();
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;
    break;
  }

  std::string payload;
  while (conn->reading) {
    FrameDecoder::Next next = conn->decoder.Poll(&payload);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kError) {
      // Stream synchronization is lost: answer with a typed protocol
      // error the client can log, then disconnect.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      CQMS_LOG(kWarn, "conn %llu: framing error: %s",
               static_cast<unsigned long long>(conn->id),
               conn->decoder.error().ToString().c_str());
      SendPayload(conn, ErrorPayload(0, net::Op::kHello, conn->decoder.error()));
      CloseAfterFlush(conn);
      break;
    }
    DispatchFrame(conn, std::move(payload));
    if (conns_.count(conn->fd) == 0) return;  // dispatch closed it
  }

  if (peer_closed && conns_.count(conn->fd) != 0) CloseConn(conn);
}

void CqmsServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                               std::string payload) {
  net::RequestEnvelope env;
  if (!net::DecodeRequestEnvelope(payload, &env)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CQMS_LOG(kWarn, "conn %llu: malformed request envelope (%zu bytes)",
             static_cast<unsigned long long>(conn->id), payload.size());
    SendPayload(conn, ErrorPayload(0, net::Op::kHello,
                                   Status::InvalidArgument(
                                       "malformed request envelope")));
    CloseAfterFlush(conn);
    return;
  }

  OpCounters& counters = CountersFor(env.op);
  counters.count.fetch_add(1, std::memory_order_relaxed);
  counters.bytes_in.fetch_add(payload.size() + kFrameHeaderBytes,
                              std::memory_order_relaxed);

  const net::OpInfo& info = net::InfoOf(env.op);
  Status rejected;
  if (!conn->handshaken && env.op != net::Op::kHello) {
    rejected = Status::InvalidArgument("handshake required before any op");
  } else if (stop_requested_.load(std::memory_order_acquire)) {
    rejected = Status::Unavailable("server is shutting down");
  } else if (follower_mode() && !info.follower_serves) {
    // Mutations (and chained replication subscriptions) belong on the
    // primary; the typed error carries its address so failover clients
    // redirect without a config lookup.
    rejected = Status::NotPrimary(net::FormatNotPrimary(options_.follow_primary));
  }
  if (!rejected.ok()) {
    SendPayload(conn, ErrorPayload(env.request_id, env.op, rejected));
  } else {
    Task task;
    task.conn = conn;
    task.request_id = env.request_id;
    task.op = env.op;
    task.body.assign(env.body.data(), env.body.size());
    task.enqueue_us = NowMicros();
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    switch (info.runs) {
      case net::Runs::kLoop:
        // Touches no store (Hello, Stats, MetricsDump, ReplAck): answers
        // even when every worker is wedged behind slow queries.
        ExecuteTask(task);
        break;
      case net::Runs::kWorker:
        read_queue_->Push(std::move(task));
        break;
      case net::Runs::kWriter:
        write_queue_->Push(std::move(task));
        break;
    }
  }
  // No handshake after the first frame: nothing more will be served.
  if (!conn->handshaken) CloseAfterFlush(conn);
}

void CqmsServer::SendPayload(const std::shared_ptr<Connection>& conn,
                             const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    AppendFrame(&conn->outbox, payload);
    if (conn->outbox.size() - conn->out_off > options_.max_outbox_bytes) {
      conn->overflow = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(pending_out_mu_);
    pending_out_.push_back(conn);
  }
  NotifyLoop();
}

std::string CqmsServer::ErrorPayload(uint64_t request_id, net::Op op,
                                     const Status& error) {
  CountersFor(op).errors.fetch_add(1, std::memory_order_relaxed);
  BinaryWriter w;
  net::EncodeErrorResponse(&w, request_id, op, error);
  return w.Take();
}

void CqmsServer::CloseAfterFlush(const std::shared_ptr<Connection>& conn) {
  conn->reading = false;
  conn->close_after_flush = true;
  if (conns_.count(conn->fd) != 0) {
    Watch(conn->fd, EPOLL_CTL_MOD, false, conn->want_write);
  }
}

void CqmsServer::FlushConn(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0 || conns_.count(conn->fd) == 0) return;
  bool kill = false;
  bool empty = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return;
    if (conn->overflow) {
      kill = true;
    } else {
      while (conn->out_off < conn->outbox.size()) {
        ssize_t n = ::write(conn->fd, conn->outbox.data() + conn->out_off,
                            conn->outbox.size() - conn->out_off);
        if (n > 0) {
          conn->out_off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        kill = true;  // EPIPE / ECONNRESET: peer is gone.
        break;
      }
      if (conn->out_off == conn->outbox.size()) {
        conn->outbox.clear();
        conn->out_off = 0;
        empty = true;
      } else if (conn->out_off > (1u << 20)) {
        conn->outbox.erase(0, conn->out_off);
        conn->out_off = 0;
      }
    }
  }
  if (kill) {
    CloseConn(conn);
    return;
  }
  if (empty && conn->close_after_flush &&
      conn->inflight.load(std::memory_order_acquire) == 0) {
    CloseConn(conn);
    return;
  }
  bool want_write = !empty;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    Watch(conn->fd, EPOLL_CTL_MOD, conn->reading, want_write);
  }
}

void CqmsServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  auto it = conns_.find(conn->fd);
  if (it == conns_.end() || it->second != conn) return;
  uint64_t follower_id = conn->repl_follower_id.load(std::memory_order_relaxed);
  if (follower_id != 0 && shipper_ != nullptr) {
    shipper_->RemoveFollower(follower_id);
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
    ::close(conn->fd);
  }
  conns_.erase(it);
  conn->fd = -1;
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void CqmsServer::SweepIdle() {
  int64_t now = NowMicros();
  int64_t limit_us = options_.idle_timeout_ms * 1000;
  std::vector<std::shared_ptr<Connection>> idle;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->inflight.load(std::memory_order_acquire) > 0) continue;
    if (conn->PendingOut() > 0) continue;
    if (now - conn->last_active_us > limit_us) idle.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : idle) CloseConn(conn);
}

// --- request execution -----------------------------------------------------

void CqmsServer::WorkerThread() {
  Task task;
  while (read_queue_->Pop(&task)) {
    ExecuteTask(task);
    task = Task();
  }
}

void CqmsServer::WriterThread() {
  Task task;
  while (write_queue_->Pop(&task)) {
    ExecuteTask(task);
    task = Task();
  }
  // Drained and stopped: leave a durable state behind (the graceful-
  // shutdown contract: every acknowledged write survives reopen even
  // without WAL replay).
  if (cqms_->durable() != nullptr) cqms_->Checkpoint();
}

void CqmsServer::ExecuteTask(const Task& task) {
  if (task.work) {
    task.work();  // Bare writer closure: no connection, no response.
    return;
  }
  using ServeFn = std::string (CqmsServer::*)(const Task&);
  static constexpr ServeFn kServe[] = {
#define CQMS_SERVER_SERVE(name, ...) \
  &CqmsServer::Serve<net::Op::k##name, &CqmsServer::Handle##name>,
      CQMS_NET_OPS(CQMS_SERVER_SERVE)
#undef CQMS_SERVER_SERVE
  };
  std::string payload;
  if (options_.request_timeout_ms > 0 &&
      NowMicros() - task.enqueue_us > options_.request_timeout_ms * 1000) {
    payload = ErrorPayload(
        task.request_id, task.op,
        Status::DeadlineExceeded("request exceeded queue deadline of " +
                                 std::to_string(options_.request_timeout_ms) +
                                 "ms"));
  } else {
    payload = (this->*kServe[static_cast<uint8_t>(task.op) - net::kMinOp])(task);
  }
  // An empty payload means the handler streamed its own responses
  // (ReplSubscribe pushes the subscribe result + bootstrap directly).
  if (!payload.empty()) {
    CountersFor(task.op).bytes_out.fetch_add(payload.size() + kFrameHeaderBytes,
                                             std::memory_order_relaxed);
    SendPayload(task.conn, payload);
  }
  CountersFor(task.op).RecordLatency(
      static_cast<uint64_t>(NowMicros() - task.enqueue_us));
  task.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  NotifyLoop();
}

template <net::Op kOp, auto kHandler>
std::string CqmsServer::Serve(const Task& task) {
  net::RequestOf<kOp> req;
  BinaryReader r(task.body);
  if (!net::DecodeBody(&r, &req) || !r.AtEnd()) {
    return ErrorPayload(task.request_id, kOp,
                        Status::InvalidArgument(std::string("malformed ") +
                                                net::OpName(kOp) + " body"));
  }
  auto out = (this->*kHandler)(task, req);
  if (!out.ok()) return ErrorPayload(task.request_id, kOp, out.status());
  if constexpr (std::is_same_v<std::decay_t<decltype(*out)>, Answered>) {
    return std::string();
  } else {
    static_assert(std::is_same_v<std::decay_t<decltype(*out)>,
                                 net::ResponseOf<kOp>>,
                  "a handler returns its op's response type");
    BinaryWriter w;
    net::BeginResponse(&w, task.request_id, kOp);
    net::EncodeBody(&w, *out);
    return w.Take();
  }
}

namespace {

Result<net::Empty> Done(const Status& s) {
  if (!s.ok()) return s;
  return net::Empty{};
}

}  // namespace

Result<net::HelloResponse> CqmsServer::HandleHello(
    const Task& task, const net::HelloRequest& req) {
  if (task.conn->handshaken) {
    return Status::InvalidArgument("duplicate handshake");
  }
  if (req.protocol_version != net::kProtocolVersion) {
    return Status::Unsupported(
        "protocol version mismatch: server speaks " +
        std::to_string(net::kProtocolVersion) + ", client sent " +
        std::to_string(req.protocol_version));
  }
  task.conn->handshaken = true;
  std::shared_ptr<const storage::ReadViewState> view =
      current_cqms()->CurrentReadView();
  return net::HelloResponse{net::kProtocolVersion, kServerVersion,
                            view != nullptr ? view->size() : 0};
}

Result<net::SearchResult> CqmsServer::HandleSearch(
    const Task&, const net::SearchRequest& req) {
  if (req.spec.data.has_value() && req.spec.data->reexecute) {
    return Status::Unsupported(
        "query-by-data re-execution is not available over the wire");
  }
  storage::QueryRecord probe;
  const storage::QueryRecord* probe_ptr = nullptr;
  if (req.spec.similarity.has_value()) {
    probe = storage::BuildRecordFromText(req.spec.similarity->probe_text,
                                         req.viewer, 0,
                                         storage::SignatureMode::kTransient);
    probe_ptr = &probe;
  }
  metaquery::MetaQueryRequest mreq = net::ToMetaQueryRequest(req.spec, probe_ptr);

  // One ExecTrace serves both consumers: the wire response (client asked
  // with want_trace) and the slow-query log (execution crossed the
  // operator's threshold). Untraced searches keep a null pointer so the
  // planner pays nothing.
  obs::ExecTrace trace;
  const bool slow_enabled = options_.slow_query_micros > 0;
  if (req.spec.want_trace || slow_enabled) mreq.trace = &trace;
  const int64_t exec_start = NowMicros();
  std::shared_ptr<Cqms> cqms = current_cqms();
  metaquery::MetaQueryResponse mresp = cqms->Search(req.viewer, mreq);
  const int64_t exec_micros = NowMicros() - exec_start;
  if (slow_enabled && exec_micros >= options_.slow_query_micros) {
    slow_log_.Write(req.viewer, "Search", exec_micros, trace);
  }

  net::SearchResult out;
  out.matches.reserve(mresp.matches.size());
  for (const metaquery::MetaQueryMatch& m : mresp.matches) {
    out.matches.push_back({m.id, m.similarity, m.score});
  }
  out.generator = static_cast<uint8_t>(mresp.generator);
  out.candidates_considered = mresp.candidates_considered;
  if (req.spec.want_trace) {
    out.trace = net::TraceSummary{trace.generator, trace.counters, trace.spans};
  }
  return out;
}

Result<net::RecommendResult> CqmsServer::HandleRecommend(
    const Task&, const net::RecommendRequest& req) {
  // The in-process RecommendationEngine reads live records; here the
  // ranking and every record fetch read the one view this handler holds,
  // so recommendations never race the writer and never mix two states
  // (same over-fetch + fingerprint-dedup policy).
  storage::QueryRecord probe = storage::BuildRecordFromText(
      req.sql_text, req.viewer, 0, storage::SignatureMode::kTransient);
  if (probe.parse_failed()) {
    return Status::ParseError("cannot recommend for unparsable text: " +
                              probe.stats.error);
  }
  std::shared_ptr<Cqms> cqms = current_cqms();
  std::shared_ptr<const storage::ReadViewState> view = cqms->CurrentReadView();
  if (view == nullptr) return Status::Internal("read views not enabled");

  metaquery::MetaQueryRequest mreq;
  mreq.SimilarTo(probe);
  mreq.Limit(req.k * 4 + 8);
  metaquery::MetaQueryResponse mresp =
      metaquery::MetaQueryPlanner{storage::StoreView(*view)}.Execute(
          mreq, &view->CacheFor(req.viewer));

  net::RecommendResult out;
  std::vector<uint64_t> seen_fingerprints;
  for (const metaquery::MetaQueryMatch& m : mresp.matches) {
    if (out.items.size() >= req.k) break;
    const storage::QueryRecord* rec = view->Get(m.id);
    if (rec == nullptr || rec->parse_failed()) continue;
    if (std::find(seen_fingerprints.begin(), seen_fingerprints.end(),
                  rec->fingerprint) != seen_fingerprints.end()) {
      continue;
    }
    seen_fingerprints.push_back(rec->fingerprint);
    net::RecommendationItem item;
    item.id = m.id;
    item.score = m.score;
    item.similarity = m.similarity;
    item.text = rec->text;
    item.diff = sql::DiffQueries(probe.components, rec->components).Summary();
    if (!rec->annotations.empty()) item.annotation = rec->annotations.back().text;
    out.items.push_back(std::move(item));
  }
  return out;
}

Result<net::AppendResult> CqmsServer::HandleAppend(
    const Task&, const net::AppendRequest& req) {
  if (req.user.empty()) return Status::InvalidArgument("Append requires a user");
  std::shared_ptr<Cqms> cqms = current_cqms();
  net::AppendResult result;
  if (req.execute) {
    profiler::ProfiledExecution exec = cqms->Execute(req.user, req.sql);
    result.id = exec.query_id;
    result.succeeded = exec.stats.succeeded;
    result.error = exec.stats.error;
    result.result_rows = exec.stats.result_rows;
    result.exec_micros = exec.stats.execution_micros;
  } else {
    result.id = cqms->profiler().LogOnly(req.sql, req.user);
    result.succeeded = true;
  }
  return result;
}

Result<net::Empty> CqmsServer::HandleRewrite(const Task&,
                                             const net::RewriteRequest& req) {
  return Done(current_cqms()->store()->RewriteQueryText(req.id, req.new_text));
}

Result<net::Empty> CqmsServer::HandleAnnotate(const Task&,
                                              const net::AnnotateRequest& req) {
  return Done(
      current_cqms()->Annotate(req.id, req.author, req.text, req.fragment));
}

Result<net::Empty> CqmsServer::HandleSetVisibility(
    const Task&, const net::SetVisibilityRequest& req) {
  return Done(
      current_cqms()->SetVisibility(req.requester, req.id, req.visibility));
}

Result<net::Empty> CqmsServer::HandleDelete(const Task&,
                                            const net::DeleteRequest& req) {
  return Done(current_cqms()->DeleteQuery(req.requester, req.id, req.is_admin));
}

Result<net::Empty> CqmsServer::HandleRegisterUser(
    const Task&, const net::RegisterUserRequest& req) {
  if (req.user.empty()) {
    return Status::InvalidArgument("RegisterUser requires a user");
  }
  current_cqms()->RegisterUser(req.user, req.groups);
  return net::Empty{};
}

Result<net::TextResult> CqmsServer::HandleBrowse(const Task&,
                                                 const net::BrowseRequest& req) {
  return net::TextResult{current_cqms()->BrowseLog(req.viewer, req.max_sessions)};
}

Result<net::TextResult> CqmsServer::HandleShowSession(
    const Task&, const net::ShowSessionRequest& req) {
  Result<std::string> rendered =
      current_cqms()->ShowSession(req.viewer, req.session_id);
  if (!rendered.ok()) return rendered.status();
  return net::TextResult{std::move(rendered).value()};
}

Result<net::Empty> CqmsServer::HandleCheckpoint(const Task&, const Empty&) {
  return Done(current_cqms()->Checkpoint());
}

Result<net::Empty> CqmsServer::HandleMaintain(const Task&,
                                              const net::MaintainRequest& req) {
  std::shared_ptr<Cqms> cqms = current_cqms();
  cqms->RunMaintenance();
  if (req.run_mining) cqms->RunMining();
  return net::Empty{};
}

Result<CqmsServer::Answered> CqmsServer::HandleReplSubscribe(
    const Task& task, const net::ReplSubscribeRequest& req) {
  if (shipper_ == nullptr) {
    return Status::Unsupported(
        "replication requires durability on the primary (--durability-dir)");
  }
  // Running on the writer thread, the store is quiescent: the shipper
  // can scan the WAL (or encode a snapshot) and register the follower
  // without a frame slipping in between. It streams the subscribe
  // response itself.
  std::shared_ptr<Connection> conn = task.conn;
  uint64_t follower_id = shipper_->Subscribe(
      req, task.request_id,
      [this, conn](std::string payload) { SendPayload(conn, payload); });
  conn->repl_follower_id.store(follower_id, std::memory_order_relaxed);
  return Answered{};
}

Result<net::Empty> CqmsServer::HandleReplStream(const Task&, const Empty&) {
  return Status::Unsupported("op ReplStream is not servable");
}

Result<net::Empty> CqmsServer::HandleReplAck(const Task& task,
                                             const net::ReplAckRequest& req) {
  uint64_t follower_id =
      task.conn->repl_follower_id.load(std::memory_order_relaxed);
  if (shipper_ != nullptr && follower_id != 0) {
    shipper_->Ack(follower_id, req.acked_sequence);
  }
  return net::Empty{};
}

Result<net::StatsResult> CqmsServer::HandleStats(const Task&, const Empty&) {
  return StatsSnapshot();
}

Result<net::TextResult> CqmsServer::HandleMetricsDump(const Task&,
                                                      const Empty&) {
  // Process-wide registry first (planner, storage, miner, WAL series),
  // then the server's own per-op counters appended in the same
  // exposition dialect so one dump covers every layer.
  std::string text = obs::MetricsRegistry::Global().ExpositionText();
  text += "cqms_server_uptime_micros ";
  text += std::to_string(static_cast<uint64_t>(NowMicros() - start_micros_));
  text += '\n';
  text += "cqms_server_connections_active ";
  text += std::to_string(active_conns_.load(std::memory_order_relaxed));
  text += '\n';
  text += "cqms_server_connections_total ";
  text += std::to_string(total_conns_.load(std::memory_order_relaxed));
  text += '\n';
  text += "cqms_server_connections_rejected_total ";
  text += std::to_string(rejected_conns_.load(std::memory_order_relaxed));
  text += '\n';
  text += "cqms_server_protocol_errors_total ";
  text += std::to_string(protocol_errors_.load(std::memory_order_relaxed));
  text += '\n';
  for (uint8_t op = net::kMinOp; op <= net::kMaxOp; ++op) {
    const OpCounters& c = op_counters_[op];
    uint64_t count = c.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    std::string lower = net::OpName(static_cast<net::Op>(op));
    for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
    text += "cqms_" + lower + "_total " + std::to_string(count) + '\n';
    text += "cqms_" + lower + "_errors_total " +
            std::to_string(c.errors.load(std::memory_order_relaxed)) + '\n';
    text += "cqms_" + lower + "_p99_micros " + std::to_string(c.Percentile(99)) +
            '\n';
  }
  return net::TextResult{std::move(text)};
}

net::StatsResult CqmsServer::StatsSnapshot() const {
  net::StatsResult out;
  out.server_version = kServerVersion;
  out.uptime_micros = static_cast<uint64_t>(NowMicros() - start_micros_);
  out.active_connections = active_conns_.load(std::memory_order_relaxed);
  out.total_connections = total_conns_.load(std::memory_order_relaxed);
  out.rejected_connections = rejected_conns_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  std::shared_ptr<Cqms> cqms = current_cqms();
  std::shared_ptr<const storage::ReadViewState> view = cqms->CurrentReadView();
  out.store_size = view != nullptr ? view->size() : 0;
  out.published_sequence = cqms->store()->published_sequence();
  if (const storage::DurableStore* durable = cqms->durable()) {
    out.durable_read_only = durable->read_only();
    out.checkpoint_failure_streak = durable->checkpoint_failure_streak();
    out.checkpoints_backed_off = durable->checkpoints_backed_off();
  }
  if (view != nullptr) out.arena_garbage_bytes = view->scoring().arena_garbage();
  if (follower_mode()) {
    out.role = 2;
    out.primary_address = options_.follow_primary;
    if (follower_ != nullptr) {
      repl::Follower::Stats repl = follower_->GetStats();
      out.repl_connected = repl.connected;
      out.repl_applied_sequence = repl.applied_sequence;
      out.repl_primary_sequence = repl.primary_sequence;
    }
  } else {
    out.role = 1;
    if (shipper_ != nullptr) {
      repl::WalShipper::Stats repl = shipper_->GetStats();
      out.repl_followers = repl.followers;
      out.repl_min_acked_sequence = repl.min_acked_sequence;
      out.repl_backlog_bytes = cqms_->durable()->repl_backlog_bytes();
    }
  }
  for (uint8_t op = net::kMinOp; op <= net::kMaxOp; ++op) {
    const OpCounters& c = op_counters_[op];
    uint64_t count = c.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    net::OpStatsRow row;
    row.op = op;
    row.count = count;
    row.errors = c.errors.load(std::memory_order_relaxed);
    row.bytes_in = c.bytes_in.load(std::memory_order_relaxed);
    row.bytes_out = c.bytes_out.load(std::memory_order_relaxed);
    row.p50_micros = c.Percentile(50);
    row.p99_micros = c.Percentile(99);
    row.max_micros = c.max_micros();
    out.per_op.push_back(row);
  }
  return out;
}

OpCounters& CqmsServer::CountersFor(net::Op op) {
  return op_counters_[static_cast<uint8_t>(op)];
}

const OpCounters& CqmsServer::CountersFor(net::Op op) const {
  return op_counters_[static_cast<uint8_t>(op)];
}

}  // namespace cqms::server
