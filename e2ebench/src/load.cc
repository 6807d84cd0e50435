#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>

#include "common/binary_codec.h"

namespace labbench {

namespace net = cqms::net;
using cqms::Status;
using cqms::StatusCode;

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// --- CPU placement ---------------------------------------------------------

namespace {

/// The last CPU of this process's affinity set, or -1 with fewer than 2.
int GeneratorCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0 || CPU_COUNT(&set) < 2) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  return -1;
}

/// Daemons run on the allowed CPUs but the generator's, split as `cpus`
/// says.
void PinDaemon(DaemonCpus cpus) {
  const int gen = GeneratorCpu();
  if (gen < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof set, &set);
  CPU_CLR(gen, &set);
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (cpus == DaemonCpus::kAllButLast && CPU_COUNT(&set) >= 2) {
    CPU_CLR(last, &set);
  } else if (cpus == DaemonCpus::kLast) {
    CPU_ZERO(&set);
    CPU_SET(last, &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

void PinGenerator() {
  const int gen = GeneratorCpu();
  if (gen < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(gen, &set);
  sched_setaffinity(0, sizeof set, &set);
}

IdleSpinners::IdleSpinners() {
  const int gen = GeneratorCpu();
  if (gen < 0) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof all, &all);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (c == gen || !CPU_ISSET(c, &all)) continue;
    threads_.emplace_back([this, c] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      sched_setaffinity(0, sizeof one, &one);
      sched_param p{};
      // Without SCHED_IDLE the spinner would take CPU from the daemons.
      if (sched_setscheduler(0, SCHED_IDLE, &p) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

// --- Daemon ------------------------------------------------------------------

cqms::Result<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& exe, const std::vector<std::string>& args,
    const std::string& log_path, int64_t timeout_ms, DaemonCpus cpus) {
  int pipefd[2];
  if (pipe(pipefd) != 0) return Status::Internal("pipe failed");
  const pid_t parent = getpid();
  const int64_t start = NowNs();
  pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    PinDaemon(cpus);
    dup2(pipefd[1], STDOUT_FILENO);
    close(pipefd[0]);
    close(pipefd[1]);
    int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, STDERR_FILENO);
      close(log);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(pipefd[1]);
  std::unique_ptr<Daemon> d(new Daemon());
  d->pid_ = pid;
  d->out_fd_ = pipefd[0];

  std::string buf;
  const int64_t deadline = start + timeout_ms * 1'000'000;
  while (true) {
    size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.rfind("LISTENING ", 0) == 0) {
        d->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + 10));
        d->spawn_s_ = static_cast<double>(NowNs() - start) / 1e9;
        return d;
      }
      continue;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    if (left_ms <= 0) return Status::DeadlineExceeded(exe + " did not start");
    pollfd p{d->out_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
    char chunk[256];
    ssize_t n = read(d->out_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      return Status::Internal(exe + " exited before listening; see " + log_path);
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

Daemon::~Daemon() {
  Kill();
  if (out_fd_ >= 0) close(out_fd_);
}

uint64_t Daemon::PeakRssKb() const {
  if (pid_ < 0) return 0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

void Daemon::Kill() {
  if (pid_ < 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

// --- Conn --------------------------------------------------------------------

namespace {

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

cqms::Result<std::unique_ptr<Conn>> Conn::Open(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket failed");
  std::unique_ptr<Conn> c(new Conn(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return Status::Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  cqms::BinaryWriter w;
  net::BeginRequest(&w, 0, net::Op::kHello);
  net::EncodeHelloRequest(&w, net::HelloRequest{net::kProtocolVersion, "labbench"});
  std::string frame;
  cqms::AppendFrame(&frame, w.data());
  if (!WriteAll(fd, frame)) return Status::Unavailable("hello write failed");
  std::string payload;
  while (c->dec_.Poll(&payload) != cqms::FrameDecoder::Next::kFrame) {
    if (c->dec_.failed()) return c->dec_.error();
    char buf[4096];
    ssize_t n = read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("hello read failed");
    c->dec_.Feed(buf, static_cast<size_t>(n));
  }
  net::ResponseEnvelope env;
  if (!net::DecodeResponseEnvelope(payload, &env)) {
    return Status::Internal("malformed hello response");
  }
  if (!env.ok()) return env.ToStatus();
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return c;
}

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

void Conn::Send(std::string_view payload) {
  if (dead_) return;
  if (off_ == out_.size()) {
    out_.clear();
    off_ = 0;
  }
  cqms::AppendFrame(&out_, payload);
  Flush();
}

void Conn::Flush() {
  while (!dead_ && off_ < out_.size()) {
    ssize_t n = write(fd_, out_.data() + off_, out_.size() - off_);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      dead_ = true;
      return;
    }
    off_ += static_cast<size_t>(n);
  }
}

void Conn::Read(std::vector<std::string>* out) {
  char buf[1 << 16];
  while (!dead_) {
    ssize_t n = read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      dead_ = true;
      break;
    }
    dec_.Feed(buf, static_cast<size_t>(n));
  }
  std::string payload;
  while (true) {
    auto r = dec_.Poll(&payload);
    if (r == cqms::FrameDecoder::Next::kFrame) {
      out->push_back(std::move(payload));
      payload.clear();
      continue;
    }
    if (r == cqms::FrameDecoder::Next::kError) dead_ = true;
    break;
  }
}

// --- the load loop -----------------------------------------------------------

namespace {

/// Decodes one response payload into its Outcome (envelope + body).
void Complete(const std::string& payload, const PhaseConfig& cfg,
              const net::ResponseEnvelope& env, Outcome* o) {
  o->response_bytes = static_cast<uint32_t>(payload.size() + cqms::kFrameHeaderBytes);
  o->done = true;
  o->code = env.code;
  o->ok = env.ok();
  if (!o->ok) return;
  cqms::BinaryReader r(env.body);
  bool good = true;
  switch (env.op) {
    case net::Op::kSearch: {
      net::SearchResult res;
      good = net::DecodeSearchResult(&r, &res);
      if (good && cfg.keep_ranked) {
        for (const auto& m : res.matches) o->ranked.push_back({m.id, m.score});
      }
      o->trace = std::move(res.trace);
      break;
    }
    case net::Op::kRecommend: {
      net::RecommendResult res;
      good = net::DecodeRecommendResult(&r, &res);
      if (good && cfg.keep_ranked) {
        for (const auto& m : res.items) o->ranked.push_back({m.id, m.score});
      }
      break;
    }
    case net::Op::kAppend: {
      net::AppendResult res;
      good = net::DecodeAppendResult(&r, &res);
      o->append_id = res.id;
      o->exec_micros = res.exec_micros;
      break;
    }
    default:
      break;
  }
  if (!good) {
    o->ok = false;
    o->code = StatusCode::kInternal;
  }
}

}  // namespace

PhaseResult RunPhase(const std::vector<std::unique_ptr<Conn>>& conns,
                     const std::vector<Request>& reqs, const PhaseConfig& cfg,
                     ReplicaProbe* probe) {
  PhaseResult res;
  res.out.resize(reqs.size());
  const size_t n = reqs.size();
  const uint64_t probe_id = cfg.first_request_id + n;  // never a load id
  size_t completed = 0;
  size_t next = 0;  // open loop: next request to send
  // Closed loop: per-connection queues of request indices.
  std::vector<std::vector<size_t>> queue(conns.size());
  std::vector<size_t> qpos(conns.size(), 0);
  if (!cfg.open_loop) {
    for (size_t i = 0; i < n; ++i) queue[reqs[i].conn].push_back(i);
  }

  auto send = [&](size_t i, int64_t due) {
    Outcome& o = res.out[i];
    Conn& c = *conns[reqs[i].conn];
    o.request_id = cfg.first_request_id + i;
    o.due_ns = due;
    o.encode_start_ns = NowNs();
    std::string payload = EncodeRequest(reqs[i], cfg.first_request_id + i);
    o.encode_end_ns = NowNs();
    o.request_bytes = static_cast<uint32_t>(payload.size() + cqms::kFrameHeaderBytes);
    o.sent = true;
    if (c.dead()) {
      o.done = true;
      o.code = StatusCode::kUnavailable;
      o.done_ns = o.encode_end_ns;
      ++completed;
      return;
    }
    c.Send(payload);
    o.send_end_ns = NowNs();
  };
  std::function<void(size_t)> send_next_on;  // closed loop refill
  send_next_on = [&](size_t c) {
    while (qpos[c] < queue[c].size()) {
      size_t i = queue[c][qpos[c]++];
      send(i, 0);
      res.out[i].due_ns = res.out[i].encode_start_ns;
      if (!res.out[i].done) return;  // in flight
    }
  };

  res.start_ns = NowNs();
  const int64_t last_due =
      cfg.open_loop && n > 0 ? res.start_ns + reqs.back().due_us * 1000 : res.start_ns;
  const int64_t deadline = last_due + cfg.timeout_ns;
  if (!cfg.open_loop) {
    for (size_t c = 0; c < conns.size(); ++c) {
      for (size_t d = 0; d < cfg.depth; ++d) send_next_on(c);
    }
  }

  bool probe_inflight = false;
  int64_t probe_sent = 0;
  int64_t probe_next = res.start_ns;
  auto probe_done = [&] {
    return probe == nullptr ||
           (!probe->samples.empty() &&
            probe->samples.back().store_size >= probe->until_size);
  };

  std::vector<pollfd> fds(conns.size() + (probe != nullptr ? 1 : 0));
  std::vector<std::string> payloads;
  while (true) {
    int64_t now = NowNs();
    if (cfg.open_loop) {
      while (next < n && res.start_ns + reqs[next].due_us * 1000 <= now) {
        send(next, res.start_ns + reqs[next].due_us * 1000);
        ++next;
        now = NowNs();
      }
    }
    if (probe != nullptr && !probe_inflight && now >= probe_next &&
        !probe->conn->dead()) {
      cqms::BinaryWriter w;
      net::BeginRequest(&w, probe_id, net::Op::kStats);
      probe->conn->Send(w.data());
      probe_inflight = true;
      probe_sent = now;
    }
    const bool load_done = completed == n && (!cfg.open_loop || next == n);
    if (load_done && (probe_done() || now > deadline)) break;
    if (now > deadline) break;

    // Busy-poll, never sleep: on a VM an idle vCPU halts, and waking it
    // again costs the hypervisor's scheduling delay, which would show up
    // as generator lateness. The generator has a CPU of its own.
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c] = {conns[c]->fd(),
                static_cast<short>(POLLIN | (conns[c]->want_write() ? POLLOUT : 0)), 0};
    }
    if (probe != nullptr) fds.back() = {probe->conn->fd(), POLLIN, 0};
    if (poll(fds.data(), fds.size(), 0) <= 0) continue;

    for (size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents & POLLOUT) conns[c]->Flush();
      if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      payloads.clear();
      conns[c]->Read(&payloads);
      for (const std::string& p : payloads) {
        // A frame's decode starts here; time spent on earlier frames of
        // the same read counts as waiting.
        const int64_t recv = NowNs();
        net::ResponseEnvelope env;
        if (!net::DecodeResponseEnvelope(p, &env)) continue;
        if (env.request_id < cfg.first_request_id ||
            env.request_id >= cfg.first_request_id + n) {
          continue;
        }
        Outcome& o = res.out[env.request_id - cfg.first_request_id];
        if (o.done) continue;
        o.recv_ns = recv;
        Complete(p, cfg, env, &o);
        o.done_ns = NowNs();
        ++completed;
        if (probe != nullptr && o.ok && o.append_id >= 0) {
          probe->until_size = std::max<uint64_t>(
              probe->until_size, static_cast<uint64_t>(o.append_id) + 1);
        }
        if (!cfg.open_loop) send_next_on(c);
      }
      if (conns[c]->dead()) {
        // Everything still in flight on a dead connection has failed.
        for (size_t i = 0; i < n; ++i) {
          Outcome& o = res.out[i];
          if (reqs[i].conn == c && o.sent && !o.done) {
            o.done = true;
            o.code = StatusCode::kUnavailable;
            o.done_ns = NowNs();
            ++completed;
          }
        }
        if (!cfg.open_loop) send_next_on(c);
      }
    }
    if (probe != nullptr && (fds.back().revents & (POLLIN | POLLERR | POLLHUP))) {
      payloads.clear();
      probe->conn->Read(&payloads);
      const int64_t recv = NowNs();
      for (const std::string& p : payloads) {
        net::ResponseEnvelope env;
        net::StatsResult stats;
        if (!net::DecodeResponseEnvelope(p, &env) || !env.ok()) continue;
        cqms::BinaryReader r(env.body);
        if (!net::DecodeStatsResult(&r, &stats)) continue;
        probe->samples.push_back({(probe_sent + recv) / 2, stats.store_size});
        probe_inflight = false;
        probe_next = probe_sent + probe->interval_ns;
      }
    }
  }

  res.end_ns = res.start_ns;
  for (size_t i = 0; i < n; ++i) {
    Outcome& o = res.out[i];
    if (!o.done) {
      if (!o.sent) o.due_ns = cfg.open_loop ? res.start_ns + reqs[i].due_us * 1000 : NowNs();
      o.done = true;
      o.ok = false;
      o.code = StatusCode::kDeadlineExceeded;
      o.done_ns = NowNs();
    } else {
      res.end_ns = std::max(res.end_ns, o.done_ns);
    }
  }
  return res;
}

}  // namespace labbench
