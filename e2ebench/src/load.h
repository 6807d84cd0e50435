// Process and socket side of the benchmark: spawning cqms_serverd,
// loopback connections that frame requests through the public net::
// codecs, and the single-threaded load loop (open loop with due times,
// or closed loop with a fixed pipeline depth).

#ifndef CQMS_E2EBENCH_LOAD_H_
#define CQMS_E2EBENCH_LOAD_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/frame_codec.h"
#include "common/result.h"
#include "common/status.h"
#include "lab.h"
#include "net/wire.h"

namespace labbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// Gives the generator thread a CPU of its own: it moves the calling
/// thread to the last CPU of its affinity set, and Daemon::Spawn starts
/// daemons on the others. No-op with fewer than 2 CPUs. Call after the
/// daemons are spawned (they inherit the caller's set).
void PinGenerator();

/// Keeps every daemon CPU from idling while it lives: one SCHED_IDLE
/// thread per CPU spins, so the guest never halts those vCPUs and a
/// daemon thread that wakes runs at once, without the hypervisor's
/// vCPU wake-up delay. SCHED_IDLE threads yield to any other thread.
/// Construct before PinGenerator(): the daemon CPUs are read from the
/// caller's affinity set.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Which of the daemon CPUs (every CPU but the generator's) a daemon may
/// use. A primary with a replica leaves the last one to the replica, so
/// the follower's replay never competes with the primary's threads.
enum class DaemonCpus { kAll, kAllButLast, kLast };

/// A cqms_serverd child process. The destructor SIGKILLs and reaps it if
/// it still runs; the child also dies with this process (PDEATHSIG).
class Daemon {
 public:
  /// Starts `exe args...` on `cpus` with stderr to `log_path` and waits
  /// (up to `timeout_ms`) for its "LISTENING <port>" line.
  static cqms::Result<std::unique_ptr<Daemon>> Spawn(
      const std::string& exe, const std::vector<std::string>& args,
      const std::string& log_path, int64_t timeout_ms, DaemonCpus cpus);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  /// Spawn until the LISTENING line, in seconds.
  double spawn_to_listening_s() const { return spawn_s_; }
  /// Peak resident set (VmHWM) in kB; 0 once the process is gone.
  uint64_t PeakRssKb() const;
  /// SIGKILL and reap.
  void Kill();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  double spawn_s_ = 0;
};

/// Loopback connection to a daemon. Open() connects and handshakes with
/// blocking I/O, then switches the socket to non-blocking for the loop.
class Conn {
 public:
  static cqms::Result<std::unique_ptr<Conn>> Open(uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  bool dead() const { return dead_; }
  bool want_write() const { return off_ < out_.size(); }

  /// Frames `payload` onto the outgoing buffer and writes what the
  /// socket accepts.
  void Send(std::string_view payload);
  /// Writes buffered bytes until the socket would block.
  void Flush();
  /// Reads what is available; complete payloads are appended to `out`.
  /// Marks the connection dead on EOF, error or a framing violation.
  void Read(std::vector<std::string>* out);

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_ = -1;
  bool dead_ = false;
  std::string out_;
  size_t off_ = 0;
  cqms::FrameDecoder dec_{64u << 20};
};

/// What happened to one request. Times are NowNs() values.
struct Outcome {
  uint64_t request_id = 0;
  int64_t due_ns = 0;        ///< Open loop: due time; closed: send start.
  int64_t encode_start_ns = 0;
  int64_t encode_end_ns = 0;
  int64_t send_end_ns = 0;
  int64_t recv_ns = 0;       ///< Response frame read off the socket.
  int64_t done_ns = 0;       ///< Response decoded.
  bool sent = false;
  bool done = false;
  bool ok = false;
  cqms::StatusCode code = cqms::StatusCode::kOk;
  uint32_t request_bytes = 0;   ///< Framed.
  uint32_t response_bytes = 0;  ///< Framed.
  QueryId append_id = cqms::storage::kInvalidQueryId;
  int64_t exec_micros = 0;
  /// Ranked ids of a Search or Recommend, kept when asked.
  std::vector<ScoredId> ranked;
  std::optional<cqms::net::TraceSummary> trace;

  double latency_ms() const { return static_cast<double>(done_ns - due_ns) / 1e6; }
};

/// Replica progress samples (Stats polled on one connection).
struct ReplicaProbe {
  Conn* conn = nullptr;
  int64_t interval_ns = 250000;
  struct Sample {
    int64_t t_ns = 0;  ///< Midpoint of the Stats round trip.
    uint64_t store_size = 0;
  };
  std::vector<Sample> samples;
  /// Keep polling after the load ends until the replica holds this many
  /// records (or the time limit passes); RunPhase raises it to cover
  /// every acked Append.
  uint64_t until_size = 0;
};

struct PhaseConfig {
  bool open_loop = true;
  size_t depth = 1;  ///< Closed loop: requests in flight per connection.
  /// Open loop: how long after the last due time to wait for responses;
  /// closed loop: the phase's time limit.
  int64_t timeout_ns = 30'000'000'000;
  bool keep_ranked = false;
  uint64_t first_request_id = 1;
};

struct PhaseResult {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< Last response decoded.
  std::vector<Outcome> out;
};

/// Drives `reqs` over `conns` and returns one Outcome per request.
/// Requests left unanswered at the time limit are failed with
/// kDeadlineExceeded.
PhaseResult RunPhase(const std::vector<std::unique_ptr<Conn>>& conns,
                     const std::vector<Request>& reqs, const PhaseConfig& cfg,
                     ReplicaProbe* probe);

}  // namespace labbench

#endif  // CQMS_E2EBENCH_LOAD_H_
