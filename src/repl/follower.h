#ifndef CQMS_REPL_FOLLOWER_H_
#define CQMS_REPL_FOLLOWER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/cqms.h"
#include "netclient/client.h"
#include "repl/follower_host.h"
#include "storage/query_store.h"

namespace cqms::repl {

struct FollowerOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// Reported to the primary in the handshake and the subscription.
  std::string name = "follower";
  /// Read deadline on the replication link. The primary heartbeats well
  /// under this, so a silent link (partition, hung primary) surfaces as
  /// kDeadlineExceeded and triggers a reconnect.
  int64_t liveness_timeout_ms = 2000;
  /// Reconnect backoff: capped exponential, reset after a healthy
  /// subscription.
  int64_t backoff_initial_ms = 100;
  int64_t backoff_max_ms = 5000;
};

/// Follower-side replication engine: one thread that subscribes to the
/// primary's WAL stream, pre-validates frame batches (CRC, sequence
/// continuity) and applies them to the live store on the host's writer
/// thread, acking applied progress back to the primary. A sequence gap
/// or CRC divergence — or falling behind the primary's retained WAL
/// window — triggers an automatic snapshot re-bootstrap: a fresh Cqms
/// is restored from the streamed image off the writer thread and then
/// atomically installed via FollowerHost::InstallCqms.
class Follower {
 public:
  /// `host` must outlive the follower. `live` is the (typically empty)
  /// instance the host currently serves; the follower either catches it
  /// up frame by frame or replaces it wholesale.
  Follower(FollowerHost* host, std::shared_ptr<Cqms> live,
           FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Spawns the replication thread. The thread retries connection
  /// failures forever (capped backoff) until Stop().
  Status Start();

  /// Stops the replication thread: aborts any blocking socket read,
  /// interrupts backoff sleeps, joins. Call before stopping the host —
  /// a queued apply closure still needs the host's writer thread.
  void Stop();

  struct Stats {
    bool connected = false;
    uint64_t applied_sequence = 0;
    uint64_t primary_sequence = 0;  ///< Last heard from the primary.
    uint64_t snapshots_loaded = 0;
    uint64_t gaps_detected = 0;
    uint64_t crc_failures = 0;
    uint64_t reconnects = 0;
    uint64_t frames_applied = 0;
    uint64_t duplicates_skipped = 0;
  };
  Stats GetStats() const;

  const std::string& primary_address() const { return primary_address_; }

 private:
  void Run();
  /// One connection lifecycle: connect, subscribe, stream until error
  /// or Stop. A non-OK return reconnects after backoff; `*subscribed`
  /// reports whether a subscription was established (resets backoff).
  Status RunOnce(bool* subscribed);
  /// Reads the snapshot bootstrap stream (Begin already decoded into
  /// `begin`) and installs the restored instance.
  Status BootstrapFromSnapshot(netclient::CqmsClient* client,
                               const net::ReplSnapshotBegin& begin);
  Status ApplyFrameBatch(const net::ReplFrameBatch& batch,
                         netclient::CqmsClient* client);
  Status SendAck(netclient::CqmsClient* client);
  /// Interruptible sleep; false when Stop() arrived.
  bool SleepMs(int64_t ms);

  FollowerHost* host_;
  FollowerOptions options_;
  std::string primary_address_;

  std::mutex mu_;  ///< Guards live_, client_ and the cv below.
  std::condition_variable cv_;
  std::shared_ptr<Cqms> live_;
  netclient::CqmsClient* client_ = nullptr;  ///< Borrowed; for Abort().

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  /// True after a gap / CRC failure: the next subscription demands a
  /// snapshot regardless of position.
  bool force_snapshot_ = false;
  uint64_t applied_ = 0;  ///< Replication-thread-owned working copy.

  // Cross-thread stats mirrors.
  std::atomic<bool> connected_{false};
  std::atomic<uint64_t> applied_sequence_{0};
  std::atomic<uint64_t> primary_sequence_{0};
  std::atomic<uint64_t> snapshots_loaded_{0};
  std::atomic<uint64_t> gaps_detected_{0};
  std::atomic<uint64_t> crc_failures_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> frames_applied_{0};
  std::atomic<uint64_t> duplicates_skipped_{0};
};

}  // namespace cqms::repl

#endif  // CQMS_REPL_FOLLOWER_H_
