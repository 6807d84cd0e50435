#include "repl/follower.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/binary_codec.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "storage/snapshot_v2.h"
#include "storage/wal.h"

namespace cqms::repl {

namespace {

/// Ack responses are ignored, so every ack can reuse one request id;
/// the subscription owns id 1.
constexpr uint64_t kSubscribeRequestId = 1;
constexpr uint64_t kAckRequestId = 2;

struct FollowerSeries {
  obs::Counter* frames_applied;
  obs::Counter* snapshots_loaded;
  obs::Counter* gaps;
  obs::Counter* crc_failures;
  obs::Counter* reconnects;
  obs::Gauge* connected;
  obs::Gauge* applied_sequence;
  obs::Gauge* lag;
};

const FollowerSeries& Series() {
  static const FollowerSeries s = [] {
    auto& reg = obs::MetricsRegistry::Global();
    FollowerSeries d;
    d.frames_applied = reg.GetCounter("cqms_repl_frames_applied_total");
    d.snapshots_loaded = reg.GetCounter("cqms_repl_snapshots_loaded_total");
    d.gaps = reg.GetCounter("cqms_repl_gaps_total");
    d.crc_failures = reg.GetCounter("cqms_repl_crc_failures_total");
    d.reconnects = reg.GetCounter("cqms_repl_reconnects_total");
    d.connected = reg.GetGauge("cqms_repl_connected");
    d.applied_sequence = reg.GetGauge("cqms_repl_applied_sequence");
    d.lag = reg.GetGauge("cqms_repl_lag");
    return d;
  }();
  return s;
}

}  // namespace

Follower::Follower(FollowerHost* host, std::shared_ptr<Cqms> live,
                   FollowerOptions options)
    : host_(host),
      options_(std::move(options)),
      primary_address_(options_.primary_host + ":" +
                       std::to_string(options_.primary_port)),
      live_(std::move(live)) {}

Follower::~Follower() { Stop(); }

Status Follower::Start() {
  if (started_) return Status::InvalidArgument("follower already started");
  if (live_ == nullptr) {
    return Status::InvalidArgument("follower needs a live Cqms instance");
  }
  started_ = true;
  thread_ = std::thread(&Follower::Run, this);
  return Status::Ok();
}

void Follower::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (client_ != nullptr) client_->Abort();
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Follower::Run() {
  int64_t backoff = options_.backoff_initial_ms;
  while (!stop_.load(std::memory_order_relaxed)) {
    bool subscribed = false;
    RunOnce(&subscribed);
    connected_.store(false, std::memory_order_relaxed);
    Series().connected->Set(0);
    if (stop_.load(std::memory_order_relaxed)) break;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    Series().reconnects->Increment();
    if (subscribed) backoff = options_.backoff_initial_ms;
    if (!SleepMs(backoff)) break;
    backoff = std::min(backoff * 2, options_.backoff_max_ms);
  }
}

Status Follower::RunOnce(bool* subscribed) {
  netclient::ClientOptions copts;
  copts.client_name = options_.name;
  copts.connect_timeout_ms = options_.liveness_timeout_ms;
  // The primary heartbeats well under this, so an expired read deadline
  // means the link (or the primary) is dead — reconnect.
  copts.timeout_ms = options_.liveness_timeout_ms;
  Result<std::unique_ptr<netclient::CqmsClient>> connected =
      netclient::CqmsClient::Connect(options_.primary_host,
                                     options_.primary_port, copts);
  if (!connected.ok()) return connected.status();
  std::unique_ptr<netclient::CqmsClient> client = std::move(connected).value();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("follower stopping");
    }
    client_ = client.get();  // Publish for Stop()'s Abort().
  }
  Status s = [&]() -> Status {
    {
      BinaryWriter w;
      net::BeginRequest(&w, kSubscribeRequestId, net::Op::kReplSubscribe);
      net::ReplSubscribeRequest req;
      req.from_sequence = applied_;
      req.follower_name = options_.name;
      req.force_snapshot = force_snapshot_;
      EncodeReplSubscribeRequest(&w, req);
      CQMS_RETURN_IF_ERROR(client->SendRawPayload(w.Take()));
    }
    while (!stop_.load(std::memory_order_relaxed)) {
      Result<std::string> payload = client->ReadRawPayload();
      if (!payload.ok()) return payload.status();
      net::ResponseEnvelope env;
      if (!net::DecodeResponseEnvelope(*payload, &env)) {
        return Status::Corruption("malformed replication payload");
      }
      if (!env.ok()) return env.ToStatus();
      switch (env.op) {
        case net::Op::kReplSubscribe: {
          BinaryReader r(env.body);
          net::ReplSubscribeResult result;
          if (!DecodeReplSubscribeResult(&r, &result)) {
            return Status::Corruption("malformed subscribe result");
          }
          if (result.primary_sequence < applied_ &&
              !result.snapshot_bootstrap) {
            // The primary is BEHIND us: it lost durable state (restore
            // from an older backup, wiped disk) and now owns a shorter
            // timeline. Our extra frames are orphans — adopt the
            // primary's truth via a forced snapshot instead of silently
            // skipping its "duplicate" frames forever.
            gaps_detected_.fetch_add(1, std::memory_order_relaxed);
            Series().gaps->Increment();
            force_snapshot_ = true;
            return Status::Corruption(
                "primary regressed below our applied sequence " +
                std::to_string(applied_) + " (primary at " +
                std::to_string(result.primary_sequence) +
                "); forcing snapshot re-bootstrap");
          }
          primary_sequence_.store(result.primary_sequence,
                                  std::memory_order_relaxed);
          force_snapshot_ = false;
          *subscribed = true;
          connected_.store(true, std::memory_order_relaxed);
          Series().connected->Set(1);
          break;
        }
        case net::Op::kReplStream: {
          BinaryReader r(env.body);
          auto kind = static_cast<net::ReplStreamKind>(r.GetU8());
          if (r.failed()) {
            return Status::Corruption("empty replication stream message");
          }
          switch (kind) {
            case net::ReplStreamKind::kFrames: {
              net::ReplFrameBatch batch;
              if (!DecodeReplFrameBatch(&r, &batch)) {
                return Status::Corruption("malformed frame batch");
              }
              CQMS_RETURN_IF_ERROR(ApplyFrameBatch(batch, client.get()));
              break;
            }
            case net::ReplStreamKind::kHeartbeat: {
              net::ReplHeartbeat hb;
              if (!DecodeReplHeartbeat(&r, &hb)) {
                return Status::Corruption("malformed heartbeat");
              }
              primary_sequence_.store(hb.primary_sequence,
                                      std::memory_order_relaxed);
              Series().lag->Set(static_cast<int64_t>(
                  hb.primary_sequence > applied_ ? hb.primary_sequence - applied_
                                                 : 0));
              break;
            }
            case net::ReplStreamKind::kSnapshotBegin: {
              net::ReplSnapshotBegin begin;
              if (!DecodeReplSnapshotBegin(&r, &begin)) {
                return Status::Corruption("malformed snapshot begin");
              }
              CQMS_RETURN_IF_ERROR(BootstrapFromSnapshot(client.get(), begin));
              CQMS_RETURN_IF_ERROR(SendAck(client.get()));
              break;
            }
            default:
              // Chunk/End are only valid inside BootstrapFromSnapshot.
              return Status::Corruption("unexpected snapshot chunk");
          }
          break;
        }
        case net::Op::kReplAck:
          break;  // Response to a fire-and-forget ack; nothing to do.
        default:
          return Status::Corruption("unexpected op on replication link");
      }
    }
    return Status::Unavailable("follower stopping");
  }();
  {
    std::lock_guard<std::mutex> lock(mu_);
    client_ = nullptr;
  }
  return s;
}

Status Follower::BootstrapFromSnapshot(netclient::CqmsClient* client,
                                       const net::ReplSnapshotBegin& begin) {
  auto reject = [this] {
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    Series().crc_failures->Increment();
    force_snapshot_ = true;  // Retry the bootstrap on reconnect.
    return Status::Corruption("snapshot image failed verification");
  };
  // total_bytes is the primary's unverified word: the buffer grows with
  // the chunks that arrive, never to the announced size up front, and
  // the stream is refused as soon as it overruns that size.
  std::string image;
  bool done = false;
  while (!done) {
    if (stop_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("follower stopping");
    }
    Result<std::string> payload = client->ReadRawPayload();
    if (!payload.ok()) return payload.status();
    net::ResponseEnvelope env;
    if (!net::DecodeResponseEnvelope(*payload, &env)) {
      return Status::Corruption("malformed snapshot stream payload");
    }
    if (!env.ok()) return env.ToStatus();
    if (env.op != net::Op::kReplStream) {
      return Status::Corruption("unexpected op inside snapshot stream");
    }
    BinaryReader r(env.body);
    auto kind = static_cast<net::ReplStreamKind>(r.GetU8());
    switch (kind) {
      case net::ReplStreamKind::kSnapshotChunk: {
        net::ReplSnapshotChunk chunk;
        if (!DecodeReplSnapshotChunk(&r, &chunk)) {
          return Status::Corruption("malformed snapshot chunk");
        }
        if (chunk.data.size() > begin.total_bytes - image.size()) {
          return reject();
        }
        image += chunk.data;
        break;
      }
      case net::ReplStreamKind::kSnapshotEnd:
        done = true;
        break;
      default:
        return Status::Corruption("unexpected message inside snapshot stream");
    }
  }
  if (image.size() != begin.total_bytes || Crc32(image) != begin.crc32) {
    return reject();
  }
  // Restore into a fresh instance off the writer thread: the host keeps
  // serving reads from the old one until the install.
  auto fresh = std::make_shared<Cqms>();
  uint64_t wal_sequence = 0;
  Status s = storage::LoadSnapshotV2FromString(fresh->store(), image,
                                               "repl-snapshot", &wal_sequence);
  if (!s.ok()) {
    force_snapshot_ = true;
    return s;
  }
  fresh->EnableConcurrentReads();
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_ = fresh;
  }
  host_->InstallCqms(std::move(fresh));
  applied_ = begin.covered_sequence;
  applied_sequence_.store(applied_, std::memory_order_relaxed);
  Series().applied_sequence->Set(static_cast<int64_t>(applied_));
  snapshots_loaded_.fetch_add(1, std::memory_order_relaxed);
  Series().snapshots_loaded->Increment();
  return Status::Ok();
}

Status Follower::ApplyFrameBatch(const net::ReplFrameBatch& batch,
                                 netclient::CqmsClient* client) {
  primary_sequence_.store(batch.primary_sequence, std::memory_order_relaxed);
  // Pre-validate off the writer thread: CRC every frame and demand
  // contiguous sequences. Duplicates (catch-up overlap after a
  // reconnect) are skipped; a gap or divergence poisons the store copy,
  // so it forces a snapshot re-bootstrap instead of a partial apply.
  std::vector<std::string_view> pending;
  pending.reserve(batch.frames.size());
  uint64_t expected = applied_;
  for (const net::ReplFramed& f : batch.frames) {
    if (Crc32(f.frame) != f.crc32) {
      crc_failures_.fetch_add(1, std::memory_order_relaxed);
      Series().crc_failures->Increment();
      force_snapshot_ = true;
      return Status::Corruption("replicated frame failed its CRC");
    }
    BinaryReader r(f.frame);
    uint64_t sequence = r.GetVarint();
    if (r.failed()) {
      force_snapshot_ = true;
      return Status::Corruption("replicated frame missing sequence");
    }
    if (sequence <= expected) {
      duplicates_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (sequence != expected + 1) {
      gaps_detected_.fetch_add(1, std::memory_order_relaxed);
      Series().gaps->Increment();
      force_snapshot_ = true;
      return Status::Corruption("sequence gap in replication stream");
    }
    pending.push_back(f.frame);
    expected = sequence;
  }
  if (!pending.empty()) {
    Status s = host_->RunOnWriter([&]() -> Status {
      std::shared_ptr<Cqms> live;
      {
        std::lock_guard<std::mutex> lock(mu_);
        live = live_;
      }
      storage::QueryStore* store = live->store();
      storage::QueryStore::ScopedPublishBatch publish(store);
      for (std::string_view frame : pending) {
        BinaryReader r(frame);
        r.GetVarint();  // Sequence, validated above.
        CQMS_RETURN_IF_ERROR(
            storage::ApplyWalRecord(&r, store, "replication stream"));
      }
      return Status::Ok();
    });
    if (!s.ok()) {
      // The batch may have half-applied; this copy can no longer be
      // trusted to match the primary byte for byte.
      force_snapshot_ = true;
      return s;
    }
    applied_ = expected;
    applied_sequence_.store(applied_, std::memory_order_relaxed);
    Series().applied_sequence->Set(static_cast<int64_t>(applied_));
    frames_applied_.fetch_add(pending.size(), std::memory_order_relaxed);
    Series().frames_applied->Add(pending.size());
  }
  Series().lag->Set(static_cast<int64_t>(
      batch.primary_sequence > applied_ ? batch.primary_sequence - applied_
                                        : 0));
  return SendAck(client);
}

Status Follower::SendAck(netclient::CqmsClient* client) {
  BinaryWriter w;
  net::BeginRequest(&w, kAckRequestId, net::Op::kReplAck);
  net::ReplAckRequest ack;
  ack.acked_sequence = applied_;
  EncodeReplAckRequest(&w, ack);
  return client->SendRawPayload(w.Take());
}

bool Follower::SleepMs(int64_t ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms), [&] {
    return stop_.load(std::memory_order_relaxed);
  });
  return !stop_.load(std::memory_order_relaxed);
}

Follower::Stats Follower::GetStats() const {
  Stats s;
  s.connected = connected_.load(std::memory_order_relaxed);
  s.applied_sequence = applied_sequence_.load(std::memory_order_relaxed);
  s.primary_sequence = primary_sequence_.load(std::memory_order_relaxed);
  s.snapshots_loaded = snapshots_loaded_.load(std::memory_order_relaxed);
  s.gaps_detected = gaps_detected_.load(std::memory_order_relaxed);
  s.crc_failures = crc_failures_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.frames_applied = frames_applied_.load(std::memory_order_relaxed);
  s.duplicates_skipped = duplicates_skipped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cqms::repl
