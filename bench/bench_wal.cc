// WAL write-path throughput: the per-mutation overhead durability adds
// to every logged query. The Env seam sits on this path, so these
// benches are the regression gate for it — appends route through
// Env::Default()'s WritableFile exactly as production does.
//
// BM_WalReplay is the read path a restart takes: the replay of a retired
// log that the snapshot already covers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cqms.h"
#include "storage/fault_env.h"
#include "storage/wal.h"
#include "workload/synthetic.h"

namespace cqms {
namespace {

/// Framed appends to a real file. fsync=0 is the default deployment
/// mode (flush-per-record: survives a process crash); fsync=1 adds the
/// per-record fsync(2) power-loss mode and is dominated by the disk.
void BM_WalAppend(benchmark::State& state) {
  const bool fsync_each_record = state.range(0) != 0;
  const std::string path = "/tmp/cqms_bench_wal.log";
  std::remove(path.c_str());
  storage::WalWriter writer;
  Status open = writer.Open(path, fsync_each_record);
  if (!open.ok()) {
    state.SkipWithError("WAL open failed");
    return;
  }
  const std::string payload(256, 'q');
  for (auto _ : state) {
    Status s = writer.Append(payload);
    if (!s.ok()) {
      state.SkipWithError("WAL append failed");
      break;
    }
  }
  writer.Close();
  std::remove(path.c_str());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(1)->ArgNames({"fsync"});

/// The same appends against the in-memory FaultInjectingEnv — the cost
/// of a crash-loop iteration's logging, and an upper bound on the
/// fault-point bookkeeping (op counting + trace) the env adds.
void BM_WalAppendFaultEnv(benchmark::State& state) {
  storage::FaultInjectingEnv env;
  Status mk = env.CreateDirIfMissing("/db");
  storage::WalWriter writer;
  Status open = writer.Open("/db/wal.log", /*fsync_each_record=*/true, &env);
  if (!mk.ok() || !open.ok()) {
    state.SkipWithError("WAL open failed");
    return;
  }
  const std::string payload(256, 'q');
  for (auto _ : state) {
    Status s = writer.Append(payload);
    if (!s.ok()) {
      state.SkipWithError("WAL append failed");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_WalAppendFaultEnv);

/// Env::Default() with every positional read's size recorded.
class ReadCountingEnv : public storage::Env {
 public:
  size_t max_read_bytes = 0;

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<storage::RandomAccessFile>* file) override {
    std::unique_ptr<storage::RandomAccessFile> base;
    CQMS_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, &base));
    *file = std::make_unique<File>(std::move(base), &max_read_bytes);
    return Status::Ok();
  }
  Status NewWritableFile(const std::string& path, WriteMode mode,
                         std::unique_ptr<storage::WritableFile>* f) override {
    return base_->NewWritableFile(path, mode, f);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status ListDir(const std::string& dir,
                 std::vector<std::string>* names) override {
    return base_->ListDir(dir, names);
  }

 private:
  class File : public storage::RandomAccessFile {
   public:
    File(std::unique_ptr<storage::RandomAccessFile> base, size_t* max_read)
        : base_(std::move(base)), max_read_(max_read) {}
    Status Size(uint64_t* size) override { return base_->Size(size); }
    Status Read(uint64_t offset, size_t n, std::string* out) override {
      *max_read_ = std::max(*max_read_, n);
      return base_->Read(offset, n, out);
    }

   private:
    std::unique_ptr<storage::RandomAccessFile> base_;
    size_t* max_read_;
  };

  storage::Env* base_ = storage::Env::Default();
};

/// The log e2ebench's `explore` set-up writes before its checkpoint: a
/// 40-user lab's 8,000 seeded sessions on the 30-row lake database,
/// then 10% of the queries made private and 20% public. Written once
/// per process; returns the log's path (empty when it could not be
/// written) and its last sequence.
const std::pair<std::string, uint64_t>& SetupLog() {
  static const auto* log = [] {
    static const char* const dir = "/tmp/cqms_bench_wal_replay";
    std::filesystem::remove_all(dir);
    std::atexit([] { std::filesystem::remove_all(dir); });
    SimulatedClock clock(1'600'000'000'000'000);
    CqmsOptions options;
    options.clock = &clock;
    Cqms system(options);
    Status s = system.EnableDurability(dir);
    if (s.ok()) s = workload::PopulateLakeDatabase(system.database(), 30);
    workload::WorkloadOptions w;
    w.num_users = 40;
    w.num_groups = 5;
    w.num_sessions = 8000;
    w.seed = 1;
    workload::RegisterUsers(system.store(), w);
    workload::GenerateLog(&system.profiler(), system.store(), &clock, w);
    Rng vis(w.seed ^ 0x76697369ull);
    for (storage::QueryId id = 0;
         s.ok() && id < static_cast<storage::QueryId>(system.store()->size());
         ++id) {
      const double u = vis.UniformDouble();
      if (u >= 0.3) continue;
      s = system.SetVisibility(system.store()->Get(id)->user, id,
                               u < 0.1 ? storage::Visibility::kPrivate
                                       : storage::Visibility::kPublic);
    }
    if (!s.ok()) return new std::pair<std::string, uint64_t>();
    return new std::pair<std::string, uint64_t>(
        system.durable()->wal_path(), system.durable()->last_sequence());
  }();
  return *log;
}

/// Replays the set-up log with every frame covered by the snapshot's
/// sequence stamp, as a restart does with `wal.log.1` after a
/// checkpoint: each frame is read and CRC-checked, then skipped.
/// Counters: `frames` per replay, and `max_read_bytes`, the largest
/// single read, which bounds the memory a replay holds.
void BM_WalReplay(benchmark::State& state) {
  const auto& [path, last_sequence] = SetupLog();
  ReadCountingEnv env;
  uint64_t file_bytes = 0;
  storage::WalReplayStats stats;
  if (!env.GetFileSize(path, &file_bytes).ok()) {
    state.SkipWithError("set-up log not written");
    return;
  }
  for (auto _ : state) {
    storage::QueryStore store;
    Status s = storage::ReplayWal(path, &store, &stats, last_sequence, &env);
    benchmark::DoNotOptimize(stats);
    if (!s.ok() || stats.records_applied != 0) {
      state.SkipWithError("replay failed");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file_bytes));
  state.counters["frames"] = static_cast<double>(stats.records_skipped);
  state.counters["log_bytes"] = static_cast<double>(file_bytes);
  state.counters["max_read_bytes"] = static_cast<double>(env.max_read_bytes);
}
BENCHMARK(BM_WalReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
