// E7 — Concurrent meta-query serving (docs/concurrency.md).
//
// The acceptance metric for the epoch-published read-view pipeline:
// aggregate meta-query throughput must scale with reader threads while
// a writer continuously mutates and republishes the store. Each
// BM_ConcurrentQps iteration is one full read: pin the published view,
// plan + score a kNN meta-query against it, unpin. A background writer
// (started per run via Setup/Teardown, so it is excluded from the
// measured threads) applies a mutation and republish as fast as it can
// the whole time. Compare items_per_second between threads:1 and
// threads:8 — on a multi-core host the 8-reader aggregate should be
// >= 5x the single-reader one; on a single hardware thread the runs
// only interleave and no scaling is measurable.
//
// BM_PinView / BM_PublishView isolate the two pipeline primitives: the
// reader's pin (a few atomic ops, O(1)) and the writer's publish (O(1):
// the view shares every part of the store). BM_WritePublish is what a
// write then costs: the copy of each part it touches, and its publish.
// BM_ViewVisibilityHeap is the memory a view's visibility memo takes
// while it serves.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "metaquery/meta_query_planner.h"
#include "metaquery/meta_query_request.h"
#include "storage/record_builder.h"
#include "storage/read_view.h"

namespace cqms {
namespace {

const char* kViewer = "user0";

/// The shared store the concurrent benchmark runs against, plus its
/// background writer. Built once (leaked, like the bench fixtures) and
/// reset around every benchmark run by Setup/Teardown.
struct ConcurrentFixture {
  explicit ConcurrentFixture(size_t log_size)
      : base(new bench::LogFixture(log_size)) {
    base->store.EnableViews();  // publishes per mutation: worst-case churn
    probe = storage::BuildRecordFromText(
        "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18", kViewer, 0,
        storage::SignatureMode::kTransient);
  }

  void StartWriter() {
    stop.store(false, std::memory_order_release);
    writer = std::thread([this]() {
      storage::QueryStore& store = base->store;
      const size_t n = store.size();
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Quality flips always differ from the stored value, so every
        // call is a real mutation + republish; cycling ids keeps the
        // log size constant for the whole run.
        storage::QueryId id = static_cast<storage::QueryId>(i % n);
        Status s = store.SetQuality(id, (i & 1) != 0 ? 0.7 : 0.3);
        (void)s;
        ++i;
        std::this_thread::yield();
      }
      writes = i;
    });
  }

  void StopWriter() {
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
  }

  bench::LogFixture* base;
  storage::QueryRecord probe;
  std::thread writer;
  std::atomic<bool> stop{false};
  uint64_t writes = 0;
};

ConcurrentFixture& GetConcurrentFixture() {
  static ConcurrentFixture* fixture = new ConcurrentFixture(5000);
  return *fixture;
}

void SetupConcurrentQps(const benchmark::State&) {
  GetConcurrentFixture().StartWriter();
}

void TeardownConcurrentQps(const benchmark::State&) {
  GetConcurrentFixture().StopWriter();
}

/// N reader threads, each running full kNN meta-queries against pinned
/// views, while the Setup-started writer mutates + republishes
/// continuously. items_per_second is the aggregate read throughput.
void BM_ConcurrentQps(benchmark::State& state) {
  ConcurrentFixture& f = GetConcurrentFixture();
  storage::QueryStore& store = f.base->store;
  metaquery::MetaQueryRequest request;
  request.SimilarTo(f.probe).Limit(10);
  for (auto _ : state) {
    storage::PinnedView view = store.PinView();
    metaquery::MetaQueryPlanner planner{storage::StoreView(*view)};
    metaquery::MetaQueryResponse resp =
        planner.Execute(request, &view->CacheFor(kViewer));
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["log_size"] = static_cast<double>(store.size());
    state.counters["writer_mutations"] = static_cast<double>(f.writes);
  }
}
BENCHMARK(BM_ConcurrentQps)
    ->Threads(1)
    ->Threads(8)
    ->Setup(SetupConcurrentQps)
    ->Teardown(TeardownConcurrentQps)
    ->UseRealTime();

/// Reader entry cost in isolation: one pin + published-pointer load +
/// unpin, no query executed.
void BM_PinView(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  if (!f.store.views_enabled()) f.store.EnableViews();
  for (auto _ : state) {
    storage::PinnedView view = f.store.PinView();
    benchmark::DoNotOptimize(view.get());
  }
}
BENCHMARK(BM_PinView)->Arg(5000)->ArgNames({"queries"});

/// Writer-side publication cost with nothing to copy: a view shares the
/// record log, posting lists, scoring columns, LSH index and ACL with
/// the store, and no write comes between these publishes, so each one
/// allocates the view object and copies five pointers, whatever the log
/// size. view_heap_bytes_per_query is the heap growth of holding one
/// more published view, per logged query: that object alone.
void BM_PublishView(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  if (!f.store.views_enabled()) f.store.EnableViews();
  for (auto _ : state) {
    f.store.PublishView();
  }
  std::shared_ptr<const storage::ReadViewState> held = f.store.SharedView();
  const int64_t heap_before = bench::HeapInUse();
  f.store.PublishView();
  const int64_t view_bytes = bench::HeapInUse() - heap_before;
  held.reset();
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["view_heap_bytes_per_query"] =
      static_cast<double>(view_bytes) / static_cast<double>(f.store.size());
}
BENCHMARK(BM_PublishView)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(50000)->ArgNames({"queries"});

/// The heap a view's visibility memo takes while it serves: on one
/// freshly published, pinned view of the 20k fixture, each of two
/// threads runs one full-scan request (every record's visibility is
/// looked up) per registered viewer.
/// visibility_heap_bytes_per_record_viewer is the heap the requests
/// leave behind (the caches live as long as the view) per record per
/// viewer.
void BM_ViewVisibilityHeap(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(20000);
  if (!f.store.views_enabled()) f.store.EnableViews();
  std::vector<std::string> viewers;
  for (const auto& [user, groups] : f.store.acl().memberships()) {
    viewers.push_back(user);
  }
  metaquery::MetaQueryRequest request;
  request.WithSubstring("from").InLogOrder().Limit(10);
  // The first request registers the planner's process-wide metric
  // series; make it here, so the delta below is the caches alone.
  benchmark::DoNotOptimize(
      metaquery::MetaQueryPlanner(&f.store).Execute(viewers.front(), request));
  int64_t held = 0;
  size_t records = 0;
  for (auto _ : state) {
    f.store.PublishView();
    storage::PinnedView view = f.store.PinView();
    records = view->size();
    const int64_t before = bench::HeapInUse();
    auto serve = [&]() {
      metaquery::MetaQueryPlanner planner{storage::StoreView(*view)};
      for (const std::string& viewer : viewers) {
        metaquery::MetaQueryResponse resp =
            planner.Execute(request, &view->CacheFor(viewer));
        benchmark::DoNotOptimize(resp);
      }
    };
    std::thread a(serve);
    std::thread b(serve);
    a.join();
    b.join();
    held = bench::HeapInUse() - before;
  }
  state.counters["viewers"] = static_cast<double>(viewers.size());
  state.counters["log_size"] = static_cast<double>(records);
  state.counters["visibility_heap_bytes_per_record_viewer"] =
      static_cast<double>(held) /
      static_cast<double>(records * viewers.size());
}
BENCHMARK(BM_ViewVisibilityHeap)->Iterations(1)->Unit(benchmark::kMillisecond);

/// The writes BM_WritePublish times.
enum class Write { kQuality, kVisibility, kAppend };

/// One write of `kind`, outside any batch, so it publishes: a quality
/// change (copies the record log's directory and the record's chunk,
/// and the scoring columns), a visibility change (the ACL) or the
/// append of a run of a logged record's text (the directory and the
/// tail chunk, the posting lists, the scoring columns and the ACL;
/// logged without a summary, most such runs get an output part of their
/// own and index a new statement, which copies the LSH index too). The
/// i-th call picks its record and value from `i`, so every call changes
/// something.
void ApplyWrite(bench::LogFixture* f, Write kind, uint64_t i) {
  storage::QueryStore& store = f->store;
  const storage::QueryId id =
      static_cast<storage::QueryId>((i * 7919) % store.size());
  const storage::QueryRecord& record = *store.Get(id);
  Status s;
  switch (kind) {
    case Write::kQuality:
      s = store.SetQuality(id, record.quality == 0.25 ? 0.75 : 0.25);
      break;
    case Write::kVisibility: {
      const std::string owner = record.user;
      const storage::Visibility now = std::as_const(store).acl().GetVisibility(id);
      s = store.acl().SetVisibility(id, owner, owner,
                                    now == storage::Visibility::kPublic
                                        ? storage::Visibility::kGroup
                                        : storage::Visibility::kPublic);
      break;
    }
    case Write::kAppend: {
      f->clock.Advance(kMicrosPerSecond);
      store.Append(store.RecordForText(record.text, record.user,
                                       f->clock.Now(),
                                       storage::StatementPath::kLogOnly));
      break;
    }
  }
  (void)s;
}

/// Writer time per write with its publish, at this log size, for each
/// write kind. A publish copies nothing, so this is the copy of each
/// part the write touches: the first write to a part after a publish
/// copies it. write_heap_bytes is the heap one more write leaves held
/// while the view published before it stays pinned: those copies. An
/// append still copies three parts that grow with the log whole (the
/// posting lists, the scoring columns and the ACL); of the record log
/// it copies the directory and one chunk.
void BM_WritePublish(benchmark::State& state, Write kind) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  if (!f.store.views_enabled()) f.store.EnableViews();
  uint64_t i = 0;
  for (auto _ : state) ApplyWrite(&f, kind, i++);
  std::shared_ptr<const storage::ReadViewState> held = f.store.SharedView();
  const int64_t heap_before = bench::HeapInUse();
  ApplyWrite(&f, kind, i++);
  const int64_t write_bytes = bench::HeapInUse() - heap_before;
  held.reset();
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["write_heap_bytes"] = static_cast<double>(write_bytes);
}
BENCHMARK_CAPTURE(BM_WritePublish, quality, Write::kQuality)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(50000)->ArgNames({"queries"});
BENCHMARK_CAPTURE(BM_WritePublish, visibility, Write::kVisibility)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(50000)->ArgNames({"queries"});
// Appends grow the shared fixture, so they run a fixed 100 times: the
// log stays within 100 records of its size.
BENCHMARK_CAPTURE(BM_WritePublish, append, Write::kAppend)
    ->Arg(1000)->Arg(5000)->Arg(20000)->Arg(50000)->ArgNames({"queries"})
    ->Iterations(100);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
