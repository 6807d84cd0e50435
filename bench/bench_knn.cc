// E9 — kNN similarity search latency (paper §3 / §4.2).
//
// "Meta-querying must be interactive" — kNN powers recommendations, so
// it runs on every pause in typing. We sweep log size, k, and the
// similarity mix (feature-only vs combined with output overlap).
// Expected shape: latency grows with candidate count (queries sharing a
// table with the probe), stays interactive (well under 100 ms) at tens
// of thousands of logged queries.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/string_util.h"
#include "metaquery/meta_query_executor.h"
#include "metaquery_reference.h"
#include "storage/minhash.h"
#include "storage/persistence.h"
#include "storage/record_builder.h"
#include "storage/snapshot_v2.h"

namespace cqms {
namespace {

const char* kProbe =
    "SELECT T.temp FROM WaterSalinity S, WaterTemp T "
    "WHERE S.loc_x = T.loc_x AND T.temp < 20";

/// The top `k` matches for `probe` through a planner on the live store.
metaquery::MetaQueryResponse Knn(
    const storage::QueryStore& store, const storage::QueryRecord& probe,
    size_t k, const metaquery::SimilarityWeights& weights = {},
    const metaquery::CandidateOptions& candidates = {}) {
  return metaquery::MetaQueryPlanner(&store).Execute(
      "user0", metaquery::KnnRequest(probe, k, weights, candidates));
}

void BM_KnnByLogSize(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  storage::QueryRecord probe = storage::BuildRecordFromText(kProbe, "user0", 0);
  // Pin the exhaustive table-index path so this series stays the
  // brute-force baseline that BM_KnnLsh is compared against.
  metaquery::CandidateOptions exhaustive;
  exhaustive.use_lsh = false;
  for (auto _ : state) {
    auto neighbors = Knn(f.store, probe, 10, {}, exhaustive);
    benchmark::DoNotOptimize(neighbors);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_KnnByLogSize)->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

// The LSH-pruned counterpart of BM_KnnByLogSize: candidates come from
// the store's MinHash band buckets (default banding) instead of the
// table posting lists. Sub-linear in practice — the gap to
// BM_KnnByLogSize widens with log size.
void BM_KnnLsh(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  storage::QueryRecord probe = storage::BuildRecordFromText(kProbe, "user0", 0);
  metaquery::CandidateOptions lsh;
  lsh.lsh_min_log_size = 0;  // measure the LSH path at every size
  for (auto _ : state) {
    auto neighbors = Knn(f.store, probe, 10, {}, lsh);
    benchmark::DoNotOptimize(neighbors);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["lsh_candidates"] =
      static_cast<double>(f.store.postings().RecordCount(
          f.store.lsh().Candidates(
              storage::ComputeMinHashSketch(probe.statement().signature))));
}
BENCHMARK(BM_KnnLsh)->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

// The pre-columnar scoring loop (KnnSearchReference, from the tests'
// reference implementations, reads candidates through the record deque
// and the fingerprint hash index) on the same LSH candidates — the
// denominator of the columnar-scoring speedup BM_KnnLsh /
// BM_KnnLshReference tracks per PR.
void BM_KnnLshReference(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  storage::QueryRecord probe = storage::BuildRecordFromText(kProbe, "user0", 0);
  metaquery::CandidateOptions lsh;
  lsh.lsh_min_log_size = 0;
  for (auto _ : state) {
    auto neighbors = metaquery::KnnSearchReference(f.store, "user0", probe, 10,
                                                   {}, {}, lsh);
    benchmark::DoNotOptimize(neighbors);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_KnnLshReference)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->ArgNames({"queries"});

// A combined meta-query — keyword + table condition + kNN ranking in one
// MetaQueryRequest — through the unified planner pipeline. Candidates
// come from the Symbol-keyed posting intersection; scoring streams the
// columnar side-table. This is the workload the unified API exists for:
// "queries mentioning salinity that touch WaterTemp, most similar to
// this probe first".
void BM_MetaQueryCombined(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  metaquery::MetaQueryExecutor executor(&f.store);
  storage::QueryRecord probe = storage::BuildRecordFromText(
      kProbe, "user0", 0, storage::SignatureMode::kTransient);
  metaquery::FeatureQuery feature;
  feature.UsesTable("WaterTemp");
  for (auto _ : state) {
    metaquery::MetaQueryRequest request;
    request.WithKeywords("salinity temp")
        .WithFeature(feature)
        .SimilarTo(probe)
        .Limit(10);
    auto response = executor.Execute("user0", request);
    benchmark::DoNotOptimize(response);
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_MetaQueryCombined)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->ArgNames({"queries"});

void BM_KnnByK(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  storage::QueryRecord probe = storage::BuildRecordFromText(kProbe, "user0", 0);
  for (auto _ : state) {
    auto neighbors = Knn(f.store, probe, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(neighbors);
  }
}
BENCHMARK(BM_KnnByK)->Arg(1)->Arg(10)->Arg(50)->ArgNames({"k"});

void BM_KnnSimilarityMix(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  storage::QueryRecord probe = storage::BuildRecordFromText(kProbe, "user0", 0);
  metaquery::SimilarityWeights weights;
  if (state.range(0) == 0) {  // feature-only
    weights.feature = 1.0;
    weights.text = 0;
    weights.output = 0;
  } else if (state.range(0) == 1) {  // text-heavy
    weights.feature = 0.2;
    weights.text = 0.8;
    weights.output = 0;
  }  // else default combined mix
  for (auto _ : state) {
    auto neighbors = Knn(f.store, probe, 10, weights);
    benchmark::DoNotOptimize(neighbors);
  }
}
BENCHMARK(BM_KnnSimilarityMix)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"mix"});

// Cold-start restore cost per snapshot format. format=1 is the v1 text
// reader, which re-profiles every record from its text (parse,
// canonicalize, collect components, tokenize, intern); format=2 is the
// binary restore, which bulk-loads the precomputed state from one
// sequential read. Both sketch every record from its signature while
// rebuilding the LSH index. Their ratio at 20k queries is the binary
// format's cold-start speedup. heap_bytes_per_query is the heap growth
// of one restore into an empty store (the file buffer is freed by then)
// per restored record: the in-memory cost of a logged query, which a CI
// step gates at 20k.
void BM_SnapshotLoad(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  const bool v2 = state.range(1) == 2;
  std::string path = "/tmp/cqms_bench_snapshot_" +
                     std::to_string(state.range(0)) + (v2 ? ".v2" : ".v1");
  Status saved = v2 ? storage::SaveSnapshotV2(f.store, path)
                    : storage::SaveSnapshot(f.store, path);
  if (!saved.ok()) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    state.SkipWithError("snapshot save failed");
    return;
  }
  // The encoded image's size per logged query: a CI step gates the
  // format-2 (binary) row at 20k.
  const double bytes_per_query =
      static_cast<double>(std::filesystem::file_size(path)) /
      static_cast<double>(f.store.size());
  double heap_bytes_per_query = 0;
  for (auto _ : state) {
    uint64_t words_before = ExtractWordsCallCount();
    const int64_t heap_before = bench::HeapInUse();
    storage::QueryStore loaded;
    Status s = storage::LoadSnapshot(&loaded, path);
    if (!s.ok()) {
      std::remove(path.c_str());
      state.SkipWithError("snapshot load failed");
      return;
    }
    heap_bytes_per_query =
        static_cast<double>(bench::HeapInUse() - heap_before) /
        static_cast<double>(loaded.size());
    // The binary restore promises zero re-tokenization at any log size;
    // enforce it here at 20k where the durability tests run smaller.
    if (v2 && ExtractWordsCallCount() != words_before) {
      std::remove(path.c_str());
      state.SkipWithError("v2 load called the tokenizer");
      return;
    }
    benchmark::DoNotOptimize(loaded.size());
  }
  std::remove(path.c_str());
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["bytes_per_query"] = bytes_per_query;
  state.counters["heap_bytes_per_query"] = heap_bytes_per_query;
}
BENCHMARK(BM_SnapshotLoad)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->ArgNames({"queries", "format"});

// The checkpoint's encoder without the file write: one format-4 image of
// the fixture log, built in memory.
void BM_SnapshotSave(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  std::string image;
  for (auto _ : state) {
    Status s = storage::EncodeSnapshotV2(f.store, 0, &image);
    if (!s.ok()) {
      state.SkipWithError("snapshot encode failed");
      return;
    }
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
  state.counters["bytes_per_query"] =
      static_cast<double>(image.size()) / static_cast<double>(f.store.size());
}
BENCHMARK(BM_SnapshotSave)
    ->Arg(20000)
    ->ArgNames({"queries"})
    ->Unit(benchmark::kMillisecond);

// Pairwise similarity micro-costs, the kNN inner loop.
void BM_PairwiseSimilarity(benchmark::State& state) {
  storage::QueryRecord a = storage::BuildRecordFromText(kProbe, "u", 0);
  storage::QueryRecord b = storage::BuildRecordFromText(
      "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 15 "
      "ORDER BY T.temp LIMIT 50",
      "u", 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metaquery::CombinedSimilarity(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairwiseSimilarity);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
