// E6 — Background mining cost (paper §4.3).
//
// Clustering, association-rule mining and the full miner cycle over
// growing logs; plus the min-support sweep that trades rule count
// against mining time, and incremental refresh (threshold-gated) vs
// always re-mining. Expected shape: Apriori cost grows with transactions
// and shrinking support; k-medoids is quadratic in its (capped) sample;
// incremental refresh amortizes to near-zero between thresholds.

#include <algorithm>
#include <map>
#include <utility>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/cqms.h"
#include "metaquery_reference.h"
#include "miner/query_miner.h"
#include "storage/persistence.h"
#include "storage/snapshot_v2.h"
#include "workload/synthetic.h"

namespace cqms {
namespace {

std::vector<storage::QueryId> AllIds(const storage::QueryStore& store) {
  std::vector<storage::QueryId> ids;
  ids.reserve(store.size());
  for (const auto& r : store.records()) ids.push_back(r.id);
  return ids;
}

void BM_AssociationMining(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  miner::AssociationMinerOptions options;
  auto transactions = miner::BuildTransactions(f.store, AllIds(f.store), options);
  size_t rules = 0;
  for (auto _ : state) {
    auto mined = miner::MineAssociationRules(transactions, options);
    rules = mined.size();
    benchmark::DoNotOptimize(mined);
  }
  state.counters["transactions"] = static_cast<double>(transactions.size());
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_AssociationMining)
    ->Arg(1000)->Arg(5000)->Arg(20000)->ArgNames({"queries"});

void BM_AssociationMinSupportSweep(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  miner::AssociationMinerOptions options;
  options.min_support = static_cast<double>(state.range(0)) / 1000.0;
  auto transactions = miner::BuildTransactions(f.store, AllIds(f.store), options);
  size_t rules = 0;
  for (auto _ : state) {
    auto mined = miner::MineAssociationRules(transactions, options);
    rules = mined.size();
    benchmark::DoNotOptimize(mined);
  }
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_AssociationMinSupportSweep)
    ->Arg(100)->Arg(10)->Arg(1)->ArgNames({"minsup_permille"});

void BM_KMedoidsClustering(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  std::vector<storage::QueryId> ids = AllIds(f.store);
  ids.resize(std::min<size_t>(ids.size(), static_cast<size_t>(state.range(0))));
  miner::KMedoidsOptions options;
  options.k = 8;
  for (auto _ : state) {
    auto clustering = miner::KMedoidsCluster(f.store, ids, options);
    benchmark::DoNotOptimize(clustering);
  }
  state.counters["points"] = static_cast<double>(ids.size());
}
BENCHMARK(BM_KMedoidsClustering)
    ->Arg(100)->Arg(400)->Arg(1000)->ArgNames({"sample"});

void BM_AgglomerativeClustering(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  std::vector<storage::QueryId> ids = AllIds(f.store);
  ids.resize(std::min<size_t>(ids.size(), 400));
  size_t clusters = 0;
  for (auto _ : state) {
    auto clustering = miner::AgglomerativeCluster(f.store, ids, 0.4);
    clusters = clustering.num_clusters();
    benchmark::DoNotOptimize(clustering);
  }
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK(BM_AgglomerativeClustering);

void BM_FullMiningCycle(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(static_cast<size_t>(state.range(0)));
  miner::QueryMinerOptions options;
  options.clustering_sample = 500;
  for (auto _ : state) {
    miner::QueryMiner miner(&f.store, &f.clock, options);
    miner.RunAll();
    benchmark::DoNotOptimize(miner.rules().size());
  }
  state.counters["log_size"] = static_cast<double>(f.store.size());
}
BENCHMARK(BM_FullMiningCycle)->Arg(1000)->Arg(5000)->ArgNames({"queries"});

// Tentpole headline (§4.3/§4.4): the cost of absorbing a ~1% append
// delta into every mining output — full from-scratch RunAll vs the
// delta-aware MaybeRefresh (tail-resumed sessions, in-place popularity
// and transaction updates, distances copied from the retained matrix).
// One warm miner per (size, mode); each iteration appends the delta off
// the clock, then times the refresh. The log grows ~1% per iteration in
// both modes, so the full/incremental ratio stays honest.
struct RefreshFixture {
  bench::LogFixture log;
  miner::QueryMiner miner;
  workload::WorkloadOptions delta_options;
  uint64_t delta_seed = 10'000;

  explicit RefreshFixture(size_t queries)
      : log(queries), miner(&log.store, &log.clock, [&] {
          miner::QueryMinerOptions options;
          options.refresh_threshold = 1;
          // Measure the steady-state incremental cost; the escape-hatch
          // rebuild would make one iteration pay the full price.
          options.full_rebuild_interval = 0;
          return options;
        }()) {
    delta_options = log.workload_options;
    // ~1% of the log: sessions average ~5-6 queries.
    delta_options.num_sessions = std::max<size_t>(1, queries / 100 / 5);
    miner.RunAll();
  }

  void AppendDelta() {
    delta_options.seed = delta_seed++;
    workload::GenerateLog(log.profiler.get(), &log.store, &log.clock,
                          delta_options);
  }
};

RefreshFixture& GetRefreshFixture(size_t queries, bool incremental) {
  static auto* cache = new std::map<std::pair<size_t, bool>, RefreshFixture*>();
  auto key = std::make_pair(queries, incremental);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, new RefreshFixture(queries)).first;
  }
  return *it->second;
}

void BM_MinerRefresh(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  RefreshFixture& f = GetRefreshFixture(queries, incremental);
  size_t before = f.log.store.size();
  for (auto _ : state) {
    state.PauseTiming();
    f.AppendDelta();
    state.ResumeTiming();
    if (incremental) {
      bool ran = f.miner.MaybeRefresh();
      benchmark::DoNotOptimize(ran);
    } else {
      f.miner.RunAll();
    }
  }
  const miner::MinerRefreshStats& stats = f.miner.last_refresh_stats();
  state.counters["appended_per_iter"] =
      static_cast<double>(f.log.store.size() - before) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.counters["pairs_copied"] = static_cast<double>(stats.pairs_copied);
  state.counters["pairs_computed"] = static_cast<double>(stats.pairs_computed);
}
BENCHMARK(BM_MinerRefresh)
    ->Args({1000, 0})->Args({1000, 1})
    ->Args({5000, 0})->Args({5000, 1})
    ->Args({20000, 0})->Args({20000, 1})
    ->ArgNames({"queries", "incremental"})
    ->Unit(benchmark::kMillisecond);

// The heap one miner holds after RunAll with default options on the 5k
// log: the window is 2,000 records and sketch-pruned, so the retained
// n^2 matrix (32 MB) is most of it. The byte count repeats to within a
// kilobyte from run to run; it is what a long-lived miner (the
// daemon's) keeps between mining cycles.
void BM_MinerHeldHeap(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  int64_t held = 0;
  for (auto _ : state) {
    const int64_t before = bench::HeapInUse();
    miner::QueryMiner miner(&f.store, &f.clock);
    miner.RunAll();
    held = bench::HeapInUse() - before;
    benchmark::DoNotOptimize(miner.clustering().num_clusters());
  }
  state.counters["held_heap_bytes"] = static_cast<double>(held);
}
BENCHMARK(BM_MinerHeldHeap)->Iterations(1)->Unit(benchmark::kMillisecond);

// The same log and options through the Cqms facade, the daemon's only
// mining path: Cqms::RunMining frees the retained matrix after RunAll,
// so it holds BM_MinerHeldHeap's figure less the 2,000 x 2,000
// doubles. The log is the 5k fixture's, restored into the Cqms from
// its snapshot image; the heap counted is what the RunMining call
// leaves held.
void BM_CqmsMiningHeldHeap(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  std::string image;
  Status s = storage::EncodeSnapshotV2(f.store, 0, &image);
  (void)s;
  int64_t held = 0;
  for (auto _ : state) {
    CqmsOptions options;
    options.clock = &f.clock;
    Cqms cqms(options);
    s = storage::LoadSnapshotFromString(cqms.store(), image, "fixture");
    const int64_t before = bench::HeapInUse();
    cqms.RunMining();
    held = bench::HeapInUse() - before;
    benchmark::DoNotOptimize(cqms.miner().clustering().num_clusters());
  }
  state.counters["held_heap_bytes"] = static_cast<double>(held);
}
BENCHMARK(BM_CqmsMiningHeldHeap)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Incremental maintenance (§4.3): MaybeRefresh below the threshold is a
// cheap no-op; this is what a background timer pays almost every tick.
void BM_IncrementalRefreshNoop(benchmark::State& state) {
  bench::LogFixture& f = bench::GetFixture(5000);
  miner::QueryMinerOptions options;
  options.refresh_threshold = 1000000;  // never re-mine
  miner::QueryMiner miner(&f.store, &f.clock, options);
  miner.RunAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.MaybeRefresh());
  }
}
BENCHMARK(BM_IncrementalRefreshNoop);

}  // namespace
}  // namespace cqms

BENCHMARK_MAIN();
