#ifndef CQMS_BENCH_BENCH_UTIL_H_
#define CQMS_BENCH_BENCH_UTIL_H_

#include <malloc.h>

#include <cstdint>
#include <map>
#include <memory>

#include "common/clock.h"
#include "db/database.h"
#include "miner/query_miner.h"
#include "profiler/query_profiler.h"
#include "storage/query_store.h"
#include "workload/synthetic.h"

namespace cqms::bench {

/// Bytes the allocator has handed out and not had back: chunks carved
/// from the arenas (uordblks) plus chunks above the mmap threshold
/// (hblkhd), which glibc moves as it frees large blocks.
inline int64_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

/// A populated database plus a query log of (at least) the requested
/// size, generated by the synthetic scientific workload. Fixtures are
/// cached per size so repeated benchmark cases do not regenerate them.
struct LogFixture {
  SimulatedClock clock{0};
  db::Database database{&clock};
  storage::QueryStore store;
  std::unique_ptr<profiler::QueryProfiler> profiler;
  workload::GroundTruth truth;
  workload::WorkloadOptions workload_options;

  explicit LogFixture(size_t min_queries, size_t rows_per_table = 300,
                      double typo_rate = 0.04) {
    Status s = workload::PopulateLakeDatabase(&database, rows_per_table);
    (void)s;
    profiler = std::make_unique<profiler::QueryProfiler>(&database, &store,
                                                         &clock);
    workload_options.typo_rate = typo_rate;
    // Sessions average ~6 queries; round up and let the generator overshoot.
    workload_options.num_sessions = min_queries / 5 + 1;
    workload::RegisterUsers(&store, workload_options);
    truth = workload::GenerateLog(profiler.get(), &store, &clock,
                                  workload_options);
  }
};

/// Cached fixture per log size. Leaked intentionally: benchmark binaries
/// exit right after the runs.
inline LogFixture& GetFixture(size_t min_queries) {
  static std::map<size_t, LogFixture*>* cache =
      new std::map<size_t, LogFixture*>();
  auto it = cache->find(min_queries);
  if (it == cache->end()) {
    it = cache->emplace(min_queries, new LogFixture(min_queries)).first;
  }
  return *it->second;
}

/// A fixture with mining results, cached per size.
inline miner::QueryMiner& GetMinedFixture(size_t min_queries) {
  static std::map<size_t, miner::QueryMiner*>* cache =
      new std::map<size_t, miner::QueryMiner*>();
  auto it = cache->find(min_queries);
  if (it == cache->end()) {
    LogFixture& fixture = GetFixture(min_queries);
    auto* miner =
        new miner::QueryMiner(&fixture.store, &fixture.clock, {});
    miner->RunAll();
    it = cache->emplace(min_queries, miner).first;
  }
  return *it->second;
}

}  // namespace cqms::bench

#endif  // CQMS_BENCH_BENCH_UTIL_H_
