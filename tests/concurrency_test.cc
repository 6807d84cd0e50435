// Concurrency suite: the epoch/read-view publication pipeline
// (docs/concurrency.md) plus the single-thread bugs that blocked it —
// wall-anchored SystemClock, const-correct LSH probing, set-once Ast()
// materialization. The stress test at the bottom runs 8 readers against
// 1 writer and checks every sampled view against a serial replay
// oracle; CI runs this binary under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "maintain/quality.h"
#include "maintain/query_maintenance.h"
#include "metaquery/meta_query_executor.h"
#include "metaquery/meta_query_planner.h"
#include "metaquery/meta_query_request.h"
#include "profiler/query_profiler.h"
#include "storage/epoch.h"
#include "storage/minhash.h"
#include "storage/query_store.h"
#include "storage/record_builder.h"
#include "storage/snapshot_v2.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::storage {
namespace {

// --- SystemClock: wall-anchored timestamps (the persistence bug) -----------

TEST(SystemClockTest, NowIsAnchoredToUnixEpoch) {
  // Regression: SystemClock::Now() used steady_clock, whose epoch is
  // arbitrary per boot (typically "time since power-on"). Timestamps
  // are persisted into snapshots and the WAL, so after a reboot fresh
  // stamps would compare wildly against restored ones. Unix-epoch
  // anchoring is the testable half of that fix: a per-boot epoch could
  // never land in this window.
  SystemClock clock;
  Micros now = clock.Now();
  EXPECT_GT(now, 1'577'836'800'000'000LL);  // 2020-01-01
  EXPECT_LT(now, 4'102'444'800'000'000LL);  // 2100-01-01
}

TEST(SystemClockTest, RestoreAcrossRebootKeepsLogOrder) {
  // Simulated two-boot run: the wall clock keeps advancing across the
  // "reboot" while the process restarts around the snapshot. Restored
  // timestamps must sort before anything the resumed wall clock stamps,
  // or sessionization gaps and recency ranking silently corrupt.
  SimulatedClock wall(1'700'000'000'000'000);  // wall epoch, 2023-ish
  QueryStore store;
  store.Append(BuildRecordFromText("SELECT a FROM sensors", "u", wall.Now()));
  wall.Advance(kMicrosPerMinute);
  store.Append(BuildRecordFromText("SELECT b FROM sensors", "u", wall.Now()));
  std::string path = ::testing::TempDir() + "/clock_epoch_snapshot.bin";
  ASSERT_TRUE(SaveSnapshotV2(store, path).ok());

  wall.Advance(30 * kMicrosPerMinute);  // downtime across the reboot
  QueryStore restored;
  ASSERT_TRUE(LoadSnapshotV2(&restored, path).ok());
  EXPECT_EQ(restored.max_timestamp(), store.max_timestamp());
  Micros fresh = wall.Now();
  EXPECT_GT(fresh, restored.max_timestamp());
  restored.Append(BuildRecordFromText("SELECT c FROM sensors", "u", fresh));
  EXPECT_EQ(restored.max_timestamp(), fresh);
}

// --- EpochDomain ----------------------------------------------------------

TEST(EpochDomainTest, ReclaimWaitsForEarlierPins) {
  EpochDomain domain;
  auto obj = std::make_shared<int>(42);
  std::weak_ptr<int> alive = obj;

  size_t slot = domain.Pin();  // stamped before the retire
  domain.Retire(std::shared_ptr<const void>(std::move(obj)));
  EXPECT_EQ(domain.retired_count(), 1u);
  domain.Reclaim();
  EXPECT_FALSE(alive.expired());  // the earlier pin blocks reclamation

  size_t late = domain.Pin();  // stamped after the retire: must not block
  domain.Unpin(slot);
  domain.Reclaim();
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(domain.retired_count(), 0u);
  domain.Unpin(late);
}

TEST(EpochDomainTest, TryPinReportsExhaustion) {
  EpochDomain domain;
  std::vector<size_t> slots;
  for (size_t i = 0; i < EpochDomain::kMaxSlots; ++i) {
    size_t s = domain.TryPin();
    ASSERT_NE(s, EpochDomain::kNoSlot);
    slots.push_back(s);
  }
  EXPECT_EQ(domain.TryPin(), EpochDomain::kNoSlot);
  for (size_t s : slots) domain.Unpin(s);
  EXPECT_NE(domain.TryPin(), EpochDomain::kNoSlot);
}

// --- LshIndex: const probing with caller scratch --------------------------

TEST(LshScratchTest, ConcurrentCandidatesMatchSerial) {
  // Regression: Candidates() was const but wrote mutable per-index
  // scratch, so two concurrent probes corrupted each other's dedup
  // state. Scratch now lives with the caller (or thread_local).
  QueryStore store;
  std::vector<QueryRecord> probes;
  for (int i = 0; i < 160; ++i) {
    std::string sql = "SELECT a, b FROM tbl" + std::to_string(i % 5) +
                      " WHERE a > " + std::to_string(i);
    store.Append(BuildRecordFromText(sql, "u", i + 1));
  }
  for (int i = 0; i < 4; ++i) {
    probes.push_back(BuildRecordFromText(
        "SELECT a FROM tbl" + std::to_string(i) + " WHERE a > 1", "u", 0,
        SignatureMode::kTransient));
  }

  std::vector<MinHashSketch> sketches;
  std::vector<std::vector<StatementId>> expected;
  for (const QueryRecord& p : probes) {
    sketches.push_back(ComputeMinHashSketch(p.statement().signature));
    expected.push_back(store.lsh().Candidates(sketches.back()));
  }

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      LshProbeScratch scratch;  // caller-owned, reused across probes
      for (int iter = 0; iter < 50; ++iter) {
        size_t pi = static_cast<size_t>((t + iter) % probes.size());
        std::vector<StatementId> got =
            store.lsh().Candidates(sketches[pi], 0, &scratch);
        if (got != expected[pi]) mismatches.fetch_add(1);
        // Also exercise the thread_local fallback path.
        got = store.lsh().Candidates(sketches[pi]);
        if (got != expected[pi]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- QueryRecord::Ast(): set-once lazy materialization --------------------

TEST(QueryRecordTest, ConcurrentAstMaterializationAgrees) {
  // A snapshot restore leaves each statement's tree unparsed, and every
  // record of the statement shares it: readers materialize it through
  // Ast() on whichever record they hold, while the writer rewrites one
  // record (copy-on-write clones it, sharing the statement being
  // materialized, then re-points the clone).
  constexpr int kRecords = 16;
  QueryStore source;
  for (int i = 0; i < kRecords; ++i) {
    source.Append(BuildRecordFromText(
        "SELECT t.a FROM sensors t WHERE t.a > 5", "u", i + 1));
  }
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(source, 0, &image).ok());
  QueryStore store;
  ASSERT_TRUE(LoadSnapshotV2FromString(&store, image, "ast-race").ok());
  ASSERT_EQ(store.statement_count(), 1u);
  ASSERT_FALSE(store.Get(0)->parse_failed());
  store.EnableViews();
  std::shared_ptr<const ReadViewState> view = store.SharedView();

  constexpr int kThreads = 8;
  std::vector<const sql::SelectStatement*> seen(kThreads * kRecords, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRecords; ++i) {
        const int id = (i + t) % kRecords;  // each reader its own order
        seen[static_cast<size_t>(t * kRecords + id)] = view->Get(id)->Ast();
      }
    });
  }
  const QueryId rewritten = 3;
  ASSERT_TRUE(
      store.RewriteQueryText(rewritten, "SELECT t.b FROM sensors t").ok());
  for (std::thread& th : threads) th.join();

  ASSERT_NE(seen[0], nullptr);
  for (const sql::SelectStatement* tree : seen) {
    EXPECT_EQ(tree, seen[0]);  // one winner, shared by every record
  }
  // Only the rewritten record moved to a statement of its own.
  EXPECT_EQ(store.statement_count(), 2u);
  EXPECT_EQ(store.Get(0)->Ast(), seen[0]);
  EXPECT_NE(&store.Get(rewritten)->statement(), &store.Get(0)->statement());
  EXPECT_EQ(view->Get(rewritten)->Ast(), seen[0]);
}

TEST(QueryRecordTest, ReadersMaterializeTreesWhileWriterProfilesReRuns) {
  // After a restore every statement's tree is unparsed. Readers
  // materialize trees through Ast() on pinned views while the writer
  // profiles re-runs of the same statements: each re-run shares the
  // statement and executes its tree once a reader has set it, or a
  // private tree until then.
  SimulatedClock clock(1);
  db::Database database(&clock);
  ASSERT_TRUE(workload::PopulateLakeDatabase(&database, 30).ok());
  // One output row each, stored completely, so every re-run's output
  // part equals the restored one.
  const std::vector<std::string> texts = {
      "SELECT COUNT(*) FROM WaterTemp WHERE temp < 18",
      "SELECT MAX(temp) FROM WaterTemp",
      "SELECT COUNT(*) FROM CityLocations",
      "SELECT MIN(salinity) FROM WaterSalinity WHERE loc_x > 2",
  };
  QueryStore source;
  profiler::QueryProfiler source_profiler(&database, &source, &clock);
  for (const std::string& text : texts) {
    ASSERT_TRUE(source_profiler.ExecuteAndProfile(text, "alice").stats.succeeded);
  }
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(source, 0, &image).ok());
  QueryStore store;
  ASSERT_TRUE(LoadSnapshotV2FromString(&store, image, "rerun-race").ok());
  store.EnableViews();
  profiler::QueryProfiler profiler(&database, &store, &clock);

  std::atomic<bool> done{false};
  std::atomic<int> missing_trees{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!done.load(std::memory_order_acquire)) {
        PinnedView view = store.PinView();
        for (size_t id = 0; id < view->size(); ++id) {
          if (view->Get(static_cast<QueryId>(id))->Ast() == nullptr) {
            missing_trees.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  constexpr size_t kRuns = 200;
  for (size_t i = 0; i < kRuns; ++i) {
    profiler::ProfiledExecution e =
        profiler.ExecuteAndProfile(texts[i % texts.size()], "bob");
    EXPECT_TRUE(e.stats.succeeded);
    EXPECT_EQ(e.result.rows.size(), 1u);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(missing_trees.load(), 0);
  ASSERT_EQ(store.size(), texts.size() + kRuns);
  EXPECT_EQ(store.statement_count(), texts.size());
  for (QueryId id = 0; id < static_cast<QueryId>(store.size()); ++id) {
    const QueryRecord* first = store.Get(id % static_cast<QueryId>(texts.size()));
    EXPECT_EQ(&store.Get(id)->statement(), &first->statement()) << id;
    EXPECT_EQ(store.Get(id)->Ast(), first->Ast()) << id;
  }
}

// --- read-view publication semantics --------------------------------------

TEST(ReadViewTest, PinnedViewIsSnapshotIsolated) {
  QueryStore store;
  store.EnableViews();
  QueryId a =
      store.Append(BuildRecordFromText("SELECT a FROM sensors", "alice", 1));

  PinnedView view = store.PinView();
  ASSERT_TRUE(view);
  uint64_t pinned_seq = view->sequence();

  store.Append(BuildRecordFromText("SELECT b FROM plants", "alice", 2));
  ASSERT_TRUE(store.AddFlag(a, kFlagObsolete).ok());

  // The pinned view still shows the pre-mutation world.
  EXPECT_EQ(view->size(), 1u);
  EXPECT_FALSE(view->Get(a)->HasFlag(kFlagObsolete));  // COW protected
  EXPECT_EQ(view->postings()
                .RecordsOf(view->postings().StatementsUsingTable("plants"))
                .size(),
            0u);

  // A fresh pin sees everything.
  PinnedView fresh = store.PinView();
  EXPECT_GT(fresh->sequence(), pinned_seq);
  EXPECT_EQ(fresh->size(), 2u);
  EXPECT_TRUE(fresh->Get(a)->HasFlag(kFlagObsolete));
  EXPECT_EQ(fresh->postings()
                .RecordsOf(fresh->postings().StatementsUsingTable("plants"))
                .size(),
            1u);

  // The live store saw the mutations all along.
  EXPECT_TRUE(store.Get(a)->HasFlag(kFlagObsolete));
}

TEST(ReadViewTest, ScopedPublishBatchDefersToScopeExit) {
  QueryStore store;
  store.EnableViews();
  uint64_t seq0 = store.published_sequence();
  {
    QueryStore::ScopedPublishBatch batch(&store);
    for (int i = 0; i < 10; ++i) {
      store.Append(
          BuildRecordFromText("SELECT " + std::to_string(i), "u", i + 1));
    }
    EXPECT_EQ(store.published_sequence(), seq0);  // nothing mid-batch
    EXPECT_EQ(store.PinView()->size(), 0u);
  }
  EXPECT_EQ(store.published_sequence(), seq0 + 1);  // exactly one publish
  EXPECT_EQ(store.PinView()->size(), 10u);
}

TEST(ReadViewTest, SharedViewOutlivesRetirement) {
  QueryStore store;
  store.EnableViews();
  store.Append(BuildRecordFromText("SELECT a FROM sensors", "u", 1));
  std::shared_ptr<const ReadViewState> held = store.SharedView();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->size(), 1u);
  uint64_t held_seq = held->sequence();

  // Many republishes retire (and epoch-reclaim) the intermediate views;
  // the refcounted handle must keep exactly its own alive.
  for (int i = 0; i < 20; ++i) {
    store.Append(
        BuildRecordFromText("SELECT " + std::to_string(i), "u", i + 2));
  }
  EXPECT_EQ(held->sequence(), held_seq);
  EXPECT_EQ(held->size(), 1u);
  EXPECT_EQ(held->postings()
                .RecordsOf(held->postings().StatementsUsingTable("sensors"))
                .size(),
            1u);
  EXPECT_EQ(store.SharedView()->size(), 21u);
}

TEST(ReadViewTest, SnapshotSavedFromViewMatchesLive) {
  QueryStore store;
  store.acl().AddUser("alice", {"lab"});
  store.EnableViews();
  store.Append(BuildRecordFromText("SELECT a FROM sensors", "alice", 1));
  store.Append(BuildRecordFromText("SELECT b FROM plants", "alice", 2));

  std::shared_ptr<const ReadViewState> view = store.SharedView();
  std::string from_view, from_live;
  ASSERT_TRUE(EncodeSnapshotV2(*view, 0, &from_view).ok());
  ASSERT_TRUE(EncodeSnapshotV2(store, 0, &from_live).ok());
  EXPECT_EQ(from_view, from_live);  // byte-identical encodings

  std::string path = ::testing::TempDir() + "/view_snapshot.bin";
  ASSERT_TRUE(SaveSnapshotV2(*view, path).ok());
  QueryStore restored;
  ASSERT_TRUE(LoadSnapshotV2(&restored, path).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.acl().HasUser("alice"));
}

TEST(ReadViewTest, ExecutorUsesViewsAndMatchesLivePath) {
  // Same data, one store with views and one without: the executor must
  // return identical results through both paths.
  QueryStore with_views, live_only;
  for (QueryStore* s : {&with_views, &live_only}) {
    s->acl().AddUser("alice", {"lab"});
    for (int i = 0; i < 30; ++i) {
      std::string sql = "SELECT a, b FROM tbl" + std::to_string(i % 3) +
                        " WHERE a > " + std::to_string(i);
      s->Append(BuildRecordFromText(sql, "alice", i + 1));
    }
  }
  with_views.EnableViews();

  metaquery::MetaQueryExecutor ex_views(&with_views);
  metaquery::MetaQueryExecutor ex_live(&live_only);
  QueryRecord probe = BuildRecordFromText(
      "SELECT a FROM tbl1 WHERE a > 3", "alice", 0, SignatureMode::kTransient);

  metaquery::MetaQueryRequest request;
  request.SimilarTo(probe).Limit(5);
  metaquery::MetaQueryResponse a = ex_views.Execute("alice", request);
  metaquery::MetaQueryResponse b = ex_live.Execute("alice", request);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].id, b.matches[i].id);
    EXPECT_EQ(a.matches[i].score, b.matches[i].score);
  }

  metaquery::MetaQueryRequest kw;
  kw.WithKeywords("tbl2").InLogOrder();
  kw.ranking.exclude_flagged = false;
  EXPECT_EQ(ex_views.Execute("alice", kw).Ids(),
            ex_live.Execute("alice", kw).Ids());
}

// --- 8 readers x 1 writer stress with a serial replay oracle ---------------

// Deterministic mutation script: every step applies exactly one
// mutation, so after k steps both the stress store and the replay store
// have mutation_count() == base + k.
struct Step {
  enum Kind { kAppend, kFlag } kind = kAppend;
  std::string sql;       // kAppend
  std::string user;      // kAppend
  Micros timestamp = 0;  // kAppend
  QueryId flag_id = 0;   // kFlag
};

std::vector<Step> MakeScript(size_t steps) {
  const char* tables[] = {"sensors", "plants", "sites", "samples", "readings"};
  std::vector<Step> script;
  size_t appended = 0;
  uint64_t flagged = 0;
  for (size_t i = 0; i < steps; ++i) {
    Step s;
    // Every 10th step tombstone-flags a distinct earlier id; the rest
    // append. Flag targets stay deterministic and are never repeated
    // (AddFlag on an already-set flag would be a no-op non-mutation and
    // desynchronize the mutation counting).
    if (i % 10 == 7 && flagged < appended) {
      s.kind = Step::kFlag;
      s.flag_id = static_cast<QueryId>(flagged++);
    } else {
      s.kind = Step::kAppend;
      s.sql = "SELECT a, b FROM " + std::string(tables[i % 5]) +
              " WHERE a > " + std::to_string(i);
      s.user = "u" + std::to_string(i % 4);
      s.timestamp = static_cast<Micros>((i + 1) * kMicrosPerSecond);
      ++appended;
    }
    script.push_back(std::move(s));
  }
  return script;
}

void ApplyStep(QueryStore* store, const Step& s) {
  if (s.kind == Step::kAppend) {
    store->Append(BuildRecordFromText(s.sql, s.user, s.timestamp));
  } else {
    ASSERT_TRUE(store->AddFlag(s.flag_id, kFlagObsolete).ok());
  }
}

struct Sample {
  uint64_t mutations = 0;
  size_t view_size = 0;
  std::vector<std::pair<QueryId, double>> knn;  // (id, score)
  std::vector<QueryId> keyword_ids;
};

TEST(ConcurrencyStressTest, ReadersSeeConsistentPrefixes) {
  constexpr size_t kPrefix = 40;    // applied before readers start
  constexpr size_t kLive = 200;     // applied concurrently with readers
  constexpr int kReaders = 8;
  std::vector<Step> script = MakeScript(kPrefix + kLive);

  QueryStore store;
  for (int u = 0; u < 4; ++u) {
    store.acl().AddUser("u" + std::to_string(u), {"lab"});
  }
  for (size_t i = 0; i < kPrefix; ++i) ApplyStep(&store, script[i]);
  const uint64_t base = store.mutation_count();
  ASSERT_EQ(base, kPrefix);
  store.EnableViews();

  // Built after the prefix so the probe's table symbols are interned.
  const QueryRecord probe = BuildRecordFromText(
      "SELECT a FROM sensors WHERE a > 3", "u0", 0, SignatureMode::kTransient);
  auto make_knn_request = [&probe]() {
    metaquery::MetaQueryRequest request;
    request.SimilarTo(probe).Limit(8);
    return request;
  };
  auto make_keyword_request = []() {
    metaquery::MetaQueryRequest request;
    request.WithKeywords("plants").InLogOrder();
    request.ranking.exclude_flagged = false;
    return request;
  };

  // Expected log size after m mutations (appends among the first m steps).
  std::vector<size_t> size_after(script.size() + 1, 0);
  for (size_t k = 0; k < script.size(); ++k) {
    size_after[k + 1] =
        size_after[k] + (script[k].kind == Step::kAppend ? 1 : 0);
  }

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Sample>> samples(kReaders);

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      uint64_t last_m = 0;
      int iterations = 0;
      while (!writer_done.load(std::memory_order_acquire) ||
             iterations < 30) {
        ++iterations;
        PinnedView view = store.PinView();
        ASSERT_TRUE(view);
        Sample sample;
        sample.mutations = view->mutations();
        sample.view_size = view->size();
        // Views are published in order: a later pin never sees an
        // earlier snapshot.
        ASSERT_GE(sample.mutations, last_m);
        last_m = sample.mutations;

        StoreView sv(*view);
        metaquery::MetaQueryPlanner planner{sv};
        VisibilityCache& cache = view->CacheFor("u0");
        metaquery::MetaQueryResponse knn =
            planner.Execute(make_knn_request(), &cache);
        for (const metaquery::MetaQueryMatch& m : knn.matches) {
          sample.knn.emplace_back(m.id, m.score);
        }
        sample.keyword_ids =
            planner.Execute(make_keyword_request(), &cache).Ids();
        samples[static_cast<size_t>(t)].push_back(std::move(sample));
        if (iterations > 4000) break;  // safety bound
      }
    });
  }

  std::thread writer([&]() {
    for (size_t i = kPrefix; i < script.size(); ++i) {
      ApplyStep(&store, script[i]);
      if (i % 8 == 0) std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& r : readers) r.join();

  // Serial replay oracle: re-apply the script into a fresh store and,
  // at every sampled mutation count, run the same requests serially.
  std::map<uint64_t, Sample> sampled;
  size_t total_samples = 0;
  for (const auto& reader : samples) {
    total_samples += reader.size();
    for (const Sample& s : reader) sampled.emplace(s.mutations, s);
  }
  ASSERT_GT(total_samples, 0u);

  QueryStore replay;
  for (int u = 0; u < 4; ++u) {
    replay.acl().AddUser("u" + std::to_string(u), {"lab"});
  }
  size_t applied = 0;
  for (const auto& [m, observed] : sampled) {
    ASSERT_GE(m, base);
    ASSERT_LE(m, script.size());
    while (applied < m) {
      ApplyStep(&replay, script[applied]);
      ++applied;
    }
    ASSERT_EQ(replay.mutation_count(), m);
    EXPECT_EQ(observed.view_size, size_after[m]) << "at mutation " << m;

    metaquery::MetaQueryPlanner planner(&replay);
    metaquery::MetaQueryResponse knn =
        planner.Execute("u0", make_knn_request());
    ASSERT_EQ(observed.knn.size(), knn.matches.size())
        << "kNN diverged from serial oracle at mutation " << m;
    for (size_t i = 0; i < knn.matches.size(); ++i) {
      EXPECT_EQ(observed.knn[i].first, knn.matches[i].id)
          << "at mutation " << m << " rank " << i;
      EXPECT_EQ(observed.knn[i].second, knn.matches[i].score)
          << "at mutation " << m << " rank " << i;
    }
    EXPECT_EQ(observed.keyword_ids,
              planner.Execute("u0", make_keyword_request()).Ids())
        << "keyword search diverged at mutation " << m;
  }
}

// One pinned view serves every viewer from several threads through one
// shared 2-bit memo per viewer: threads that race to fill the same
// words must read exactly what QueryStore::Visible decides, over
// private, public and group records, tombstones, owners in no group
// and a viewer in none.
TEST(ReadViewTest, ThreadsShareOneVisibilityMemoPerViewer) {
  QueryStore store;
  store.acl().AddUser("u0", {"lab"});
  store.acl().AddUser("u1", {"lab"});
  store.acl().AddUser("u2", {"ocean"});
  store.acl().AddUser("u3", {"ocean", "lab"});
  const std::vector<std::string> owners = {"u0", "u1", "u2", "u3",
                                           "outsider"};
  constexpr int kRecords = 300;  // ten words, the last one partial
  for (int i = 0; i < kRecords; ++i) {
    const std::string& owner = owners[static_cast<size_t>(i * 7 % 5)];
    QueryId id = store.Append(BuildRecordFromText(
        "SELECT a FROM sensors WHERE a > " + std::to_string(i), owner, i));
    if (i % 3 == 0 || i % 5 == 0) {
      const Visibility v =
          i % 3 == 0 ? Visibility::kPrivate : Visibility::kPublic;
      ASSERT_TRUE(store.acl().SetVisibility(id, owner, owner, v).ok());
    }
    if (i % 11 == 0) {
      ASSERT_TRUE(store.Delete(id, owner).ok());
    }
  }
  store.EnableViews();
  PinnedView view = store.PinView();
  ASSERT_TRUE(view);

  const std::vector<std::string> viewers = {"u0", "u1", "u2",
                                            "u3", "outsider", "stranger"};
  std::vector<std::vector<bool>> expected;
  size_t visible = 0;
  for (const std::string& viewer : viewers) {
    std::vector<bool> row;
    for (QueryId id = 0; id < kRecords; ++id) {
      row.push_back(store.Visible(viewer, id));
      visible += row.back() ? 1 : 0;
    }
    expected.push_back(std::move(row));
  }
  ASSERT_GT(visible, 0u);
  ASSERT_LT(visible, viewers.size() * kRecords);

  constexpr int kThreads = 4;
  std::vector<std::vector<const VisibilityCache*>> caches(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<const VisibilityCache*>& mine =
          caches[static_cast<size_t>(t)];
      for (const std::string& viewer : viewers) {
        mine.push_back(&view->CacheFor(viewer));
      }
      // Every thread starts its lookups at once and takes no lock while
      // it fills, so the fills of one word race.
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int pass = 0; pass < 3; ++pass) {
        for (size_t v = 0; v < viewers.size(); ++v) {
          // Each thread walks the ids in its own order.
          for (int k = 0; k < kRecords; ++k) {
            const QueryId id = (k * 37 + t * 101 + pass) % kRecords;
            const bool want = expected[v][static_cast<size_t>(id)];
            if (mine[v]->VisibleId(id) != want) {
              ++mismatches[static_cast<size_t>(t)];
            }
          }
        }
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(caches[static_cast<size_t>(t)], caches[0])
        << "thread " << t << " was handed its own caches";
  }
}

// A writer that also mutates the ACL mid-run: readers on old views keep
// the old visibility, new views see the new rules.
TEST(ReadViewTest, AclChangesPublishLikeMutations) {
  QueryStore store;
  store.acl().AddUser("owner", {"lab"});
  store.EnableViews();
  QueryId id =
      store.Append(BuildRecordFromText("SELECT a FROM sensors", "owner", 1));

  PinnedView before = store.PinView();
  // "stranger" shares no group: default kGroup visibility hides the
  // query from them on this view.
  {
    VisibilityCache cache{StoreView(*before), "stranger"};
    EXPECT_FALSE(cache.VisibleId(id));
  }

  // ACL mutations tick publication like record mutations do.
  uint64_t seq = store.published_sequence();
  store.acl().AddUser("stranger", {"lab"});
  EXPECT_GT(store.published_sequence(), seq);

  PinnedView after = store.PinView();
  VisibilityCache cache{StoreView(*after), "stranger"};
  EXPECT_TRUE(cache.VisibleId(id));
}


// --- Published views share the store's parts --------------------------------

// The five read-path parts of a view or of the live store, by address.
enum PartBit : unsigned {
  kRecords = 1u << 0,
  kPostings = 1u << 1,
  kScoring = 1u << 2,
  kLsh = 1u << 3,
  kAcl = 1u << 4,
};

template <typename Source>  // QueryStore or ReadViewState
std::vector<const void*> PartsOf(const Source& s) {
  return {&s.records(), &s.postings(), &s.scoring(), &s.lsh(), &s.acl()};
}

// The parts (PartBit mask) whose addresses differ between `a` and `b`.
unsigned MovedParts(const std::vector<const void*>& a,
                    const std::vector<const void*>& b) {
  unsigned moved = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) moved |= 1u << i;
  }
  return moved;
}

// Three users in two groups, 41 records over six repeated statements
// and one of its own, which a rewrite moved to a new text, leaving
// garbage in the scoring arenas; a parse failure, a flagged record, a
// private and a public one.
void BuildSharingStore(QueryStore* store) {
  store->acl().AddUser("alice", {"lab"});
  store->acl().AddUser("bob", {"lab"});
  store->acl().AddUser("carol", {"other"});
  const char* texts[] = {
      "SELECT temp FROM sensors WHERE temp < 18",
      "SELECT a, b FROM plants WHERE a > 3",
      "SELECT s.x, p.y FROM sensors s, plants p WHERE s.id = p.id",
      "SELECT COUNT(*) FROM sites GROUP BY region",
      "SELEKT broken FROM sensors",
      "SELECT DISTINCT b FROM plants",
  };
  const char* users[] = {"alice", "bob", "carol"};
  for (int i = 0; i < 40; ++i) {
    store->Append(BuildRecordFromText(texts[(i * 7) % 6], users[i % 3],
                                      (i + 1) * kMicrosPerSecond));
  }
  ASSERT_TRUE(store->AddFlag(3, kFlagObsolete).ok());
  ASSERT_TRUE(store->acl().SetVisibility(4, "bob", "bob",
                                         Visibility::kPrivate).ok());
  ASSERT_TRUE(store->acl().SetVisibility(5, "carol", "carol",
                                         Visibility::kPublic).ok());
  const QueryId once =
      store->Append(BuildRecordFromText("SELECT w FROM wells", "alice", 0));
  ASSERT_TRUE(store->RewriteQueryText(once, "SELECT w FROM springs").ok());
  ASSERT_GT(store->scoring().arena_garbage(), 0u);
}

// Everything a reader can ask a view, printed: keyword, substring and
// kNN answers with their scores, and every record's visibility, for a
// viewer of each group and an unregistered one.
std::string AnswersOf(const ReadViewState& view) {
  std::ostringstream out;
  metaquery::MetaQueryPlanner planner{StoreView(view)};
  QueryRecord probe =
      BuildRecordFromText("SELECT temp FROM sensors WHERE temp < 20", "alice",
                          0, SignatureMode::kTransient);
  std::vector<metaquery::MetaQueryRequest> requests(4);
  requests[0].WithKeywords("plants").InLogOrder();
  requests[0].ranking.exclude_flagged = false;
  requests[1].WithSubstring("from").InLogOrder().Limit(100);
  requests[2].SimilarTo(probe).Limit(10);
  requests[3].WithKeywords("sensors");
  for (const char* viewer : {"alice", "carol", "dave"}) {
    for (const metaquery::MetaQueryRequest& request : requests) {
      VisibilityCache cache{StoreView(view), viewer};
      for (const metaquery::MetaQueryMatch& m :
           planner.Execute(request, &cache).matches) {
        out << m.id << ":" << m.score << " ";
      }
      out << "| ";
    }
    VisibilityCache cache{StoreView(view), viewer};
    for (size_t id = 0; id < view.size(); ++id) {
      out << cache.VisibleId(static_cast<QueryId>(id));
    }
    out << "\n";
  }
  return out.str();
}

TEST(ViewSharingTest, PublishesWithNoWriteBetweenShareEveryPart) {
  QueryStore store;
  BuildSharingStore(&store);
  store.EnableViews();
  std::shared_ptr<const ReadViewState> first = store.SharedView();
  store.PublishView();
  std::shared_ptr<const ReadViewState> second = store.SharedView();
  ASSERT_NE(first, second);
  EXPECT_EQ(PartsOf(*first), PartsOf(*second));
  EXPECT_EQ(PartsOf(*second), PartsOf(store));
}

// Each kind of write, applied outside any batch (so it publishes): a
// view pinned before it answers and encodes as before, the live store
// shows it, and the view published after it has new addresses for
// exactly the parts the write touched.
TEST(ViewSharingTest, WritesCopyOnlyThePartsTheyTouch) {
  struct WriteCase {
    const char* name;
    unsigned touched;
    std::function<void(QueryStore*)> write;
    std::function<bool(const QueryStore&)> shows;
  };
  const std::vector<WriteCase> cases = {
      {"append of a new statement",
       kRecords | kPostings | kScoring | kAcl | kLsh,
       [](QueryStore* s) {
         s->Append(BuildRecordFromText("SELECT y FROM rivers", "bob", 99));
       },
       [](const QueryStore& s) { return s.size() == 42; }},
      {"append of a re-run", kRecords | kPostings | kScoring | kAcl,
       [](QueryStore* s) {
         s->Append(BuildRecordFromText(
             "SELECT DISTINCT b FROM plants", "carol", 99));
       },
       [](const QueryStore& s) { return s.size() == 42; }},
      {"restore append", kRecords | kPostings | kScoring | kAcl | kLsh,
       [](QueryStore* s) {
         s->RestoreAppend(BuildRecordFromText("SELECT z FROM lakes", "bob", 99));
       },
       [](const QueryStore& s) {
         return s.size() == 42 && s.QueriesUsingTable("lakes").size() == 1;
       }},
      {"rewrite", kRecords | kPostings | kScoring | kLsh,
       [](QueryStore* s) {
         ASSERT_TRUE(
             s->RewriteQueryText(1, "SELECT a FROM gardens WHERE a > 4").ok());
       },
       [](const QueryStore& s) {
         return s.Get(1)->text == "SELECT a FROM gardens WHERE a > 4";
       }},
      {"annotate", kRecords,
       [](QueryStore* s) {
         Annotation a;
         a.author = "alice";
         a.text = "calibrated";
         ASSERT_TRUE(s->Annotate(2, a).ok());
       },
       [](const QueryStore& s) { return s.Get(2)->annotations.size() == 1; }},
      {"flag set", kRecords | kScoring,
       [](QueryStore* s) { ASSERT_TRUE(s->AddFlag(6, kFlagObsolete).ok()); },
       [](const QueryStore& s) {
         return s.Get(6)->HasFlag(kFlagObsolete) &&
                (s.scoring().flags(6) & kFlagObsolete) != 0;
       }},
      {"flag clear", kRecords | kScoring,
       [](QueryStore* s) {
         ASSERT_TRUE(s->ClearFlag(3, kFlagObsolete).ok());
       },
       [](const QueryStore& s) { return !s.Get(3)->HasFlag(kFlagObsolete); }},
      {"session", kRecords,
       [](QueryStore* s) { ASSERT_TRUE(s->SetSession(7, 12).ok()); },
       [](const QueryStore& s) { return s.Get(7)->session_id == 12; }},
      {"quality", kRecords | kScoring,
       [](QueryStore* s) { ASSERT_TRUE(s->SetQuality(8, 0.25).ok()); },
       [](const QueryStore& s) {
         return s.Get(8)->quality == 0.25 && s.scoring().quality(8) == 0.25;
       }},
      {"output signature sync", kRecords | kPostings | kScoring | kLsh,
       [](QueryStore* s) {
         QueryRecord* r = s->GetMutable(9);
         r->summary.column_names = {"v"};
         r->summary.total_rows = 1;
         r->summary.sample_rows = {{db::Value::Int(42)}};
         ASSERT_TRUE(s->SyncOutputSignature(9).ok());
       },
       [](const QueryStore& s) {
         return !s.Get(9)->statement().signature.output_rows.empty();
       }},
      {"output signature restore", kRecords | kPostings | kScoring | kLsh,
       [](QueryStore* s) {
         ASSERT_TRUE(s->RestoreOutputSignature(13, {7, 8, 9}, false).ok());
       },
       [](const QueryStore& s) {
         return s.Get(13)->statement().signature.output_rows.size() == 3;
       }},
      {"delete", kRecords | kScoring,
       [](QueryStore* s) { ASSERT_TRUE(s->Delete(11, "", true).ok()); },
       [](const QueryStore& s) { return s.Get(11)->HasFlag(kFlagDeleted); }},
      {"visibility", kAcl,
       [](QueryStore* s) {
         ASSERT_TRUE(s->acl().SetVisibility(12, "alice", "alice",
                                            Visibility::kPrivate).ok());
       },
       [](const QueryStore& s) {
         return s.acl().GetVisibility(12) == Visibility::kPrivate;
       }},
      {"add user", kAcl,
       [](QueryStore* s) { s->acl().AddUser("dave", {"other"}); },
       [](const QueryStore& s) { return s.acl().HasUser("dave"); }},
      {"arena compaction", kScoring,
       [](QueryStore* s) { s->CompactScoringArenas(); },
       [](const QueryStore& s) { return s.scoring().arena_garbage() == 0; }},
  };
  for (const WriteCase& c : cases) {
    SCOPED_TRACE(c.name);
    QueryStore store;
    BuildSharingStore(&store);
    store.EnableViews();
    std::shared_ptr<const ReadViewState> pinned = store.SharedView();
    const std::vector<const void*> parts = PartsOf(*pinned);
    const std::string answers = AnswersOf(*pinned);
    std::string image;
    ASSERT_TRUE(EncodeSnapshotV2(*pinned, 0, &image).ok());
    ASSERT_FALSE(c.shows(store));

    const uint64_t sequence = store.published_sequence();
    c.write(&store);
    EXPECT_GT(store.published_sequence(), sequence);
    EXPECT_TRUE(c.shows(store));

    EXPECT_EQ(PartsOf(*pinned), parts);
    EXPECT_EQ(AnswersOf(*pinned), answers);
    std::string again;
    ASSERT_TRUE(EncodeSnapshotV2(*pinned, 0, &again).ok());
    EXPECT_TRUE(again == image) << "the pinned view encodes differently";

    std::shared_ptr<const ReadViewState> published = store.SharedView();
    EXPECT_EQ(MovedParts(parts, PartsOf(*published)), c.touched);
    EXPECT_EQ(PartsOf(*published), PartsOf(store));
  }
}

// The address of each chunk of a record log: its first record's.
std::vector<const void*> ChunksOf(const RecordLog& log) {
  std::vector<const void*> chunks;
  for (size_t i = 0; i < log.size(); i += RecordLog::kChunkRecords) {
    chunks.push_back(&log[i]);
  }
  return chunks;
}

// BuildSharingStore's log grown to two full chunks and ten records of a
// third, re-runs of its statements by its users.
void BuildChunkedStore(QueryStore* store) {
  BuildSharingStore(store);
  const size_t target = 2 * RecordLog::kChunkRecords + 10;
  for (size_t i = store->size(); i < target; ++i) {
    const QueryRecord& model = *store->Get(static_cast<QueryId>(i % 40));
    store->Append(BuildRecordFromText(model.text, model.user,
                                      static_cast<Micros>(i)));
  }
}

// Writes at the edges of the log's chunks, each outside any batch (so
// it publishes), with a view pinned before it: the view answers and
// encodes as before and keeps every chunk it had, the live store shows
// the write, and of the chunks the view holds the store copied exactly
// the ones the write touched (and its directory, the record log part).
TEST(ViewSharingTest, WritesCopyOnlyTheChunksTheyTouch) {
  constexpr size_t kChunk = RecordLog::kChunkRecords;
  struct ChunkCase {
    const char* name;
    std::vector<size_t> touched;  ///< Chunks the write must copy.
    size_t chunks_after;
    std::function<void(QueryStore*)> write;
    std::function<bool(const QueryStore&)> shows;
  };
  const std::vector<ChunkCase> cases = {
      {"first record of a chunk", {1}, 3,
       [](QueryStore* s) { ASSERT_TRUE(s->SetQuality(kChunk, 0.125).ok()); },
       [](const QueryStore& s) { return s.Get(kChunk)->quality == 0.125; }},
      {"last record of a chunk", {1}, 3,
       [](QueryStore* s) {
         ASSERT_TRUE(s->SetSession(2 * kChunk - 1, 77).ok());
       },
       [](const QueryStore& s) {
         return s.Get(2 * kChunk - 1)->session_id == 77;
       }},
      {"last record of the first chunk, annotated", {0}, 3,
       [](QueryStore* s) {
         Annotation a;
         a.author = "bob";
         a.text = "edge";
         ASSERT_TRUE(s->Annotate(kChunk - 1, a).ok());
       },
       [](const QueryStore& s) {
         return s.Get(kChunk - 1)->annotations.size() == 1;
       }},
      {"append into the shared tail chunk", {2}, 3,
       [](QueryStore* s) {
         s->Append(BuildRecordFromText("SELECT y FROM rivers", "bob", 99));
       },
       [](const QueryStore& s) {
         return s.size() == 2 * kChunk + 11 &&
                s.Get(2 * kChunk + 10)->text == "SELECT y FROM rivers";
       }},
      {"appends until a new chunk opens", {2}, 4,
       [](QueryStore* s) {
         for (size_t i = s->size(); i <= 3 * kChunk; ++i) {
           s->Append(BuildRecordFromText("SELECT DISTINCT b FROM plants",
                                         "carol", static_cast<Micros>(i)));
         }
       },
       [](const QueryStore& s) {
         return s.size() == 3 * kChunk + 1 &&
                s.Get(3 * kChunk)->user == "carol" &&
                s.Get(3 * kChunk - 1)->user == "carol";
       }},
  };
  for (const ChunkCase& c : cases) {
    SCOPED_TRACE(c.name);
    QueryStore store;
    BuildChunkedStore(&store);
    store.EnableViews();
    std::shared_ptr<const ReadViewState> pinned = store.SharedView();
    const std::vector<const void*> parts = PartsOf(*pinned);
    const std::vector<const void*> chunks = ChunksOf(pinned->records());
    ASSERT_EQ(chunks.size(), 3u);
    ASSERT_EQ(ChunksOf(store.records()), chunks);
    const std::string answers = AnswersOf(*pinned);
    std::string image;
    ASSERT_TRUE(EncodeSnapshotV2(*pinned, 0, &image).ok());
    ASSERT_FALSE(c.shows(store));

    c.write(&store);
    EXPECT_TRUE(c.shows(store));

    EXPECT_EQ(PartsOf(*pinned), parts);
    EXPECT_EQ(ChunksOf(pinned->records()), chunks);
    EXPECT_EQ(AnswersOf(*pinned), answers);
    std::string again;
    ASSERT_TRUE(EncodeSnapshotV2(*pinned, 0, &again).ok());
    EXPECT_TRUE(again == image) << "the pinned view encodes differently";

    EXPECT_NE(&store.records(), &pinned->records());
    const std::vector<const void*> now = ChunksOf(store.records());
    ASSERT_EQ(now.size(), c.chunks_after);
    for (size_t i = 0; i < chunks.size(); ++i) {
      const bool touched = std::find(c.touched.begin(), c.touched.end(), i) !=
                           c.touched.end();
      EXPECT_EQ(now[i] != chunks[i], touched) << "chunk " << i;
    }
  }
}

// A copy of a record, whether a chunk's copy-on-write or a plain one,
// shares the output summary's lists and the annotations with the
// original instead of copying them.
TEST(ViewSharingTest, CopiedRecordsShareTheirListsAndAnnotations) {
  QueryStore store;
  BuildSharingStore(&store);
  QueryRecord* r = store.GetMutable(9);
  r->summary.column_names = {"v"};
  r->summary.total_rows = 2;
  r->summary.sample_rows = {{db::Value::Int(42)}, {db::Value::Int(43)}};
  ASSERT_TRUE(store.SyncOutputSignature(9).ok());
  Annotation a;
  a.author = "alice";
  a.text = "calibrated";
  ASSERT_TRUE(store.Annotate(9, a).ok());
  store.EnableViews();
  std::shared_ptr<const ReadViewState> pinned = store.SharedView();
  const QueryRecord& before = *pinned->Get(9);

  ASSERT_TRUE(store.SetSession(9, 5).ok());
  const QueryRecord& after = *store.Get(9);
  ASSERT_NE(&after, &before);
  EXPECT_EQ(after.session_id, 5);
  EXPECT_NE(before.session_id, 5);
  EXPECT_EQ(&after.summary.column_names[0], &before.summary.column_names[0]);
  EXPECT_EQ(&after.summary.sample_rows[0], &before.summary.sample_rows[0]);
  EXPECT_EQ(&after.annotations[0], &before.annotations[0]);

  const QueryRecord copy = after;
  EXPECT_EQ(&copy.summary.column_names[0], &after.summary.column_names[0]);
  EXPECT_EQ(&copy.summary.sample_rows[1], &after.summary.sample_rows[1]);
  EXPECT_EQ(&copy.annotations.back(), &after.annotations.back());
}

// A maintenance stats refresh replaces a record's output summary in
// place (GetMutable); a view pinned before it keeps the record, its
// summary and its signature as they were.
TEST(ViewSharingTest, StatsRefreshLeavesAPinnedViewsRecordAsItWas) {
  testing_util::Harness h(50);
  const QueryId id =
      h.Log("u", "SELECT lake, temp FROM WaterTemp WHERE temp > 10");
  h.store.EnableViews();
  maintain::MaintenanceOptions opts;
  opts.drift_threshold = 0.2;
  opts.reexecute_budget = 10;
  maintain::QueryMaintenance maintenance(&h.database, &h.store, &h.clock,
                                         opts);
  maintenance.RefreshStatistics();  // baseline
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(h.database
                    .Insert("WaterTemp", {db::Value::String("Union"),
                                          db::Value::Int(1), db::Value::Int(1),
                                          db::Value::Double(95.0)})
                    .ok());
  }
  std::shared_ptr<const ReadViewState> pinned = h.store.SharedView();
  const QueryRecord* old = pinned->Get(id);
  const uint64_t old_total = old->summary.total_rows;
  const size_t old_samples = old->summary.sample_rows.size();
  ASSERT_GT(old_samples, 0u);
  const db::Row* old_first = &old->summary.sample_rows[0];
  const std::string old_sample = db::RowToString(*old_first);
  const std::vector<uint64_t> old_rows =
      old->statement().signature.output_rows;

  ASSERT_GE(maintenance.RefreshStatistics().stats_refreshed, 1u);
  const QueryRecord* now = h.store.Get(id);
  EXPECT_EQ(now->summary.total_rows, old_total + 500);
  EXPECT_NE(now->statement().signature.output_rows, old_rows);

  EXPECT_EQ(pinned->Get(id), old);
  EXPECT_EQ(old->summary.total_rows, old_total);
  ASSERT_EQ(old->summary.sample_rows.size(), old_samples);
  EXPECT_EQ(&old->summary.sample_rows[0], old_first);
  EXPECT_EQ(db::RowToString(old->summary.sample_rows[0]), old_sample);
  EXPECT_EQ(old->statement().signature.output_rows, old_rows);
}

// A write that changes nothing copies nothing: the no-op guard runs
// before the record (and the record log) would be copied.
TEST(ViewSharingTest, NoOpWritesCopyNoPart) {
  QueryStore store;
  BuildSharingStore(&store);
  store.EnableViews();
  const std::vector<const void*> parts = PartsOf(store);
  const uint64_t mutations = store.mutation_count();
  ASSERT_TRUE(store.AddFlag(3, kFlagObsolete).ok());
  ASSERT_TRUE(store.ClearFlag(6, kFlagObsolete).ok());
  ASSERT_TRUE(store.SetQuality(8, store.Get(8)->quality).ok());
  ASSERT_TRUE(store.SetSession(7, store.Get(7)->session_id).ok());
  EXPECT_EQ(store.mutation_count(), mutations);
  EXPECT_EQ(PartsOf(store), parts);
}

// Regression: the live visibility cache that MetaQueryExecutor::Sql
// pools in the store must not keep the parts it first saw. With views
// on, a write copies a part and the publish after it may free the copy
// a retired view held; the second Sql then read freed scoring columns.
TEST(ViewSharingTest, SqlAcrossPublishWriteAndPublish) {
  QueryStore store;
  BuildSharingStore(&store);
  store.EnableViews();
  metaquery::MetaQueryExecutor executor(&store);
  const std::string sql = "SELECT qid FROM Queries";
  auto visible = [&](const std::string& viewer) {
    Result<db::QueryResult> result = executor.Sql(viewer, sql);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->rows.size() : 0;
  };
  const size_t before = visible("carol");
  ASSERT_GT(before, 0u);
  // Record 5 is carol's and public, so alice (in another group) sees it
  // until carol makes it private.
  const size_t alice_before = visible("alice");
  ASSERT_TRUE(store.acl().SetVisibility(5, "carol", "carol",
                                        Visibility::kPrivate).ok());
  ASSERT_TRUE(store.SetQuality(1, 0.75).ok());
  ASSERT_TRUE(store.SetQuality(2, 0.5).ok());
  store.PublishView();
  EXPECT_EQ(visible("carol"), before);
  EXPECT_EQ(visible("alice"), alice_before - 1);
}

// Regression: UpdateAllQuality with views on and no ScopedPublishBatch
// used to walk records() while SetQuality copied the log and each
// publish freed the one it was walking.
TEST(ViewSharingTest, UpdateAllQualityWithViewsAndNoBatch) {
  QueryStore store;
  BuildSharingStore(&store);
  for (size_t i = 0; i < store.size(); ++i) {
    ASSERT_TRUE(store.SetQuality(static_cast<QueryId>(i), 0.01).ok());
  }
  store.EnableViews();
  const uint64_t sequence = store.published_sequence();
  const size_t updated = maintain::UpdateAllQuality(&store);
  EXPECT_EQ(updated, store.size());
  EXPECT_GT(store.published_sequence(), sequence + 1);
  for (const QueryRecord& r : store.records()) {
    EXPECT_EQ(r.quality, maintain::ComputeQuality(r, store)) << r.id;
    EXPECT_EQ(store.scoring().quality(r.id), r.quality) << r.id;
  }
}

}  // namespace
}  // namespace cqms::storage
