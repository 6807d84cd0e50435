#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "allocation_probe.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/minhash.h"
#include "storage/persistence.h"
#include "storage/query_store.h"
#include "storage/record_builder.h"
#include "test_util.h"

namespace cqms::storage {
namespace {

using testing_util::CountsOf;
using testing_util::Harness;
using testing_util::PathCounts;

TEST(RecordBuilderTest, BuildsAllDerivedFields) {
  QueryRecord r = BuildRecordFromText(
      "SELECT T.temp FROM WaterTemp T WHERE T.temp < 18", "alice", 123);
  EXPECT_FALSE(r.parse_failed());
  EXPECT_EQ(r.user, "alice");
  EXPECT_EQ(r.timestamp, 123);
  EXPECT_NE(r.fingerprint, 0u);
  EXPECT_NE(r.statement().skeleton_fingerprint, 0u);
  EXPECT_NE(r.statement().canonical_text.find("watertemp"), std::string::npos);
  EXPECT_NE(r.statement().skeleton.find("?"), std::string::npos);
  ASSERT_EQ(r.components->tables.size(), 1u);
}

TEST(RecordBuilderTest, ParseFailureKeepsText) {
  QueryRecord r = BuildRecordFromText("SELEKT oops", "bob", 5);
  EXPECT_TRUE(r.parse_failed());
  EXPECT_FALSE(r.stats.succeeded);
  EXPECT_FALSE(r.stats.error.empty());
  EXPECT_EQ(r.text, "SELEKT oops");
}

TEST(QueryStoreTest, AppendAssignsSequentialIds) {
  QueryStore store;
  QueryId a = store.Append(BuildRecordFromText("SELECT 1", "u", 1));
  QueryId b = store.Append(BuildRecordFromText("SELECT 2", "u", 2));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Get(a)->text, "SELECT 1");
  EXPECT_EQ(store.Get(99), nullptr);
}

TEST(QueryStoreTest, TableAndAttributeIndexes) {
  QueryStore store;
  QueryId a = store.Append(BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < 5", "u", 1));
  QueryId b = store.Append(
      BuildRecordFromText("SELECT * FROM CityLocations", "u", 2));
  EXPECT_EQ(store.QueriesUsingTable("watertemp"),
            (std::vector<QueryId>{a}));
  EXPECT_EQ(store.QueriesUsingTable("WATERTEMP"),
            (std::vector<QueryId>{a}));  // case-insensitive
  EXPECT_EQ(store.QueriesUsingTable("citylocations"),
            (std::vector<QueryId>{b}));
  EXPECT_EQ(store.QueriesUsingAttribute("watertemp", "temp"),
            (std::vector<QueryId>{a}));
  EXPECT_TRUE(store.QueriesUsingTable("nope").empty());
}

TEST(QueryStoreTest, KeywordIndexDeduplicatesWithinQuery) {
  QueryStore store;
  QueryId a =
      store.Append(BuildRecordFromText("SELECT temp, temp FROM t", "u", 1));
  EXPECT_EQ(store.QueriesWithKeyword("temp"), (std::vector<QueryId>{a}));
}

TEST(QueryStoreTest, PopularityCountsCanonicalDuplicates) {
  QueryStore store;
  QueryId a = store.Append(BuildRecordFromText("SELECT * FROM t", "u", 1));
  store.Append(BuildRecordFromText("select * from T", "v", 2));
  store.Append(BuildRecordFromText("SELECT  *  FROM  t", "w", 3));
  EXPECT_EQ(store.PopularityOf(store.Get(a)->fingerprint), 3u);
}

TEST(QueryStoreTest, SkeletonIndexGroupsConstantVariants) {
  QueryStore store;
  QueryId a = store.Append(
      BuildRecordFromText("SELECT * FROM t WHERE x < 22", "u", 1));
  QueryId b = store.Append(
      BuildRecordFromText("SELECT * FROM t WHERE x < 18", "u", 2));
  const PostingIndex& postings = store.postings();
  EXPECT_EQ(postings.RecordsOf(postings.StatementsWithSkeleton(
                store.Get(a)->statement().skeleton_fingerprint)),
            (std::vector<QueryId>{a, b}));
}

TEST(QueryStoreTest, FlagsAndSessionAndQuality) {
  QueryStore store;
  QueryId id = store.Append(BuildRecordFromText("SELECT 1", "u", 1));
  ASSERT_TRUE(store.AddFlag(id, kFlagStatsStale).ok());
  EXPECT_TRUE(store.Get(id)->HasFlag(kFlagStatsStale));
  ASSERT_TRUE(store.ClearFlag(id, kFlagStatsStale).ok());
  EXPECT_FALSE(store.Get(id)->HasFlag(kFlagStatsStale));
  ASSERT_TRUE(store.SetSession(id, 7).ok());
  EXPECT_EQ(store.Get(id)->session_id, 7);
  ASSERT_TRUE(store.SetQuality(id, 2.0).ok());  // clamped
  EXPECT_DOUBLE_EQ(store.Get(id)->quality, 1.0);
  EXPECT_FALSE(store.AddFlag(99, kFlagStatsStale).ok());
}

TEST(QueryStoreTest, DeleteRequiresOwnerOrAdmin) {
  QueryStore store;
  QueryId id = store.Append(BuildRecordFromText("SELECT 1", "alice", 1));
  EXPECT_EQ(store.Delete(id, "mallory").code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(store.Delete(id, "mallory", /*is_admin=*/true).ok());
  EXPECT_TRUE(store.Get(id)->HasFlag(kFlagDeleted));
  EXPECT_FALSE(store.Visible("alice", id));  // deleted hides from everyone
}

TEST(AccessControlTest, GroupVisibilityRules) {
  QueryStore store;
  store.acl().AddUser("alice", {"oceans"});
  store.acl().AddUser("bob", {"oceans", "lakes"});
  store.acl().AddUser("carol", {"astro"});
  QueryId id = store.Append(BuildRecordFromText("SELECT 1", "alice", 1));

  // Default visibility is kGroup.
  EXPECT_TRUE(store.Visible("alice", id));
  EXPECT_TRUE(store.Visible("bob", id));
  EXPECT_FALSE(store.Visible("carol", id));

  // Private: owner only.
  ASSERT_TRUE(store.acl().SetVisibility(id, "alice", "alice",
                                        Visibility::kPrivate).ok());
  EXPECT_FALSE(store.Visible("bob", id));
  EXPECT_TRUE(store.Visible("alice", id));

  // Public: everyone.
  ASSERT_TRUE(store.acl().SetVisibility(id, "alice", "alice",
                                        Visibility::kPublic).ok());
  EXPECT_TRUE(store.Visible("carol", id));

  // Only the owner may change visibility.
  EXPECT_EQ(store.acl().SetVisibility(id, "alice", "bob",
                                      Visibility::kPrivate).code(),
            StatusCode::kPermissionDenied);
}

// The visibility column holds one entry per stored record: no id past
// the store resizes it.
TEST(AccessControlTest, SetVisibilityOfAnUnknownIdIsNotFound) {
  QueryStore store;
  QueryId id = store.Append(BuildRecordFromText("SELECT 1", "alice", 1));
  EXPECT_EQ(store.acl().SetVisibility(id + 1, "alice", "alice",
                                      Visibility::kPublic).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.acl().SetVisibility(-1, "alice", "alice",
                                      Visibility::kPublic).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store.acl().GetVisibility(id + 1), Visibility::kGroup);
}

// A live cache whose words are filled keeps reading what the store
// decides after an append lands in a partly filled word (by an owner
// and a viewer whose names the cache had not resolved) and after a
// visibility change.
TEST(AccessControlTest, LiveCacheFollowsAppendsAndVisibilityChanges) {
  QueryStore store;
  store.acl().AddUser("alice", {"lab"});
  store.acl().AddUser("bob", {"lab"});
  store.acl().AddUser("carol", {"lab"});  // logs nothing until below
  store.acl().AddUser("dave", {"astro"});
  std::vector<QueryId> ids;
  for (int i = 0; i < 40; ++i) {  // one full word and 8 ids of the next
    ids.push_back(store.Append(BuildRecordFromText(
        "SELECT " + std::to_string(i), i % 2 == 0 ? "alice" : "dave", i)));
  }
  ASSERT_TRUE(store.acl()
                  .SetVisibility(ids[1], "dave", "dave", Visibility::kPublic)
                  .ok());
  const std::vector<std::string> viewers = {"bob", "dave", "erin"};
  std::vector<VisibilityCache*> caches;
  for (const std::string& viewer : viewers) {
    caches.push_back(&store.CacheFor(viewer));
    for (QueryId id : ids) {
      ASSERT_EQ(caches.back()->VisibleId(id), store.Visible(viewer, id))
          << viewer << " id " << id;
    }
  }
  auto expect_all = [&](const std::string& step) {
    for (size_t v = 0; v < viewers.size(); ++v) {
      for (QueryId id = 0; id < static_cast<QueryId>(store.size()); ++id) {
        EXPECT_EQ(caches[v]->VisibleId(id), store.Visible(viewers[v], id))
            << step << ": " << viewers[v] << " id " << id;
      }
    }
  };

  const QueryId by_carol =
      store.Append(BuildRecordFromText("SELECT 40", "carol", 40));
  const QueryId by_erin =
      store.Append(BuildRecordFromText("SELECT 41", "erin", 41));
  EXPECT_TRUE(caches[0]->VisibleId(by_carol));   // bob shares "lab"
  EXPECT_FALSE(caches[1]->VisibleId(by_carol));  // dave does not
  EXPECT_TRUE(caches[2]->VisibleId(by_erin));    // erin's own
  EXPECT_FALSE(caches[0]->VisibleId(by_erin));   // erin is in no group
  expect_all("after the appends");

  ASSERT_TRUE(store.acl()
                  .SetVisibility(ids[4], "alice", "alice", Visibility::kPrivate)
                  .ok());
  EXPECT_FALSE(caches[0]->VisibleId(ids[4]));
  EXPECT_TRUE(caches[0]->VisibleId(ids[2]));
  expect_all("after the visibility change");

  // A fresh word, past the ones the caches hold.
  for (int i = 42; i < 70; ++i) {
    store.Append(
        BuildRecordFromText("SELECT " + std::to_string(i), "carol", i));
  }
  expect_all("after the store grew a word");
}

TEST(AccessControlTest, VisibleIdsFiltersWholeLog) {
  QueryStore store;
  store.acl().AddUser("alice", {"g1"});
  store.acl().AddUser("eve", {"g2"});
  store.Append(BuildRecordFromText("SELECT 1", "alice", 1));
  store.Append(BuildRecordFromText("SELECT 2", "alice", 2));
  for (QueryId id = 0; id < 2; ++id) {
    EXPECT_TRUE(store.Visible("alice", id)) << id;
    EXPECT_FALSE(store.Visible("eve", id)) << id;
  }
}

TEST(QueryStoreTest, FeatureRelationsAreQueryable) {
  QueryStore store;
  store.Append(BuildRecordFromText(
      "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND T.temp < 18",
      "alice", 1));
  store.Append(BuildRecordFromText("SELECT * FROM CityLocations", "bob", 2));

  // The Figure-1 meta-query, almost verbatim.
  auto result = store.feature_db().ExecuteSql(
      "SELECT Q.qid, Q.qtext FROM Queries Q, Attributes A1, Attributes A2 "
      "WHERE Q.qid = A1.qid AND Q.qid = A2.qid "
      "AND A1.attrname = 'salinity' AND A1.relname = 'watersalinity' "
      "AND A2.attrname = 'temp' AND A2.relname = 'watertemp'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 0);
}

TEST(QueryStoreTest, RewriteQueryTextRebuildsEverything) {
  QueryStore store;
  QueryId id = store.Append(
      BuildRecordFromText("SELECT temp FROM OldName WHERE temp < 9", "u", 1));
  ASSERT_TRUE(store.RewriteQueryText(id, "SELECT temp FROM NewName WHERE temp < 9")
                  .ok());
  const QueryRecord* r = store.Get(id);
  EXPECT_EQ(r->components->tables, (std::vector<std::string>{"newname"}));
  EXPECT_EQ(r->user, "u");
  EXPECT_EQ(r->timestamp, 1);
  // Feature relations: old table gone, new present.
  auto rows = store.feature_db().ExecuteSql(
      "SELECT relname FROM DataSources WHERE qid = 0");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsString(), "newname");
  // Rewrite to unparsable text is rejected.
  EXPECT_FALSE(store.RewriteQueryText(id, "SELEKT").ok());
}

// --- statement sharing ------------------------------------------------------

/// A record of `sql` whose output summary holds the rows `values`.
QueryRecord RecordWithOutput(const std::string& sql, const std::string& user,
                             const std::vector<int64_t>& values) {
  QueryRecord r = BuildRecordFromText(sql, user, 1);
  r.summary.column_names = {"temp"};
  r.summary.total_rows = values.size();
  std::vector<db::Row> rows;
  for (int64_t v : values) rows.push_back({db::Value::Int(v)});
  r.summary.sample_rows = std::move(rows);
  return r;
}

int64_t GaugeValue(const char* name) {
  return obs::MetricsRegistry::Global().GetGauge(name)->value();
}

TEST(StatementSharingTest, AppendSharesOnlyEqualStatements) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  QueryStore store;
  QueryId a = store.Append(BuildRecordFromText(sql, "alice", 1));
  QueryId b = store.Append(BuildRecordFromText(sql, "bob", 2));
  EXPECT_EQ(&store.Get(a)->statement(), &store.Get(b)->statement());
  EXPECT_EQ(store.statement_count(), 1u);

  // Same text, other output-row hashes: a statement of its own, shared
  // in turn by a second run with that output.
  QueryId c = store.Append(RecordWithOutput(sql, "carol", {17, 12}));
  QueryId d = store.Append(RecordWithOutput(sql, "dave", {12, 17}));
  EXPECT_NE(&store.Get(c)->statement(), &store.Get(a)->statement());
  EXPECT_EQ(&store.Get(d)->statement(), &store.Get(c)->statement());

  // Same text and features, but not known to parse (as a snapshot's
  // parsed bit can say): not equal either.
  QueryRecord unparsed = BuildRecordFromText(sql, "erin", 3);
  unparsed.MutableStatement()->text_parses = false;
  ASSERT_TRUE(unparsed.statement().signature.valid);
  QueryId e = store.Append(std::move(unparsed));
  EXPECT_NE(&store.Get(e)->statement(), &store.Get(a)->statement());
  EXPECT_TRUE(store.Get(e)->parse_failed());

  EXPECT_EQ(store.statement_count(), 3u);
  EXPECT_EQ(GaugeValue("cqms_store_records"), 5);
  EXPECT_EQ(GaugeValue("cqms_store_statements"), 3);
}

TEST(StatementSharingTest, MutatorsRepointOnlyTheRecordTheyTouch) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  QueryStore store;
  store.EnableViews();  // copy-on-write clones must re-share too
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(store.Append(RecordWithOutput(sql, "u", {17, 12})));
  }
  const Statement shared = store.Get(ids[0])->statement();  // a copy
  const MinHashSketch sketch = ComputeMinHashSketch(shared.signature);
  ASSERT_EQ(store.statement_count(), 1u);

  std::vector<QueryId> touched;
  auto expect_untouched = [&](QueryId moved, const char* step) {
    touched.push_back(moved);
    for (QueryId id : ids) {
      if (std::find(touched.begin(), touched.end(), id) != touched.end()) {
        continue;
      }
      const QueryRecord* r = store.Get(id);
      EXPECT_EQ(&r->statement(), &store.Get(ids[0])->statement()) << step;
      EXPECT_TRUE(r->statement() == shared) << step << " id " << id;
      auto has = [id](const std::vector<QueryId>& v) {
        return std::find(v.begin(), v.end(), id) != v.end();
      };
      EXPECT_TRUE(has(store.QueriesUsingTable("watertemp"))) << step;
      EXPECT_TRUE(has(store.QueriesWithKeyword("temp"))) << step;
      const PostingIndex& postings = store.postings();
      EXPECT_TRUE(has(postings.RecordsOf(
          postings.StatementsWithSkeleton(shared.skeleton_fingerprint))))
          << step;
      const StatementId statement = store.scoring().statement_of(id);
      EXPECT_EQ(statement, store.scoring().statement_of(ids[0])) << step;
      EXPECT_TRUE(store.lsh().ContainsExactlyOnce(statement, sketch)) << step;
    }
  };

  ASSERT_TRUE(store.RewriteQueryText(ids[1], "SELECT lake FROM LakeTemp").ok());
  EXPECT_NE(&store.Get(ids[1])->statement(), &store.Get(ids[0])->statement());
  EXPECT_EQ(store.Get(ids[1])->components->tables,
            (std::vector<std::string>{"laketemp"}));
  EXPECT_EQ(store.statement_count(), 2u);
  expect_untouched(ids[1], "rewrite");

  QueryRecord* r = store.GetMutable(ids[2]);
  r->summary.sample_rows = std::vector<db::Row>(
      r->summary.sample_rows.begin(), r->summary.sample_rows.end() - 1);
  r->summary.total_rows = 1;
  ASSERT_TRUE(store.SyncOutputSignature(ids[2]).ok());
  EXPECT_EQ(store.Get(ids[2])->statement().signature.output_rows.size(), 1u);
  EXPECT_EQ(store.statement_count(), 3u);
  expect_untouched(ids[2], "sync");

  ASSERT_TRUE(store.RestoreOutputSignature(ids[3], {7}, false).ok());
  EXPECT_EQ(store.Get(ids[3])->statement().signature.output_rows,
            (std::vector<uint64_t>{7}));
  EXPECT_EQ(store.statement_count(), 4u);
  expect_untouched(ids[3], "restore");

  // Moving the last record of a statement onto an existing one drops
  // the entry it leaves.
  ASSERT_TRUE(store.RestoreOutputSignature(
                       ids[3], shared.signature.output_rows,
                       shared.signature.output_empty_computed)
                  .ok());
  EXPECT_EQ(&store.Get(ids[3])->statement(), &store.Get(ids[0])->statement());
  EXPECT_EQ(store.statement_count(), 3u);
  EXPECT_EQ(GaugeValue("cqms_store_statements"), 3);
}

// --- per-run strings ----------------------------------------------------------

#if defined(__x86_64__) && defined(__GLIBCXX__)
// A record holds only what differs between runs of its statement: the
// text is a handle on the statement's, and the owner, error and plan
// point at shared copies. Own copies of the four strings would not fit.
TEST(RunStringSharingTest, RecordIsAtMost256Bytes) {
  EXPECT_LE(sizeof(QueryRecord), 256u);
}
#endif

#if defined(__x86_64__) && defined(__GLIBCXX__)
// The record log holds records by value, so a record's size is the
// log's cost per run: the summary's lists, the annotations and the
// owner, error and plan are one pointer each, null when empty.
TEST(RecordLogTest, RecordIsAtMost176Bytes) {
  EXPECT_LE(sizeof(QueryRecord), 176u);
}
#endif

// Appending allocates per chunk of kChunkRecords records (the chunk,
// its storage and the directory's growth), never per record; records
// read back in order, through indexing and through both iterators.
TEST(RecordLogTest, AppendsAllocatePerChunkNotPerRecord) {
  constexpr size_t kChunks = 4;
  constexpr size_t kRecords = (kChunks - 1) * RecordLog::kChunkRecords + 5;
  std::vector<QueryRecord> records(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    records[i].id = static_cast<QueryId>(i);
  }
  RecordLog log;
  const size_t allocations = testing_util::AllocationsDuring([&] {
    for (QueryRecord& r : records) log.push_back(std::move(r));
  });
  EXPECT_LE(allocations, 3 * kChunks);
  ASSERT_EQ(log.size(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(log[i].id, static_cast<QueryId>(i));
  }
  QueryId expected = 0;
  for (const QueryRecord& r : log) EXPECT_EQ(r.id, expected++);
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    EXPECT_EQ(it->id, --expected);
  }
  EXPECT_EQ(log.end() - log.begin(), static_cast<std::ptrdiff_t>(kRecords));
  EXPECT_EQ(log.back().id, static_cast<QueryId>(kRecords - 1));
}

TEST(RunStringSharingTest, ProfiledRunsHoldOneCopyOfEachString) {
  Harness h;
  testing_util::LogRepeatedRuns(&h);
  ASSERT_EQ(h.store.size(), 16u);
  ASSERT_FALSE(h.store.Get(0)->stats.plan.empty());
  ASSERT_FALSE(h.store.Get(1)->stats.error.empty());
  ASSERT_TRUE(h.store.Get(2)->parse_failed());
  ASSERT_NE(&h.store.Get(12)->statement(), &h.store.Get(0)->statement());
  ASSERT_NE(&h.store.Get(13)->statement(), &h.store.Get(1)->statement());
  const testing_util::SharedRepeats repeats =
      testing_util::ExpectOneCopyPerRepeatedString(h.store);
  EXPECT_EQ(repeats.plans, 5u);
  EXPECT_EQ(repeats.errors, 8u);
  EXPECT_EQ(repeats.owners, 14u);
}

TEST(RunStringSharingTest, LoggedOnlyRunsHoldOneCopyOfEachString) {
  Harness h;
  for (int i = 0; i < 4; ++i) {
    const std::string user = i % 2 == 0 ? "alice" : "bob";
    h.profiler->LogOnly("SELECT lake FROM WaterTemp WHERE temp < 18", user);
    h.profiler->LogOnly("SELEKT lake FROM WaterTemp", user);
  }
  ASSERT_FALSE(h.store.Get(1)->stats.error.empty());
  const testing_util::SharedRepeats repeats =
      testing_util::ExpectOneCopyPerRepeatedString(h.store);
  EXPECT_EQ(repeats.errors, 3u);
  EXPECT_EQ(repeats.owners, 6u);
}

TEST(RunStringSharingTest, RewriteRepointsTheText) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  const std::string repaired = "SELECT temp FROM LakeTemp WHERE temp < 18";
  QueryStore store;
  const QueryId a = store.Append(BuildRecordFromText(sql, "alice", 1));
  const QueryId b = store.Append(BuildRecordFromText(sql, "bob", 2));
  ASSERT_TRUE(store.RewriteQueryText(a, repaired).ok());
  EXPECT_EQ(store.Get(a)->text, repaired);
  EXPECT_EQ(&store.Get(a)->text.str(), &store.Get(a)->statement().text);
  EXPECT_EQ(store.Get(b)->text, sql);
  EXPECT_EQ(&store.Get(b)->text.str(), &store.Get(b)->statement().text);
}

// A copy holds the statement and the shared strings it reads, so it
// stays whole after the store that made it is gone (run under ASan).
TEST(RunStringSharingTest, RecordCopyOutlivesItsStore) {
  const std::string sql = "SELECT lake, temp FROM WaterTemp WHERE temp < 18 LIMIT 5";
  QueryRecord copy;
  {
    Harness h;
    testing_util::LogRepeatedRuns(&h);
    copy = *h.store.Get(3);
  }
  EXPECT_EQ(copy.text, sql);
  EXPECT_EQ(copy.user, "bob");
  EXPECT_NE(copy.stats.plan->find("limit 5"), std::string::npos);
  EXPECT_EQ(copy.components->tables, (std::vector<std::string>{"watertemp"}));
}

TEST(PersistenceTest, SaveLoadRoundTrip) {
  QueryStore store;
  store.acl().AddUser("alice", {"oceans", "lakes"});
  QueryId a = store.Append(BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 18 -- probe", "alice", 1000));
  store.Append(BuildRecordFromText("SELEKT broken", "bob", 2000));
  ASSERT_TRUE(store.SetSession(a, 3).ok());
  ASSERT_TRUE(store.SetQuality(a, 0.75).ok());
  ASSERT_TRUE(store.AddFlag(a, kFlagRepaired).ok());
  Annotation note;
  note.author = "alice";
  note.timestamp = 1500;
  note.text = "my favorite lake probe, with 'quotes' and\nnewlines";
  note.fragment = "temp < 18";
  ASSERT_TRUE(store.Annotate(a, note).ok());
  ASSERT_TRUE(
      store.acl().SetVisibility(a, "alice", "alice", Visibility::kPublic).ok());
  QueryRecord* rec = store.GetMutable(a);
  rec->stats.execution_micros = 4242;
  rec->stats.result_rows = 17;
  rec->stats.rows_scanned = 100;

  std::string path = ::testing::TempDir() + "/cqms_snapshot_test.log";
  ASSERT_TRUE(SaveSnapshot(store, path).ok());

  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ASSERT_EQ(loaded.size(), 2u);
  const QueryRecord* lr = loaded.Get(a);
  EXPECT_EQ(lr->text, store.Get(a)->text);
  EXPECT_EQ(lr->user, "alice");
  EXPECT_EQ(lr->timestamp, 1000);
  EXPECT_EQ(lr->session_id, 3);
  EXPECT_DOUBLE_EQ(lr->quality, 0.75);
  EXPECT_TRUE(lr->HasFlag(kFlagRepaired));
  EXPECT_EQ(lr->stats.execution_micros, 4242);
  EXPECT_EQ(lr->stats.result_rows, 17u);
  ASSERT_EQ(lr->annotations.size(), 1u);
  EXPECT_EQ(lr->annotations[0].text, note.text);
  EXPECT_EQ(lr->annotations[0].fragment, "temp < 18");
  // Indexes rebuilt.
  EXPECT_EQ(loaded.QueriesUsingTable("watertemp").size(), 1u);
  // ACL restored.
  EXPECT_EQ(loaded.acl().GetVisibility(a), Visibility::kPublic);
  EXPECT_TRUE(loaded.acl().GroupsOf("alice").count("lakes") > 0);
  // Parse-failed record survives.
  EXPECT_TRUE(loaded.Get(1)->parse_failed());
}

TEST(PersistenceTest, V1NulByteAndEmptyFieldsRoundTrip) {
  QueryStore store;
  QueryId a = store.Append(BuildRecordFromText("SELECT 1", "alice", 1));
  // A single-NUL field used to collide with the old "%00" empty-field
  // marker and come back as "".
  Annotation nul_note;
  nul_note.author = std::string(1, '\0');
  nul_note.timestamp = 2;
  nul_note.text = "t";
  ASSERT_TRUE(store.Annotate(a, nul_note).ok());
  Annotation empty_note;
  empty_note.author = "bob";
  empty_note.timestamp = 3;
  empty_note.text = "note";  // fragment stays empty
  ASSERT_TRUE(store.Annotate(a, empty_note).ok());

  std::string path = ::testing::TempDir() + "/cqms_snapshot_escape.log";
  ASSERT_TRUE(SaveSnapshot(store, path).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ASSERT_EQ(loaded.Get(a)->annotations.size(), 2u);
  EXPECT_EQ(loaded.Get(a)->annotations[0].author, std::string(1, '\0'));
  EXPECT_EQ(loaded.Get(a)->annotations[1].author, "bob");
  EXPECT_EQ(loaded.Get(a)->annotations[1].fragment, "");
}

TEST(PersistenceTest, LegacyV1FilesDecodeEmptyFieldsByHeaderVersion) {
  // A file written by a pre-1.1 build: header "CQMS-SNAPSHOT 1" and
  // "%00" as the empty-field marker (here: an empty stats error). The
  // versioned reader must decode it as "", not as a NUL byte.
  std::string path = ::testing::TempDir() + "/cqms_snapshot_legacy.log";
  {
    std::ofstream out(path);
    out << "CQMS-SNAPSHOT 1\n"
        << "Q 0 1 -1 0 0.5 alice SELECT%201\n"
        << "S 10 1 1 1 %00\n"
        << "V 1\n";
  }
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(loaded.Get(0)->stats.error, "");
  EXPECT_EQ(loaded.Get(0)->text, "SELECT 1");
}

TEST(PersistenceTest, V1RejectsTruncatedOrMalformedEscapes) {
  std::string path = ::testing::TempDir() + "/cqms_snapshot_badescape.log";
  // A trailing "%4" is a truncated escape: corruption, not a literal
  // '%'. The old reader passed it through silently.
  {
    std::ofstream out(path);
    out << "CQMS-SNAPSHOT 1\n"
        << "Q 0 1 -1 0 0.5 alice SELECT%4\n";
  }
  QueryStore s1;
  EXPECT_EQ(LoadSnapshot(&s1, path).code(), StatusCode::kIoError);
  // Non-hex escape bodies are rejected too.
  {
    std::ofstream out(path);
    out << "CQMS-SNAPSHOT 1\n"
        << "Q 0 1 -1 0 0.5 al%ZZice SELECT\n";
  }
  QueryStore s2;
  EXPECT_EQ(LoadSnapshot(&s2, path).code(), StatusCode::kIoError);
}

TEST(PersistenceTest, SaveIsAtomicAndLeavesNoTmpFile) {
  QueryStore store;
  store.Append(BuildRecordFromText("SELECT 1", "u", 1));
  std::string path = ::testing::TempDir() + "/cqms_snapshot_atomic.log";
  // Pre-existing good snapshot...
  ASSERT_TRUE(SaveSnapshot(store, path).ok());
  // ...stays byte-identical when overwritten with equal content, and the
  // tmp staging file never survives a successful save.
  ASSERT_TRUE(SaveSnapshot(store, path).ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  QueryStore loaded;
  EXPECT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(PersistenceTest, LoadRejectsNonEmptyStoreAndBadFiles) {
  QueryStore store;
  store.Append(BuildRecordFromText("SELECT 1", "u", 1));
  EXPECT_EQ(LoadSnapshot(&store, "/nonexistent").code(),
            StatusCode::kInvalidArgument);
  QueryStore empty;
  EXPECT_EQ(LoadSnapshot(&empty, "/nonexistent/x").code(), StatusCode::kIoError);
}

TEST(QueryStoreTest, CompactScoringArenasPreservesEveryRow) {
  Harness h;
  std::vector<storage::QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(h.Log("alice", "SELECT lake, temp FROM WaterTemp WHERE temp < " +
                                     std::to_string(i)));
  }
  ASSERT_TRUE(h.store
                  .RewriteQueryText(ids[1],
                                    "SELECT city FROM CityLocations WHERE pop > 10")
                  .ok());
  ASSERT_TRUE(h.store
                  .RewriteQueryText(ids[3],
                                    "SELECT * FROM WaterSalinity WHERE salinity < 4")
                  .ok());
  const size_t garbage = h.store.scoring().arena_garbage();
  ASSERT_GT(garbage, 0u);

  // Snapshot every span before compaction...
  struct Row {
    std::vector<Symbol> tables, tokens;
    std::vector<uint64_t> output;
    std::string text;
  };
  std::vector<Row> before;
  for (storage::QueryId id : ids) {
    Row row;
    const auto statement = h.store.scoring().row_of(id);
    auto t = statement.tables();
    row.tables.assign(t.data, t.data + t.size);
    auto k = statement.tokens();
    row.tokens.assign(k.data, k.data + k.size);
    auto o = statement.output_rows();
    row.output.assign(o.data, o.data + o.size);
    row.text = std::string(statement.lowered_text());
    before.push_back(std::move(row));
  }

  // ...compact reclaims exactly the reported garbage...
  EXPECT_EQ(h.store.CompactScoringArenas(), garbage);
  EXPECT_EQ(h.store.scoring().arena_garbage(), 0u);

  // ...and every row reads back identically.
  for (size_t i = 0; i < ids.size(); ++i) {
    storage::QueryId id = ids[i];
    const auto statement = h.store.scoring().row_of(id);
    auto t = statement.tables();
    EXPECT_EQ(std::vector<Symbol>(t.data, t.data + t.size), before[i].tables);
    auto k = statement.tokens();
    EXPECT_EQ(std::vector<Symbol>(k.data, k.data + k.size), before[i].tokens);
    auto o = statement.output_rows();
    EXPECT_EQ(std::vector<uint64_t>(o.data, o.data + o.size), before[i].output);
    EXPECT_EQ(std::string(statement.lowered_text()), before[i].text);
  }
  // Compacting a clean store is a no-op.
  EXPECT_EQ(h.store.CompactScoringArenas(), 0u);
}

// --- statement-keyed indexes ----------------------------------------------

template <typename Key>
std::map<Key, std::vector<StatementId>> Ordered(
    const std::unordered_map<Key, std::vector<StatementId>>& index) {
  return {index.begin(), index.end()};
}

/// Checks every statement-keyed structure against the records: each live
/// statement (one some record holds) is indexed exactly once, under its
/// own features, with its records, scoring row and popularity; nothing
/// names a released id.
void ExpectIndexesOnLiveStatements(const QueryStore& store,
                                   const std::string& step) {
  const PostingIndex& postings = store.postings();
  const ScoringColumns& cols = store.scoring();
  std::map<StatementId, std::vector<QueryId>> live;
  std::unordered_map<uint64_t, uint64_t> popularity;
  for (const QueryRecord& r : store.records()) {
    live[cols.statement_of(r.id)].push_back(r.id);
    if (!r.parse_failed()) ++popularity[r.fingerprint];
  }
  EXPECT_EQ(live.size(), store.statement_count()) << step;

  std::map<Symbol, std::vector<StatementId>> tables, attributes, keywords;
  std::map<uint64_t, std::vector<StatementId>> skeletons;
  size_t sketched = 0;
  for (const auto& [s, ids] : live) {
    EXPECT_EQ(postings.RecordsOf(s), ids) << step << " statement " << s;
    const QueryRecord& first = *store.Get(ids[0]);
    const Statement& statement = first.statement();
    for (QueryId id : ids) {
      EXPECT_EQ(&store.Get(id)->statement(), &statement) << step << " " << id;
    }
    const SimilaritySignature& sig = statement.signature;
    for (Symbol t : sig.tables) tables[t].push_back(s);
    for (Symbol a : sig.attributes) attributes[a].push_back(s);
    for (Symbol k : sig.text_tokens) keywords[k].push_back(s);
    if (statement.text_parses) {
      skeletons[statement.skeleton_fingerprint].push_back(s);
    }
    MinHashSketch sketch = ComputeMinHashSketch(sig);
    if (!sketch.empty()) {
      EXPECT_TRUE(store.lsh().ContainsExactlyOnce(s, sketch)) << step;
      ++sketched;
    }
    ScoringColumns::StatementRow row = cols.statement_row(s);
    EXPECT_EQ(std::string(row.lowered_text()), ToLower(statement.text))
        << step;
    ScoringColumns::SymbolSpan t = row.tables();
    EXPECT_EQ(std::vector<Symbol>(t.data, t.data + t.size), sig.tables)
        << step;
    ScoringColumns::HashSpan o = row.output_rows();
    EXPECT_EQ(std::vector<uint64_t>(o.data, o.data + o.size), sig.output_rows)
        << step;
    EXPECT_EQ(row.output_empty_computed(), sig.output_empty_computed) << step;
    EXPECT_EQ(row.popularity(),
              first.parse_failed() ? 0 : popularity[first.fingerprint])
        << step;
  }
  // Each posting list holds exactly the live statements with its
  // feature: no released id, no stale key, no empty list.
  EXPECT_EQ(Ordered(postings.by_table), tables) << step;
  EXPECT_EQ(Ordered(postings.by_attribute), attributes) << step;
  EXPECT_EQ(Ordered(postings.by_keyword), keywords) << step;
  EXPECT_EQ(Ordered(postings.by_skeleton), skeletons) << step;
  EXPECT_EQ(store.lsh().entry_count(), sketched * store.lsh().bands()) << step;
  for (StatementId s = 0; s < postings.records_of.size(); ++s) {
    if (live.count(s) != 0) continue;
    EXPECT_TRUE(postings.RecordsOf(s).empty()) << step << " released " << s;
    EXPECT_TRUE(cols.statement_row(s).lowered_text().empty()) << step;
    EXPECT_EQ(cols.statement_row(s).tables().size, 0u) << step;
  }
}

/// The record-id answers a view gives for a fixed set of lookups.
std::vector<std::vector<QueryId>> ViewAnswers(const ReadViewState& view,
                                              const MinHashSketch& probe) {
  const PostingIndex& p = view.postings();
  std::vector<std::vector<QueryId>> out;
  for (const char* table : {"watertemp", "watersalinity", "citylocations"}) {
    out.push_back(p.RecordsOf(p.StatementsUsingTable(table)));
  }
  for (const char* word : {"temp", "salinity", "city", "lake"}) {
    out.push_back(p.RecordsOf(p.StatementsWithKeyword(word)));
  }
  out.push_back(p.RecordsOf(view.lsh().Candidates(probe)));
  for (QueryId id = 0; id < static_cast<QueryId>(view.size()); ++id) {
    out.push_back(p.RecordsOf(view.scoring().statement_of(id)));
  }
  return out;
}

TEST(StatementIndexTest, SeededMutationMixIndexesOnlyLiveStatements) {
  const std::vector<std::string> texts = {
      "SELECT temp FROM WaterTemp WHERE temp < 18",
      "SELECT lake, temp FROM WaterTemp WHERE temp > 4",
      "SELECT * FROM WaterSalinity WHERE salinity > 2",
      "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S "
      "WHERE T.loc_x = S.loc_x",
      "SELECT city FROM CityLocations WHERE pop > 1000",
      "SELECT city, state FROM CityLocations",
      "SELECT lake FROM WaterTemp GROUP BY lake",
      "SELEKT broken text",
  };
  const char* users[] = {"alice", "bob", "carol"};
  QueryStore store;
  store.EnableViews();
  Rng rng(1609);
  auto pick_text = [&] { return texts[rng.Uniform(texts.size())]; };
  auto pick_rows = [&] {
    std::vector<int64_t> rows;
    for (int64_t v = 0; v < 3; ++v) {
      if (rng.Uniform(2) == 0) rows.push_back(v);
    }
    return rows;
  };
  for (int i = 0; i < 30; ++i) {
    store.Append(RecordWithOutput(pick_text(), users[rng.Uniform(3)],
                                  pick_rows()));
  }
  ExpectIndexesOnLiveStatements(store, "initial");
  const MinHashSketch probe = ComputeMinHashSketch(
      BuildRecordFromText(texts[1], "alice", 0).statement().signature);
  std::shared_ptr<const ReadViewState> pinned = store.SharedView();
  const std::vector<std::vector<QueryId>> pinned_answers =
      ViewAnswers(*pinned, probe);

  size_t most_live = store.statement_count();
  size_t released = 0;
  for (int step = 1; step <= 600; ++step) {
    const QueryId id = static_cast<QueryId>(rng.Uniform(store.size()));
    const size_t statements = store.statement_count();
    switch (rng.Uniform(6)) {
      case 0:
      case 1:
        store.Append(RecordWithOutput(pick_text(), users[rng.Uniform(3)],
                                      pick_rows()));
        break;
      case 2:
        // Unparsable texts are rejected and change nothing.
        (void)store.RewriteQueryText(id, pick_text());
        break;
      case 3: {
        QueryRecord* r = store.GetMutable(id);
        r->summary = RecordWithOutput(texts[0], "x", pick_rows()).summary;
        ASSERT_TRUE(store.SyncOutputSignature(id).ok());
        break;
      }
      case 4: {
        std::vector<uint64_t> rows;
        if (rng.Uniform(2) == 0) rows.push_back(rng.Uniform(3));
        ASSERT_TRUE(
            store.RestoreOutputSignature(id, rows, rng.Uniform(2) == 0).ok());
        break;
      }
      case 5:
        ASSERT_TRUE(store.Delete(id, "", /*is_admin=*/true).ok());
        break;
    }
    if (store.statement_count() < statements) ++released;
    most_live = std::max(most_live, store.statement_count());
    if (step % 50 == 0) {
      ExpectIndexesOnLiveStatements(store, "step " + std::to_string(step));
    }
  }
  // Statements were released along the way, and their ids were reused:
  // an id is minted only when every lower one is live.
  EXPECT_GT(released, 0u);
  EXPECT_EQ(store.postings().records_of.size(), most_live);
  // The view pinned before the mix still answers as it did.
  EXPECT_EQ(ViewAnswers(*pinned, probe), pinned_answers);
}

TEST(StatementIndexTest, ReusedIdNeverReturnsThePreviousRecords) {
  const std::string old_text = "SELECT temp FROM WaterTemp WHERE temp < 3";
  QueryStore store;
  store.EnableViews();
  QueryId a0 = store.Append(BuildRecordFromText(old_text, "u", 1));
  QueryId a1 = store.Append(BuildRecordFromText(old_text, "v", 2));
  store.Append(BuildRecordFromText("SELECT city FROM CityLocations", "u", 3));
  const StatementId a = store.scoring().statement_of(a0);
  ASSERT_EQ(store.scoring().statement_of(a1), a);
  const MinHashSketch old_sketch =
      ComputeMinHashSketch(store.Get(a0)->statement().signature);
  std::shared_ptr<const ReadViewState> pinned = store.SharedView();

  // The first move leaves statement a live; the second releases it, and
  // the new statement it moves to takes a's id.
  ASSERT_TRUE(
      store.RewriteQueryText(a0, "SELECT salinity FROM WaterSalinity").ok());
  ASSERT_TRUE(store.RewriteQueryText(a1, "SELECT lake FROM LakeTemp").ok());
  ASSERT_EQ(store.scoring().statement_of(a1), a);
  EXPECT_EQ(store.postings().RecordsOf(a), (std::vector<QueryId>{a1}));
  EXPECT_TRUE(store.QueriesUsingTable("watertemp").empty());
  EXPECT_TRUE(store.QueriesWithKeyword("temp").empty());
  EXPECT_EQ(store.QueriesUsingTable("laketemp"), (std::vector<QueryId>{a1}));
  for (QueryId id :
       store.postings().RecordsOf(store.lsh().Candidates(old_sketch))) {
    EXPECT_NE(id, a0);
    EXPECT_NE(id, a1);
  }
  EXPECT_EQ(std::string(store.scoring().statement_row(a).lowered_text()),
            "select lake from laketemp");
  ExpectIndexesOnLiveStatements(store, "after reuse");

  // The view pinned before the reuse answers as it did.
  const PostingIndex& old = pinned->postings();
  EXPECT_EQ(old.RecordsOf(a), (std::vector<QueryId>{a0, a1}));
  EXPECT_EQ(old.RecordsOf(old.StatementsUsingTable("watertemp")),
            (std::vector<QueryId>{a0, a1}));
  EXPECT_TRUE(old.StatementsUsingTable("laketemp").empty());
  EXPECT_EQ(old.RecordsOf(pinned->lsh().Candidates(old_sketch)),
            (std::vector<QueryId>{a0, a1}));
  EXPECT_EQ(std::string(pinned->scoring().statement_row(a).lowered_text()),
            ToLower(old_text));
}

// --- live-statement lookup (derive once) -----------------------------------

TEST(LiveStatementTest, TakesOnlyAParsedStatementOfTheExactText) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  QueryStore store;
  const PathCounts before = CountsOf("log_only");
  QueryRecord probe;
  EXPECT_FALSE(store.ShareLiveStatement(sql, &probe, StatementPath::kLogOnly));

  // A text-only run of the text (kTextOnly) holds a statement that is not
  // known to parse: never taken.
  QueryRecord text_only;
  text_only.MutableStatement()->text = sql;
  text_only.user = "alice";
  store.Append(std::move(text_only));
  ASSERT_TRUE(store.Get(0)->parse_failed());
  ASSERT_TRUE(store.Get(0)->statement().signature.valid);
  EXPECT_FALSE(store.ShareLiveStatement(sql, &probe, StatementPath::kLogOnly));
  EXPECT_TRUE(probe.parse_failed());
  EXPECT_EQ(probe.fingerprint, 0u);

  const QueryId parsed = store.Append(BuildRecordFromText(sql, "bob", 2));
  // Same canonical form, other text: not the exact text.
  QueryRecord other;
  EXPECT_FALSE(store.ShareLiveStatement(
      "select temp from WaterTemp where temp < 18", &other,
      StatementPath::kLogOnly));

  ASSERT_TRUE(store.ShareLiveStatement(sql, &probe, StatementPath::kLogOnly));
  EXPECT_EQ(probe.text, sql);
  EXPECT_EQ(&probe.statement(), &store.Get(parsed)->statement());
  EXPECT_EQ(probe.fingerprint, store.Get(parsed)->fingerprint);
  const PathCounts after = CountsOf("log_only");
  EXPECT_EQ(after.derivations - before.derivations, 3u);
  EXPECT_EQ(after.reuses - before.reuses, 1u);
}

TEST(LiveStatementTest, RunWithOtherOutputMovesToAStatementOfItsOwn) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  QueryStore store;
  const QueryId a = store.Append(RecordWithOutput(sql, "alice", {17, 12}));
  const Statement before = store.Get(a)->statement();  // a copy

  QueryRecord rerun =
      store.RecordForText(sql, "bob", 2, StatementPath::kProfile);
  ASSERT_EQ(&rerun.statement(), &store.Get(a)->statement());
  rerun.summary.column_names = {"temp"};
  rerun.summary.total_rows = 1;
  rerun.summary.sample_rows = {{db::Value::Int(9)}};
  const QueryId b = store.Append(std::move(rerun));

  // The shared statement kept its output part; the run's own part went
  // to a clone, equal to a from-scratch derivation with that output.
  EXPECT_TRUE(store.Get(a)->statement() == before);
  EXPECT_NE(&store.Get(b)->statement(), &store.Get(a)->statement());
  QueryRecord fresh = BuildRecordFromText(sql, "bob", 2);
  fresh.summary = store.Get(b)->summary;
  UpdateOutputSignature(&fresh);
  EXPECT_TRUE(store.Get(b)->statement() == fresh.statement());
  EXPECT_EQ(store.statement_count(), 2u);

  // A third run with the first output shares the first statement again.
  QueryRecord third = store.RecordForText(sql, "carol", 3, StatementPath::kProfile);
  third.summary = store.Get(a)->summary;
  const QueryId c = store.Append(std::move(third));
  EXPECT_EQ(&store.Get(c)->statement(), &store.Get(a)->statement());
  EXPECT_EQ(store.statement_count(), 2u);
}

TEST(LiveStatementTest, ReleasedStatementIsDerivedAfresh) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  QueryStore store;
  const QueryId id = store.Append(BuildRecordFromText(sql, "alice", 1));
  const QueryRecord held = *store.Get(id);  // keeps the old statement alive
  // The text's only record is rewritten away: its statement leaves the
  // sharing table and its id is released.
  ASSERT_TRUE(
      store.RewriteQueryText(id, "SELECT temp FROM LakeTemp WHERE temp < 18")
          .ok());
  ASSERT_EQ(store.statement_count(), 1u);

  const PathCounts before = CountsOf("log_only");
  QueryRecord again = store.RecordForText(sql, "bob", 2, StatementPath::kLogOnly);
  EXPECT_EQ(CountsOf("log_only").derivations - before.derivations, 1u);
  EXPECT_EQ(CountsOf("log_only").reuses, before.reuses);
  EXPECT_NE(&again.statement(), &held.statement());
  EXPECT_TRUE(again.statement() == held.statement());
  const QueryId appended = store.Append(std::move(again));
  EXPECT_NE(&store.Get(appended)->statement(), &held.statement());
  EXPECT_TRUE(store.Get(appended)->statement() ==
              BuildRecordFromText(sql, "bob", 2).statement());
  EXPECT_EQ(store.statement_count(), 2u);
  ExpectIndexesOnLiveStatements(store, "after re-deriving");
}

TEST(LiveStatementTest, RewritesOntoOneRepairedTextDeriveItOnce) {
  QueryStore store;
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(store.Append(BuildRecordFromText(
        "SELECT temp FROM WaterTemp WHERE temp < " + std::to_string(10 + i),
        "u", i)));
  }
  const std::string repaired = "SELECT temp FROM LakeTemp WHERE temp < 10";
  const PathCounts before = CountsOf("rewrite");
  for (QueryId id : ids) ASSERT_TRUE(store.RewriteQueryText(id, repaired).ok());
  const PathCounts after = CountsOf("rewrite");
  EXPECT_EQ(after.derivations - before.derivations, 1u);
  EXPECT_EQ(after.reuses - before.reuses, 4u);
  EXPECT_EQ(store.statement_count(), 1u);
  const QueryRecord fresh = BuildRecordFromText(repaired, "u", 0);
  for (QueryId id : ids) {
    EXPECT_EQ(store.Get(id)->text, repaired);
    EXPECT_TRUE(store.Get(id)->statement() == fresh.statement()) << id;
    EXPECT_EQ(store.Get(id)->fingerprint, fresh.fingerprint);
  }
  ExpectIndexesOnLiveStatements(store, "after repairs");

  // An unparsable repair is still refused with the parse error.
  Status bad = store.RewriteQueryText(ids[0], "SELEKT temp");
  EXPECT_EQ(bad.code(), StatusCode::kParseError);
  EXPECT_NE(bad.ToString().find("expected keyword SELECT"), std::string::npos);
}

TEST(ProfilerIntegrationTest, ProfilerPopulatesStore) {
  Harness h;
  storage::QueryId id =
      h.Log("alice", "SELECT lake, temp FROM WaterTemp WHERE temp < 18");
  ASSERT_NE(id, kInvalidQueryId);
  const QueryRecord* r = h.store.Get(id);
  EXPECT_TRUE(r->stats.succeeded);
  EXPECT_GT(r->stats.result_rows, 0u);
  EXPECT_GT(r->stats.rows_scanned, 0u);
  EXPECT_FALSE(r->summary.column_names.empty());
}

}  // namespace
}  // namespace cqms::storage
