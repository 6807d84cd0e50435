#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "allocation_probe.h"
#include "common/binary_codec.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/cqms.h"
#include "metaquery/meta_query_executor.h"
#include "sql/parser.h"
#include "storage/durable_store.h"
#include "storage/fault_env.h"
#include "storage/minhash.h"
#include "storage/persistence.h"
#include "storage/record_builder.h"
#include "storage/snapshot_v2.h"
#include "storage/wal.h"
#include "test_util.h"
#include "wal_reference.h"
#include "workload/synthetic.h"

namespace cqms::storage {
namespace {

using testing_util::CountsOf;
using testing_util::Harness;
using testing_util::LargestAllocationDuring;
using testing_util::PathCounts;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Clears every file a DurableStore may leave in `dir` — both snapshot
/// generations, both WAL generations, and stranded tmp files — so a
/// test rerun starts from a genuinely empty directory.
void RemoveDurableFiles(const std::string& dir) {
  for (const char* name :
       {"/snapshot.cqms", "/snapshot.cqms.1", "/snapshot.cqms.tmp",
        "/wal.log", "/wal.log.1"}) {
    std::remove((dir + name).c_str());
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// One snapshot section as the writer frames it: id, payload length,
/// payload, CRC32 of the payload.
std::string FrameSection(uint8_t id, std::string_view payload) {
  BinaryWriter w;
  w.PutU8(id);
  w.PutFixed64(payload.size());
  w.PutBytes(payload.data(), payload.size());
  w.PutFixed32(Crc32(payload));
  return w.Take();
}

/// A well-formed snapshot image cut at its section frames, so a test
/// can edit a payload and re-frame it with a valid CRC.
struct SnapshotSections {
  std::string header;  ///< Magic and version.
  std::vector<std::pair<uint8_t, std::string>> sections;

  explicit SnapshotSections(const std::string& image)
      : header(image.substr(0, 12)) {
    size_t pos = header.size();
    while (pos + 9 <= image.size()) {
      BinaryReader frame(std::string_view(image).substr(pos + 1, 8));
      const size_t len = frame.GetFixed64();
      sections.emplace_back(static_cast<uint8_t>(image[pos]),
                            image.substr(pos + 9, len));
      pos += 9 + len + 4;
    }
  }

  std::string* Payload(uint8_t id) {
    for (auto& [section, payload] : sections) {
      if (section == id) return &payload;
    }
    ADD_FAILURE() << "no section " << int{id};
    return &sections.front().second;
  }

  std::string Join() const {
    std::string image = header;
    for (const auto& [id, payload] : sections) image += FrameSection(id, payload);
    return image;
  }
};

/// `payload` with its leading varint replaced by `value`.
std::string ReplaceLeadingVarint(const std::string& payload, uint64_t value) {
  BinaryReader r(payload);
  r.GetVarint();
  BinaryWriter w;
  w.PutVarint(value);
  return w.data() + payload.substr(payload.size() - r.remaining());
}

/// The checked-in image the last format-3 writer saved from
/// BuildCompatLog's store.
std::string V3FixtureImage() {
  return ReadFile(std::string(CQMS_TEST_DATA_DIR) + "/snapshot_v3.cqms");
}

/// A populated database plus a synthetic multi-user log of (at least)
/// `min_queries` profiled queries — the round-trip corpus.
struct LogFixture {
  SimulatedClock clock{0};
  db::Database database{&clock};
  QueryStore store;
  std::unique_ptr<profiler::QueryProfiler> profiler;
  workload::WorkloadOptions options;
  workload::GroundTruth truth;

  explicit LogFixture(size_t min_queries, size_t rows_per_table = 60) {
    Status s = workload::PopulateLakeDatabase(&database, rows_per_table);
    EXPECT_TRUE(s.ok());
    profiler = std::make_unique<profiler::QueryProfiler>(&database, &store,
                                                         &clock);
    options.num_sessions = min_queries / 5 + 1;
    workload::RegisterUsers(&store, options);
    truth = workload::GenerateLog(profiler.get(), &store, &clock, options);
  }
};

/// Cached ~5k-query fixture shared by the equality tests (generation
/// dominates their runtime). Mutated by no test — they snapshot it.
LogFixture& BigFixture() {
  static LogFixture* fixture = new LogFixture(5000);
  return *fixture;
}

/// The log behind tests/data/snapshot_v3.cqms: the format-3 writer saved
/// the store this function builds, in a process of its own, and the
/// compatibility test rebuilds it here to compare against the restore.
/// Every value is fixed (hand-set runtime stats and output samples, no
/// timers, no randomness), so keep the function as it is. Statements
/// repeat, as in a real lab log; copies of one statement differ in
/// outcome (the data changed halfway) and in their own fields.
void BuildCompatLog(QueryStore* store) {
  store->acl().AddUser("alice", {"oceans"});
  store->acl().AddUser("bob", {"lakes", "oceans"});
  store->acl().AddUser("carol", {"lakes"});
  const std::vector<std::string> statements = {
      "SELECT temp FROM WaterTemp WHERE temp < 18",
      "SELECT * FROM CityLocations",
      "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND T.temp < 20",
      "SELEKT broken text",
      "SELECT city, COUNT(*) FROM CityLocations GROUP BY city "
      "ORDER BY city LIMIT 5",
      "SELECT DISTINCT loc_x FROM WaterSalinity WHERE salinity > 30",
  };
  const std::string users[] = {"alice", "bob", "carol"};
  for (int i = 0; i < 36; ++i) {
    const int epoch = i < 18 ? 0 : 1;
    QueryRecord r = BuildRecordFromText(statements[(i * 5) % 6], users[i % 3],
                                        1'000'000 + int64_t{i} * 60'000'000);
    r.stats.execution_micros = 200 + 17 * i;
    if (!r.parse_failed()) {
      r.stats.result_rows = 3 + 2 * epoch;
      r.stats.rows_scanned = 60 + 20 * epoch;
      r.stats.plan = "Scan rows=" + std::to_string(r.stats.rows_scanned);
      r.summary.column_names = {"v"};
      r.summary.total_rows = r.stats.result_rows;
      std::vector<db::Row> rows;
      for (uint64_t k = 0; k < r.stats.result_rows; ++k) {
        rows.push_back({db::Value::Int(static_cast<int64_t>(10 * k) + epoch)});
      }
      r.summary.sample_rows = std::move(rows);
    }
    store->Append(std::move(r));
  }
  // An empty output that was computed, and a failed execution.
  QueryRecord empty = BuildRecordFromText(
      "SELECT temp FROM WaterTemp WHERE temp < -100", "bob", 2'200'000'000);
  empty.stats.rows_scanned = 80;
  empty.summary.column_names = {"temp"};
  store->Append(std::move(empty));
  QueryRecord failed = BuildRecordFromText("SELECT nope FROM Missing", "carol",
                                           2'300'000'000);
  failed.stats.succeeded = false;
  failed.stats.error = "NotFound: table Missing";
  store->Append(std::move(failed));

  EXPECT_TRUE(store->SetSession(0, 1).ok());
  EXPECT_TRUE(store->SetSession(6, 1).ok());
  EXPECT_TRUE(store->SetSession(12, 2).ok());
  EXPECT_TRUE(store->SetQuality(6, 0.875).ok());
  EXPECT_TRUE(store->AddFlag(12, kFlagRepaired).ok());
  EXPECT_TRUE(store->AddFlag(18, kFlagStatsStale).ok());
  Annotation note;
  note.author = "bob";
  note.timestamp = 1'500'000;
  note.text = "baseline before the recalibration";
  note.fragment = "temp < 18";
  EXPECT_TRUE(store->Annotate(6, note).ok());
  EXPECT_TRUE(store->RewriteQueryText(
                  24, "SELECT temp FROM WaterTemp WHERE temp < 16")
                  .ok());
  EXPECT_TRUE(
      store->acl().SetVisibility(1, "bob", "bob", Visibility::kPrivate).ok());
  EXPECT_TRUE(store->acl()
                  .SetVisibility(2, "carol", "carol", Visibility::kPublic)
                  .ok());
  EXPECT_TRUE(store->Delete(30, "alice").ok());
}

void ExpectSignaturesEqual(const SimilaritySignature& a,
                           const SimilaritySignature& b, QueryId id) {
  EXPECT_EQ(a.valid, b.valid) << "id " << id;
  EXPECT_EQ(a.tables, b.tables) << "id " << id;
  EXPECT_EQ(a.predicate_skeletons, b.predicate_skeletons) << "id " << id;
  EXPECT_EQ(a.attributes, b.attributes) << "id " << id;
  EXPECT_EQ(a.projections, b.projections) << "id " << id;
  EXPECT_EQ(a.text_tokens, b.text_tokens) << "id " << id;
  EXPECT_EQ(a.output_rows, b.output_rows) << "id " << id;
  EXPECT_EQ(a.output_empty_computed, b.output_empty_computed) << "id " << id;
}

void ExpectRecordsEqual(const QueryRecord& a, const QueryRecord& b) {
  ASSERT_EQ(a.id, b.id);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.statement().canonical_text, b.statement().canonical_text);
  EXPECT_EQ(a.statement().skeleton, b.statement().skeleton);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.statement().skeleton_fingerprint,
            b.statement().skeleton_fingerprint);
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.parse_failed(), b.parse_failed());

  EXPECT_EQ(a.stats.execution_micros, b.stats.execution_micros);
  EXPECT_EQ(a.stats.result_rows, b.stats.result_rows);
  EXPECT_EQ(a.stats.rows_scanned, b.stats.rows_scanned);
  EXPECT_EQ(a.stats.succeeded, b.stats.succeeded);
  EXPECT_EQ(a.stats.error, b.stats.error);
  EXPECT_EQ(a.stats.plan, b.stats.plan);

  ASSERT_EQ(a.annotations.size(), b.annotations.size());
  for (size_t i = 0; i < a.annotations.size(); ++i) {
    EXPECT_EQ(a.annotations[i].author, b.annotations[i].author);
    EXPECT_EQ(a.annotations[i].timestamp, b.annotations[i].timestamp);
    EXPECT_EQ(a.annotations[i].text, b.annotations[i].text);
    EXPECT_EQ(a.annotations[i].fragment, b.annotations[i].fragment);
  }

  const sql::QueryComponents& ca = a.components;
  const sql::QueryComponents& cb = b.components;
  EXPECT_EQ(ca.tables, cb.tables);
  EXPECT_EQ(ca.attributes, cb.attributes);
  EXPECT_EQ(ca.projections, cb.projections);
  ASSERT_EQ(ca.predicates.size(), cb.predicates.size());
  for (size_t i = 0; i < ca.predicates.size(); ++i) {
    EXPECT_TRUE(ca.predicates[i] == cb.predicates[i]) << "id " << a.id;
  }
  EXPECT_EQ(ca.group_by, cb.group_by);
  EXPECT_EQ(ca.order_by, cb.order_by);
  EXPECT_EQ(ca.aggregates, cb.aggregates);
  EXPECT_EQ(ca.has_subquery, cb.has_subquery);
  EXPECT_EQ(ca.has_distinct, cb.has_distinct);
  EXPECT_EQ(ca.select_star, cb.select_star);
  EXPECT_EQ(ca.num_joins, cb.num_joins);
  EXPECT_EQ(ca.num_tables, cb.num_tables);
  EXPECT_EQ(ca.max_nesting_depth, cb.max_nesting_depth);
  EXPECT_EQ(ca.limit, cb.limit);

  ExpectSignaturesEqual(a.statement().signature, b.statement().signature, a.id);
}

/// The LSH half of a round trip. Sketches are not persisted: the loaded
/// store must index every record's statement under the sketch of its
/// restored signature, exactly once per band, and hold exactly as many
/// postings as the store that was saved.
void ExpectLshRestored(const QueryStore& saved, const QueryStore& loaded) {
  std::set<StatementId> indexed;
  for (const QueryRecord& r : loaded.records()) {
    MinHashSketch sketch = ComputeMinHashSketch(r.statement().signature);
    if (sketch.empty()) continue;  // empty sketches are never indexed
    const StatementId s = loaded.scoring().statement_of(r.id);
    EXPECT_TRUE(loaded.lsh().ContainsExactlyOnce(s, sketch)) << "id " << r.id;
    indexed.insert(s);
  }
  EXPECT_EQ(loaded.lsh().entry_count(), indexed.size() * loaded.lsh().bands());
  EXPECT_EQ(loaded.lsh().entry_count(), saved.lsh().entry_count());
}

void ExpectSpansEqual(ScoringColumns::SymbolSpan a,
                      ScoringColumns::SymbolSpan b, QueryId id) {
  ASSERT_EQ(a.size, b.size) << "id " << id;
  for (size_t i = 0; i < a.size; ++i) EXPECT_EQ(a.data[i], b.data[i]);
}

void ExpectColumnsEqual(const QueryStore& a, const QueryStore& b, QueryId id) {
  const ScoringColumns& ca = a.scoring();
  const ScoringColumns& cb = b.scoring();
  EXPECT_EQ(ca.flags(id), cb.flags(id));
  EXPECT_EQ(ca.quality(id), cb.quality(id));
  EXPECT_EQ(ca.timestamp(id), cb.timestamp(id));
  EXPECT_EQ(ca.owner(id), cb.owner(id));
  const ScoringColumns::StatementRow ra = ca.row_of(id);
  const ScoringColumns::StatementRow rb = cb.row_of(id);
  EXPECT_EQ(ra.popularity(), rb.popularity());
  EXPECT_EQ(ca.signature_valid(id), cb.signature_valid(id));
  EXPECT_EQ(ra.parse_failed(), rb.parse_failed());
  EXPECT_EQ(ra.lowered_text(), rb.lowered_text());
  ExpectSpansEqual(ra.tables(), rb.tables(), id);
  ExpectSpansEqual(ra.skeletons(), rb.skeletons(), id);
  ExpectSpansEqual(ra.attributes(), rb.attributes(), id);
  ExpectSpansEqual(ra.projections(), rb.projections(), id);
  ExpectSpansEqual(ra.tokens(), rb.tokens(), id);
  ScoringColumns::HashSpan oa = ra.output_rows();
  ScoringColumns::HashSpan ob = rb.output_rows();
  ASSERT_EQ(oa.size, ob.size) << "id " << id;
  for (size_t i = 0; i < oa.size; ++i) EXPECT_EQ(oa.data[i], ob.data[i]);
}

/// `loaded` holds every record, scoring column, LSH entry and ACL entry
/// of `saved`.
void ExpectRestoredLog(const QueryStore& saved, const QueryStore& loaded) {
  ASSERT_EQ(loaded.size(), saved.size());
  for (const QueryRecord& r : saved.records()) {
    ExpectRecordsEqual(r, *loaded.Get(r.id));
    ExpectColumnsEqual(saved, loaded, r.id);
    EXPECT_EQ(loaded.acl().GetVisibility(r.id), saved.acl().GetVisibility(r.id))
        << "id " << r.id;
  }
  EXPECT_EQ(loaded.acl().memberships(), saved.acl().memberships());
  ExpectLshRestored(saved, loaded);
}

void ExpectResponsesEqual(const metaquery::MetaQueryResponse& a,
                          const metaquery::MetaQueryResponse& b,
                          const std::string& label) {
  ASSERT_EQ(a.matches.size(), b.matches.size()) << label;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].id, b.matches[i].id) << label << " rank " << i;
    // Byte-identical, not nearly-equal: scoring reads restored state.
    EXPECT_EQ(a.matches[i].similarity, b.matches[i].similarity)
        << label << " rank " << i;
    EXPECT_EQ(a.matches[i].score, b.matches[i].score) << label << " rank " << i;
  }
}

TEST(SnapshotV2Test, RoundTripEqualityOnSeededLogWithoutRetokenizing) {
  LogFixture& f = BigFixture();
  QueryStore& store = f.store;
  ASSERT_GE(store.size(), 4000u);

  std::string path = TempPath("cqms_v2_roundtrip.snap");
  ASSERT_TRUE(SaveSnapshotV2(store, path).ok());

  // The tentpole guarantee: a binary restore never tokenizes and never
  // parses — cold-start is one sequential read, not a re-profiling run.
  uint64_t words_before = ExtractWordsCallCount();
  uint64_t parses_before = sql::ParseCallCount();
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(ExtractWordsCallCount() - words_before, 0u);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 0u);

  ASSERT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.max_timestamp(), store.max_timestamp());
  for (const QueryRecord& r : store.records()) {
    ExpectRecordsEqual(r, *loaded.Get(r.id));
    ExpectColumnsEqual(store, loaded, r.id);
  }

  // Secondary indexes answer identically (spot the load-bearing ones).
  EXPECT_EQ(loaded.QueriesUsingTable("watertemp"),
            store.QueriesUsingTable("watertemp"));
  EXPECT_EQ(loaded.QueriesWithKeyword("salinity"),
            store.QueriesWithKeyword("salinity"));
  ExpectLshRestored(store, loaded);

  // ACL: every user sees exactly the same log slice.
  for (size_t u = 0; u < f.options.num_users; ++u) {
    std::string user = workload::UserName(u);
    for (const QueryRecord& r : store.records()) {
      EXPECT_EQ(loaded.Visible(user, r.id), store.Visible(user, r.id))
          << user << " id " << r.id;
    }
  }
}

/// Every planner path answers identically over `store` and `loaded`,
/// byte for byte, for `viewer`.
void ExpectPlannerAnswersEqual(QueryStore* store, QueryStore* loaded,
                               const std::string& viewer) {
  metaquery::MetaQueryExecutor before(store);
  metaquery::MetaQueryExecutor after(loaded);
  QueryRecord probe = BuildRecordFromText(
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T "
      "WHERE S.loc_x = T.loc_x AND T.temp < 20",
      viewer, 0, SignatureMode::kTransient);

  {
    metaquery::MetaQueryRequest req;
    req.WithKeywords("salinity temp").Limit(25);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "keyword");
  }
  {
    metaquery::MetaQueryRequest req;
    req.WithSubstring("where").InLogOrder().Limit(50);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "substring");
  }
  {
    metaquery::StructuralPattern pattern;
    pattern.required_tables = {"WaterTemp"};
    pattern.requires_group_by = true;
    metaquery::MetaQueryRequest req;
    req.WithStructure(pattern).Limit(25);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "structure");
  }
  {
    // kNN through the planner, exhaustive candidates.
    metaquery::CandidateOptions exhaustive;
    exhaustive.use_lsh = false;
    metaquery::MetaQueryRequest req;
    req.SimilarTo(probe, {}, exhaustive).Limit(10);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "knn exhaustive");
  }
  {
    // LSH path: the restored signatures are bit-identical (identity
    // symbol remap within one process), so the sketches derived from
    // them — and even the approximate candidate set — are too.
    metaquery::CandidateOptions lsh;
    lsh.lsh_min_log_size = 0;
    metaquery::MetaQueryRequest req;
    req.SimilarTo(probe, {}, lsh).Limit(10);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "knn lsh");
  }
  {
    // Combined conjunction through the posting-intersection generator.
    metaquery::FeatureQuery feature;
    feature.UsesTable("WaterTemp");
    metaquery::MetaQueryRequest req;
    req.WithKeywords("temp").WithFeature(feature).SimilarTo(probe).Limit(10);
    ExpectResponsesEqual(before.Execute(viewer, req),
                         after.Execute(viewer, req), "combined");
  }

}

TEST(SnapshotV2Test, PlannerResultsByteIdenticalAfterRestore) {
  LogFixture& f = BigFixture();
  std::string path = TempPath("cqms_v2_planner.snap");
  ASSERT_TRUE(SaveSnapshotV2(f.store, path).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ExpectPlannerAnswersEqual(&f.store, &loaded, "user1");
}

TEST(SnapshotV2Test, MutatedStateSurvivesRoundTrip) {
  Harness h;
  QueryId a = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryId b = h.Log("alice", "SELECT * FROM CityLocations");
  QueryId c = h.Log("bob", "SELEKT broken");
  h.store.acl().AddUser("alice", {"oceans"});
  h.store.acl().AddUser("bob", {"oceans"});
  ASSERT_TRUE(h.store.SetQuality(a, 0.9).ok());
  ASSERT_TRUE(h.store.AddFlag(a, kFlagRepaired).ok());
  ASSERT_TRUE(h.store.SetSession(a, 7).ok());
  ASSERT_TRUE(
      h.store.acl().SetVisibility(a, "alice", "alice", Visibility::kPublic).ok());
  ASSERT_TRUE(h.store.Delete(b, "alice").ok());
  Annotation note;
  note.author = "alice";
  note.timestamp = 1500;
  note.text = std::string(1, '\0') + "binary-safe \xF0 annotation\n";
  note.fragment = "temp < 18";
  ASSERT_TRUE(h.store.Annotate(a, note).ok());

  std::string path = TempPath("cqms_v2_mutated.snap");
  ASSERT_TRUE(SaveSnapshotV2(h.store, path).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ASSERT_EQ(loaded.size(), 3u);
  for (const QueryRecord& r : h.store.records()) {
    ExpectRecordsEqual(r, *loaded.Get(r.id));
  }
  ExpectLshRestored(h.store, loaded);
  EXPECT_EQ(loaded.acl().GetVisibility(a), Visibility::kPublic);
  EXPECT_FALSE(loaded.Visible("carol", b));  // deleted stays deleted
  EXPECT_TRUE(loaded.Get(c)->parse_failed());
}

TEST(SnapshotV2Test, LazyAstMaterializesForMaintenance) {
  Harness h;
  QueryId id = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryRecord copy = *h.store.Get(id);
  copy.user = "bob";
  QueryId rerun = h.store.Append(copy);
  std::string path = TempPath("cqms_v2_lazy_ast.snap");
  ASSERT_TRUE(SaveSnapshotV2(h.store, path).ok());
  QueryStore loaded;
  uint64_t parses_before = sql::ParseCallCount();
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(sql::ParseCallCount(), parses_before);  // restored unparsed

  const QueryRecord* r = loaded.Get(id);
  EXPECT_FALSE(r->parse_failed());
  ASSERT_NE(r->Ast(), nullptr);  // first consumer pays one parse
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);
  EXPECT_NE(r->Ast(), nullptr);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);  // memoized
  // The re-run shares the statement, and so the tree.
  EXPECT_EQ(loaded.Get(rerun)->Ast(), r->Ast());
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 1u);
  EXPECT_FALSE(r->parse_failed());
}

// Reads a version-2 snapshot — the format before sketches stopped being
// persisted — written by a *different* process, whose interner assigned
// different ids: the stored table slice carries old ids that cannot
// match this process's, so the loader must remap every signature
// vector. Both records carry the v2 sketch bit and its 64-slot blob of
// garbage; the reader must step over each blob (the second record only
// decodes if the first blob was skipped) and index both records under
// the sketch derived from the remapped signature. Hand-encodes the
// framing (magic, CRC32-framed sections) — doubling as a
// format-stability check against docs/persistence.md.
TEST(SnapshotV2Test, LegacyV2SnapshotSkipsSketchBlobsAndRemapsSymbols) {
  const std::string names[3] = {"zz_remap_aaa", "zz_remap_bbb", "zz_remap_ccc"};
  const Symbol old_ids[3] = {7000001, 7000005, 7000044};  // foreign ids

  BinaryWriter interner;
  interner.PutVarint(3);
  for (int i = 0; i < 3; ++i) {
    interner.PutVarint(old_ids[i]);
    interner.PutString(names[i]);
  }

  BinaryWriter acl;
  acl.PutVarint(1);  // one user
  acl.PutString("ruser");
  acl.PutVarint(1);
  acl.PutString("rgroup");
  acl.PutVarint(0);  // no visibility overrides

  auto put_sketch_blob = [](BinaryWriter* w) {
    for (int i = 0; i < 64; ++i) w->PutFixed64(0xDEADBEEFu + i);
  };

  BinaryWriter records;
  records.PutVarint(2);
  // Record 0: a logged parse failure.
  records.PutU8(0x0A);  // sig valid | v2 sketch, not parsed
  records.PutString("zz_remap_aaa zz_remap_bbb zz_remap_ccc");
  records.PutString("ruser");
  records.PutZigzag(1234);  // timestamp
  records.PutZigzag(-1);    // session
  records.PutVarint(0);     // flags
  records.PutDouble(0.5);
  records.PutZigzag(10);  // exec micros
  records.PutVarint(0);   // result rows
  records.PutVarint(0);   // rows scanned
  records.PutU8(0);       // succeeded
  records.PutString("parse error");
  records.PutString("");  // plan
  records.PutVarint(0);   // annotations
  // Signature: empty tables/skeletons/attributes/projections, three
  // delta-encoded text tokens, no output rows.
  records.PutVarint(0);
  records.PutVarint(0);
  records.PutVarint(0);
  records.PutVarint(0);
  records.PutVarint(3);
  records.PutVarint(old_ids[0]);
  records.PutVarint(old_ids[1] - old_ids[0]);
  records.PutVarint(old_ids[2] - old_ids[1]);
  records.PutVarint(0);  // output rows
  put_sketch_blob(&records);

  // Record 1: SELECT zz_remap_aaa FROM zz_remap_bbb, parsed.
  records.PutU8(0x0B);  // parsed | sig valid | v2 sketch
  records.PutString("SELECT zz_remap_aaa FROM zz_remap_bbb");
  records.PutString("ruser");
  records.PutZigzag(1300);  // timestamp
  records.PutZigzag(4);     // session
  records.PutVarint(0);     // flags
  records.PutDouble(0.75);
  records.PutZigzag(20);  // exec micros
  records.PutVarint(3);   // result rows
  records.PutVarint(30);  // rows scanned
  records.PutU8(1);       // succeeded
  records.PutString("");  // error
  records.PutString("");  // plan
  records.PutVarint(0);   // annotations
  records.PutString("select zz_remap_aaa from zz_remap_bbb");  // canonical
  records.PutString("select zz_remap_aaa from zz_remap_bbb");  // skeleton
  records.PutFixed64(0x1111);  // fingerprint
  records.PutFixed64(0x2222);  // skeleton fingerprint
  records.PutVarint(1);        // components: tables
  records.PutString("zz_remap_bbb");
  records.PutVarint(0);  // attributes
  records.PutVarint(1);  // projections
  records.PutString("zz_remap_aaa");
  records.PutVarint(0);    // predicates
  records.PutVarint(0);    // group by
  records.PutVarint(0);    // order by
  records.PutVarint(0);    // aggregates
  records.PutU8(0);        // component bits
  records.PutZigzag(0);    // joins
  records.PutZigzag(1);    // tables
  records.PutZigzag(0);    // nesting depth
  records.PutVarint(1);    // signature tables: bbb
  records.PutVarint(old_ids[1]);
  records.PutVarint(0);  // predicate skeletons
  records.PutVarint(0);  // attributes
  records.PutVarint(1);  // projections: aaa
  records.PutVarint(old_ids[0]);
  records.PutVarint(2);  // text tokens: aaa, bbb
  records.PutVarint(old_ids[0]);
  records.PutVarint(old_ids[1] - old_ids[0]);
  records.PutVarint(0);  // output rows
  put_sketch_blob(&records);

  std::string file = "CQMSNAP2";
  BinaryWriter version;
  version.PutFixed32(2);
  file += version.data();
  file += FrameSection(1, interner.data());
  file += FrameSection(2, acl.data());
  file += FrameSection(3, records.data());
  file += FrameSection(0xFF, std::string());

  std::string path = TempPath("cqms_v2_foreign.snap");
  WriteFile(path, file);
  EXPECT_TRUE(VerifySnapshotV2(path).ok());

  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  ASSERT_EQ(loaded.size(), 2u);
  const QueryRecord* r = loaded.Get(0);

  // Symbols remapped into this process's id space: the keyword index
  // resolves the names, and the signature stays sorted.
  EXPECT_EQ(loaded.QueriesWithKeyword("zz_remap_bbb"),
            (std::vector<QueryId>{0, 1}));
  const std::vector<Symbol>& tokens = r->statement().signature.text_tokens;
  ASSERT_EQ(tokens.size(), 3u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_LT(tokens[i - 1], tokens[i]);
  }
  for (const std::string& name : names) {
    Symbol s = GlobalInterner().Find(name);
    ASSERT_NE(s, kInvalidSymbol);
    EXPECT_TRUE(std::binary_search(tokens.begin(), tokens.end(), s))
        << name;
  }

  // The record after the first blob decoded field for field.
  const QueryRecord* parsed = loaded.Get(1);
  EXPECT_FALSE(parsed->parse_failed());
  EXPECT_EQ(parsed->text, "SELECT zz_remap_aaa FROM zz_remap_bbb");
  EXPECT_EQ(parsed->timestamp, 1300);
  EXPECT_EQ(parsed->session_id, 4);
  EXPECT_EQ(parsed->quality, 0.75);
  EXPECT_EQ(parsed->fingerprint, 0x1111u);
  EXPECT_EQ(parsed->components->tables,
            (std::vector<std::string>{"zz_remap_bbb"}));
  EXPECT_EQ(parsed->statement().signature.tables,
            (std::vector<Symbol>{GlobalInterner().Find("zz_remap_bbb")}));
  EXPECT_EQ(loaded.QueriesUsingTable("zz_remap_bbb"),
            (std::vector<QueryId>{1}));

  // The stored slots were discarded: both records' statements (two
  // distinct ones) are indexed, once per band, under the sketch of their
  // remapped signatures — nothing else.
  EXPECT_NE(loaded.scoring().statement_of(0), loaded.scoring().statement_of(1));
  for (QueryId id : {QueryId{0}, QueryId{1}}) {
    MinHashSketch derived =
        ComputeMinHashSketch(loaded.Get(id)->statement().signature);
    ASSERT_TRUE(derived.valid);
    EXPECT_NE(derived.mins[0], 0xDEADBEEFu) << "id " << id;
    EXPECT_TRUE(loaded.lsh().ContainsExactlyOnce(
        loaded.scoring().statement_of(id), derived))
        << "id " << id;
  }
  EXPECT_EQ(loaded.lsh().entry_count(), 2 * loaded.lsh().bands());
  EXPECT_TRUE(loaded.acl().GroupsOf("ruser").count("rgroup") > 0);
}

TEST(SnapshotV2Test, CorruptSnapshotsAreRejected) {
  Harness h;
  h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  h.Log("bob", "SELECT * FROM CityLocations");
  std::string path = TempPath("cqms_v2_corrupt.snap");
  ASSERT_TRUE(SaveSnapshotV2(h.store, path).ok());
  std::string good = ReadFile(path);
  ASSERT_GT(good.size(), 120u);

  {  // Bad magic.
    std::string bad = good;
    bad[3] ^= 0x40;
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kCorruption);
  }
  {  // Unsupported version.
    std::string bad = good;
    bad[8] = 9;
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kIoError);
  }
  {  // The next format version, as a later binary would write it.
    ASSERT_EQ(good[8], 4);
    std::string bad = good;
    bad[8] = 5;
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kIoError);
    EXPECT_EQ(VerifySnapshotV2(path).code(), StatusCode::kIoError);
  }
  {  // Flipped payload bytes must fail the section CRC.
    for (size_t offset : {good.size() / 3, good.size() / 2}) {
      std::string bad = good;
      bad[offset] ^= 0x01;
      WriteFile(path, bad);
      QueryStore s;
      EXPECT_FALSE(LoadSnapshot(&s, path).ok()) << "offset " << offset;
    }
  }
  {  // Truncated mid-section.
    std::string bad = good.substr(0, good.size() - 30);
    WriteFile(path, bad);
    QueryStore s;
    EXPECT_EQ(LoadSnapshot(&s, path).code(), StatusCode::kCorruption);
  }
  // And the pristine bytes still load.
  WriteFile(path, good);
  QueryStore s;
  EXPECT_TRUE(LoadSnapshot(&s, path).ok());
  EXPECT_EQ(s.size(), 2u);
}

// The compatibility fixture: a version-3 image that the last format-3
// writer saved from BuildCompatLog's store, in a process of its own.
// This process interns the names first, so the restore goes through
// the symbol remap. It must still restore every value, parse nothing,
// and index and answer like the rebuilt store.
TEST(SnapshotV2Test, Version3FixtureRestoresTheRebuiltLog) {
  const std::string image = V3FixtureImage();
  ASSERT_GT(image.size(), 12u);
  ASSERT_EQ(image[8], 3);
  QueryStore rebuilt;
  BuildCompatLog(&rebuilt);

  uint64_t words_before = ExtractWordsCallCount();
  uint64_t parses_before = sql::ParseCallCount();
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshotV2FromString(&loaded, image, "v3 fixture").ok());
  EXPECT_EQ(ExtractWordsCallCount() - words_before, 0u);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 0u);

  ExpectRestoredLog(rebuilt, loaded);
  for (const char* viewer : {"alice", "bob", "carol"}) {
    ExpectPlannerAnswersEqual(&rebuilt, &loaded, viewer);
  }
}

// Format 4 writes each distinct statement once. Copies of a statement
// that ran before and after a data change (another outcome), or in
// other sessions and with other qualities, flags and annotations (other
// own fields), must each restore as saved, and the restored store must
// encode to the same bytes again.
TEST(SnapshotV2Test, RepeatedStatementsRestoreFieldForField) {
  QueryStore store;
  BuildCompatLog(&store);
  // Record 18 re-ran record 0's statement after the data changed;
  // record 6 re-ran it with the same outcome but its own session,
  // quality and annotation.
  const QueryRecord& first = *store.Get(0);
  ASSERT_EQ(store.Get(18)->text, first.text);
  ASSERT_NE(store.Get(18)->stats.result_rows, first.stats.result_rows);
  const std::vector<uint64_t>& first_rows =
      first.statement().signature.output_rows;
  ASSERT_NE(store.Get(18)->statement().signature.output_rows, first_rows);
  ASSERT_EQ(store.Get(6)->text, first.text);
  ASSERT_EQ(store.Get(6)->statement().signature.output_rows, first_rows);
  ASSERT_NE(store.Get(6)->quality, first.quality);
  ASSERT_NE(store.Get(6)->annotations.size(), first.annotations.size());

  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(store, 0, &image).ok());
  ASSERT_EQ(image[8], 4);
  // A repeat costs a record, not a statement: the statement table and
  // the records together are smaller than the version-3 records.
  SnapshotSections v4(image);
  SnapshotSections v3(V3FixtureImage());
  EXPECT_LT(v4.Payload(5)->size() + v4.Payload(3)->size(),
            v3.Payload(3)->size() / 2);

  uint64_t words_before = ExtractWordsCallCount();
  uint64_t parses_before = sql::ParseCallCount();
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshotV2FromString(&loaded, image, "v4").ok());
  EXPECT_EQ(ExtractWordsCallCount() - words_before, 0u);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 0u);
  ExpectRestoredLog(store, loaded);

  // Records 0 and 6 come from one entry and share its Statement; record
  // 18's other output is another statement.
  EXPECT_EQ(&loaded.Get(6)->statement(), &loaded.Get(0)->statement());
  EXPECT_NE(&loaded.Get(18)->statement(), &loaded.Get(0)->statement());
  EXPECT_EQ(loaded.statement_count(), store.statement_count());

  std::string again;
  ASSERT_TRUE(EncodeSnapshotV2(loaded, 0, &again).ok());
  EXPECT_TRUE(again == image) << "the restored store encodes differently";
}

/// The statement-table entry each record of a format-4 `image`
/// references, in id order (the leading varint of each record).
std::vector<uint64_t> RecordEntries(const std::string& image) {
  SnapshotSections sections(image);
  BinaryReader r(*sections.Payload(3));
  std::vector<uint64_t> entries(r.GetVarint());
  for (uint64_t& entry : entries) {
    entry = r.GetVarint();
    r.GetString();  // user
    r.GetZigzag();  // timestamp
    r.GetZigzag();  // session
    r.GetVarint();  // flags
    r.GetDouble();  // quality
    r.GetZigzag();  // execution time
    for (uint64_t n = r.GetVarint(); n > 0; --n) {
      r.GetString();  // author
      r.GetZigzag();  // timestamp
      r.GetString();  // text
      r.GetString();  // fragment
    }
  }
  EXPECT_TRUE(r.AtEnd() && !r.failed());
  return entries;
}

// A restore points every record of one statement-table entry at one
// Statement, and entries that differ only in outcome (which stays per
// record) share one too: the loaded store holds exactly one Statement
// per distinct statement, as the store that saved it did, and encodes
// to the same bytes again.
TEST(SnapshotV2Test, RestoreSharesOneStatementPerDistinctStatement) {
  LogFixture& f = BigFixture();
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(f.store, 0, &image).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshotV2FromString(&loaded, image, "sharing").ok());

  const std::vector<uint64_t> entries = RecordEntries(image);
  ASSERT_EQ(entries.size(), loaded.size());
  std::map<uint64_t, const Statement*> statement_of_entry;
  std::map<std::string, std::vector<const Statement*>> statements_by_text;
  for (const QueryRecord& r : loaded.records()) {
    auto [it, first] = statement_of_entry.emplace(
        entries[static_cast<size_t>(r.id)], &r.statement());
    EXPECT_EQ(it->second, &r.statement()) << "id " << r.id;
    std::vector<const Statement*>& same_text = statements_by_text[r.text];
    if (std::find(same_text.begin(), same_text.end(), &r.statement()) ==
        same_text.end()) {
      same_text.push_back(&r.statement());
    }
  }
  size_t distinct = 0;
  for (const auto& [text, statements] : statements_by_text) {
    for (size_t i = 0; i < statements.size(); ++i) {
      for (size_t j = i + 1; j < statements.size(); ++j) {
        EXPECT_FALSE(*statements[i] == *statements[j]) << text;
      }
    }
    distinct += statements.size();
  }
  EXPECT_EQ(loaded.statement_count(), distinct);
  EXPECT_EQ(loaded.statement_count(), f.store.statement_count());
  EXPECT_LT(loaded.statement_count(), statement_of_entry.size() + 1);
  EXPECT_LT(loaded.statement_count(), loaded.size() / 2);  // lab logs repeat

  std::string again;
  ASSERT_TRUE(EncodeSnapshotV2(loaded, 0, &again).ok());
  EXPECT_TRUE(again == image) << "the restored store encodes differently";
}

// A restore holds one copy of each repeated string, as the store that
// saved the image did: a format-4 record starts as a copy of its entry,
// and a format-3 record (the checked-in fixture) takes the copy an
// earlier run of its statement, or of its owner, holds.
TEST(RunStringSharingTest, RestoredRunsHoldOneCopyOfEachString) {
  QueryStore built;
  BuildCompatLog(&built);
  const testing_util::SharedRepeats expected =
      testing_util::ExpectOneCopyPerRepeatedString(built);
  EXPECT_GT(expected.plans, 0u);
  EXPECT_GT(expected.errors, 0u);
  EXPECT_GT(expected.owners, 0u);

  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(built, 0, &image).ok());
  for (const std::string& saved : {image, V3FixtureImage()}) {
    QueryStore loaded;
    ASSERT_TRUE(LoadSnapshotV2FromString(&loaded, saved, "strings").ok());
    const testing_util::SharedRepeats repeats =
        testing_util::ExpectOneCopyPerRepeatedString(loaded);
    EXPECT_EQ(repeats.plans, expected.plans) << "format " << int{saved[8]};
    EXPECT_EQ(repeats.errors, expected.errors) << "format " << int{saved[8]};
    EXPECT_EQ(repeats.owners, expected.owners) << "format " << int{saved[8]};
  }
}

// The encoder reuses the entry a record's Statement last used when the
// entry fields that can differ under one statement are equal, and
// encodes the record otherwise. Runs of one statement that differ in
// exactly one of those fields from the run before them must still get
// the entries the byte comparison gives: one per distinct run, numbered
// by first use.
TEST(SnapshotV2Test, EntryReuseMatchesTheByteComparison) {
  const std::string sql = "SELECT temp FROM WaterTemp WHERE temp < 18";
  QueryStore store;
  auto append = [&](const std::function<void(QueryRecord*)>& edit) {
    QueryRecord r = BuildRecordFromText(sql, "alice", 1);
    r.stats.result_rows = 3;
    r.stats.rows_scanned = 60;
    r.stats.plan = "scan watertemp (60 rows)";
    edit(&r);
    store.Append(std::move(r));
  };
  const std::vector<std::function<void(QueryRecord*)>> differences = {
      [](QueryRecord* r) { r->stats.plan = "scan watertemp (80 rows)"; },
      [](QueryRecord* r) { r->stats.result_rows = 4; },
      [](QueryRecord* r) { r->stats.rows_scanned = 80; },
      [](QueryRecord* r) { r->stats.succeeded = false; },
      [](QueryRecord* r) { r->stats.error = "ExecutionError: overflow"; },
      [](QueryRecord* r) { r->fingerprint += 1; },
  };
  auto base = [](QueryRecord*) {};
  append(base);
  append(base);
  std::vector<uint64_t> expected = {0, 0};
  for (size_t i = 0; i < differences.size(); ++i) {
    append(differences[i]);
    append(base);
    expected.push_back(i + 1);
    expected.push_back(0);
  }
  ASSERT_EQ(store.statement_count(), 1u);

  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(store, 0, &image).ok());
  EXPECT_EQ(RecordEntries(image), expected);
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshotV2FromString(&loaded, image, "entries").ok());
  ExpectRestoredLog(store, loaded);
  std::string again;
  ASSERT_TRUE(EncodeSnapshotV2(loaded, 0, &again).ok());
  EXPECT_TRUE(again == image) << "the restored store encodes differently";
}

// Snapshots and the WAL persist a record's output-row hashes but not its
// output summary. A rewrite (query repair) keeps the summary, so it must
// keep the hashes of a restored record too: the same rewrite before and
// after a restart leaves the same signature.
TEST(SnapshotV2Test, RewriteAfterRestoreKeepsOutputSignature) {
  Harness h;
  QueryId rows = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryId none = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < -99");
  ASSERT_FALSE(h.store.Get(rows)->statement().signature.output_rows.empty());
  ASSERT_TRUE(h.store.Get(none)->statement().signature.output_empty_computed);
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(h.store, 0, &image).ok());
  QueryStore restored;
  ASSERT_TRUE(LoadSnapshotV2FromString(&restored, image, "rewrite").ok());

  for (QueryId id : {rows, none}) {
    const std::string repaired =
        h.store.Get(id)->text + " ORDER BY temp";
    ASSERT_TRUE(h.store.RewriteQueryText(id, repaired).ok());
    ASSERT_TRUE(restored.RewriteQueryText(id, repaired).ok());
    ExpectSignaturesEqual(h.store.Get(id)->statement().signature,
                          restored.Get(id)->statement().signature, id);
  }
  EXPECT_FALSE(restored.Get(rows)->statement().signature.output_rows.empty());
  EXPECT_TRUE(restored.Get(none)->statement().signature.output_empty_computed);
}

// A CRC-valid image can still lie about its counts. A Records count of
// 2^50 used to reach QueryStore::ReserveForRestore and end the process
// with std::bad_alloc; every count and the statement index must be
// checked against the bytes that are there and answered with
// kCorruption.
TEST(SnapshotV2Test, ForgedCountsAndIndexesAreCorruption) {
  QueryStore store;
  BuildCompatLog(&store);
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(store, 0, &image).ok());
  auto load = [](const std::string& bytes) {
    QueryStore s;
    return LoadSnapshotV2FromString(&s, bytes, "forged").code();
  };
  constexpr uint64_t kHuge = uint64_t{1} << 50;

  for (uint8_t section : {3, 5}) {  // Records, Statements
    SnapshotSections forged(image);
    std::string* payload = forged.Payload(section);
    *payload = ReplaceLeadingVarint(*payload, kHuge);
    EXPECT_EQ(load(forged.Join()), StatusCode::kCorruption)
        << "section " << int{section};
  }
  {  // The version-3 Records count.
    SnapshotSections forged(V3FixtureImage());
    std::string* payload = forged.Payload(3);
    *payload = ReplaceLeadingVarint(*payload, kHuge);
    EXPECT_EQ(load(forged.Join()), StatusCode::kCorruption);
  }
  {  // The first record references one entry past the table.
    SnapshotSections forged(image);
    BinaryReader table(*forged.Payload(5));
    const uint64_t entries = table.GetVarint();
    std::string* records = forged.Payload(3);
    BinaryReader r(*records);
    BinaryWriter count;
    count.PutVarint(r.GetVarint());
    *records = count.data() +
               ReplaceLeadingVarint(records->substr(records->size() -
                                                    r.remaining()),
                                    entries);
    EXPECT_EQ(load(forged.Join()), StatusCode::kCorruption);
  }
  {  // Records without the statement table they index into.
    SnapshotSections forged(image);
    forged.sections.erase(
        std::find_if(forged.sections.begin(), forged.sections.end(),
                     [](const auto& s) { return s.first == 5; }));
    EXPECT_EQ(load(forged.Join()), StatusCode::kCorruption);
  }
  EXPECT_EQ(load(image), StatusCode::kOk);
}

// The ACL section precedes the records, so the loader holds its
// visibility pairs until the records are in; one naming an id the image
// holds no record for is forged, in either format, and must never size
// the visibility column.
TEST(SnapshotV2Test, ForgedVisibilityIdIsCorruption) {
  QueryStore store;
  BuildCompatLog(&store);
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(store, 0, &image).ok());
  const uint64_t records = store.size();
  // No users, then one visibility pair.
  auto acl = [](uint64_t id) {
    BinaryWriter w;
    w.PutVarint(0);
    w.PutVarint(1);
    w.PutVarint(id);
    w.PutU8(static_cast<uint8_t>(Visibility::kPublic));
    return w.Take();
  };
  for (const std::string& saved : {image, V3FixtureImage()}) {
    const int format = saved[8];
    for (uint64_t id : {records, records + 1, uint64_t{1} << 40}) {
      SnapshotSections forged(saved);
      *forged.Payload(2) = acl(id);
      QueryStore s;
      EXPECT_EQ(LoadSnapshotV2FromString(&s, forged.Join(), "forged").code(),
                StatusCode::kCorruption)
          << "format " << format << " id " << id;
    }
    // The last record is the largest id an image may name.
    SnapshotSections last(saved);
    *last.Payload(2) = acl(records - 1);
    QueryStore s;
    ASSERT_TRUE(LoadSnapshotV2FromString(&s, last.Join(), "last").ok())
        << "format " << format;
    EXPECT_EQ(s.acl().GetVisibility(static_cast<QueryId>(records - 1)),
              Visibility::kPublic);
  }
}

/// A large element count followed by more undecodable bytes than it
/// claims (so no list of that length decodes, and no string of that
/// length ends its section), for splicing into encoded payloads.
constexpr size_t kForgedCount = 16 << 10;
std::string ForgedCountTail() {
  BinaryWriter count;
  count.PutVarint(kForgedCount);
  return count.data() + std::string(kForgedCount + 1, '\xff');
}

// A count is trusted only as far as the bytes behind it: splicing a
// large count followed by that many undecodable bytes anywhere into the
// interner, ACL, statement or record section of a CRC-valid image must
// not make the decoder allocate more than the bytes present. Reserving
// the claimed count allocates 32-104 bytes per element (interner names,
// group, table and column lists, attributes, predicates, annotations).
TEST(SnapshotV2Test, ForgedCountsAllocateOnlyWhatTheBytesHold) {
  QueryStore store;
  BuildCompatLog(&store);
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(store, 0, &image).ok());
  const std::string tail = ForgedCountTail();
  size_t loads = 0;
  for (uint8_t section : {1, 2, 5, 3}) {  // Interner, Acl, Statements, Records
    const std::string payload = *SnapshotSections(image).Payload(section);
    // The leading record count sizes the restore's per-record columns;
    // it is held to a byte per record, as before.
    for (size_t at = section == 3 ? 1 : 0; at <= payload.size(); ++at) {
      SnapshotSections forged(image);
      *forged.Payload(section) = payload.substr(0, at) + tail;
      const std::string hostile = forged.Join();
      Status status;
      const size_t largest = LargestAllocationDuring([&] {
        QueryStore s;
        status = LoadSnapshotV2FromString(&s, hostile, "forged");
      });
      ++loads;
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << "section " << int{section} << " at byte " << at;
      ASSERT_LE(largest, 2 * kForgedCount)
          << "section " << int{section} << " at byte " << at;
    }
  }
  EXPECT_GT(loads, 1000u);
}

// Seeded byte-mutation fuzz of the snapshot decoder, over a version-4
// image and the version-3 fixture. Each mutant's section CRCs are
// recomputed, so the payload decoders see the mutated bytes rather
// than the CRC check stopping them. Every load must end in OK or
// kCorruption: no crash, no abort, nothing a sanitizer reports (CI runs
// this suite under ASan/UBSan).
TEST(SnapshotV2Test, SeededMutationFuzzLoadsOrFailsTyped) {
  QueryStore store;
  BuildCompatLog(&store);
  std::string v4;
  ASSERT_TRUE(EncodeSnapshotV2(store, 7, &v4).ok());
  constexpr size_t kMutants = 1000;
  Rng rng(0x534e4150);
  for (const std::string& image : {v4, V3FixtureImage()}) {
    size_t loaded = 0;
    size_t rejected = 0;
    for (size_t i = 0; i < kMutants; ++i) {
      SnapshotSections mutant(image);
      // Any section but the empty End one.
      std::string& payload =
          mutant.sections[rng.Uniform(mutant.sections.size() - 1)].second;
      const uint64_t edits = 1 + rng.Uniform(4);
      for (uint64_t e = 0; e < edits && !payload.empty(); ++e) {
        const size_t at = rng.Uniform(payload.size());
        switch (rng.Uniform(6)) {
          case 0:  // flip one bit
            payload[at] ^= static_cast<char>(1u << rng.Uniform(8));
            break;
          case 1:  // any byte value
            payload[at] = static_cast<char>(rng.Uniform(256));
            break;
          case 2:  // a varint continuation byte
            payload[at] = static_cast<char>(0x80 | rng.Uniform(128));
            break;
          case 3:  // insert a byte
            payload.insert(at, 1, static_cast<char>(rng.Uniform(256)));
            break;
          case 4:  // drop a span
            payload.erase(at, 1 + rng.Uniform(8));
            break;
          default:  // truncate
            payload.resize(at);
            break;
        }
      }
      QueryStore s;
      Status st = LoadSnapshotV2FromString(&s, mutant.Join(), "mutant");
      if (st.ok()) {
        ++loaded;
      } else {
        ++rejected;
        EXPECT_EQ(st.code(), StatusCode::kCorruption) << st;
      }
    }
    // The mutations reached the decoders: most mutants are refused, and
    // a few (an edited string, timestamp or quality) still load.
    EXPECT_GT(rejected, kMutants / 2);
    EXPECT_GT(loaded, 0u);
  }
}

/// A well-framed image holding one logged parse failure whose signature
/// is missing: the format-4 statement entry, or the format-3 record,
/// carries neither the signature bit nor a signature.
std::string ImageWithoutSignature(uint32_t version) {
  BinaryWriter statement;  // bits (neither parsed nor signed), text
  statement.PutU8(0);
  statement.PutString("SELEKT zz_unsigned");
  BinaryWriter run;  // user, timestamp, session, flags, quality, micros
  run.PutString("ruser");
  run.PutZigzag(1234);
  run.PutZigzag(-1);
  run.PutVarint(0);
  run.PutDouble(0.5);
  run.PutZigzag(10);
  BinaryWriter outcome;  // result rows, rows scanned, succeeded, error, plan
  outcome.PutVarint(0);
  outcome.PutVarint(0);
  outcome.PutU8(0);
  outcome.PutString("parse error");
  outcome.PutString("");
  const std::string zero(1, '\0'), one(1, '\1');  // one-byte varints
  BinaryWriter header;
  header.PutFixed32(version);
  std::string file = "CQMSNAP2" + header.data();
  file += FrameSection(1, zero);         // interner: no symbols
  file += FrameSection(2, zero + zero);  // ACL: no users, no overrides
  if (version >= 4) {
    file += FrameSection(5, one + statement.data() + outcome.data());
    // One record of statement 0, no annotations.
    file += FrameSection(3, one + zero + run.data() + zero);
  } else {
    file += FrameSection(
        3, one + statement.data() + run.data() + outcome.data() + zero);
  }
  return file + FrameSection(0xFF, std::string());
}

// Every writer has stored a signature with each statement, and the read
// path scores every record through it, so an image without one is
// corrupt, from a string and from a file alike.
TEST(SnapshotV2Test, MissingSignatureIsCorruption) {
  for (uint32_t version : {4u, 3u}) {
    SCOPED_TRACE("format " + std::to_string(version));
    const std::string image = ImageWithoutSignature(version);
    QueryStore from_string;
    Status s = LoadSnapshotV2FromString(&from_string, image, "unsigned");
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
    EXPECT_NE(s.message().find("missing signature"), std::string::npos) << s;

    const std::string path = TempPath("cqms_unsigned.snap");
    WriteFile(path, image);
    EXPECT_TRUE(VerifySnapshotV2(path).ok());
    QueryStore from_file;
    s = LoadSnapshotV2(&from_file, path);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
    EXPECT_NE(s.message().find("missing signature"), std::string::npos) << s;
    std::remove(path.c_str());
  }
}

/// Applies a representative mutation of every WAL op through a durable
/// store; returns the ids (append order) for later comparison.
std::vector<QueryId> ApplyCommittedMutations(Harness* h) {
  QueryStore& store = h->store;
  store.acl().AddUser("alice", {"oceans"});
  store.acl().AddUser("bob", {"lakes"});
  QueryId a = h->Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  QueryId b = h->Log("bob", "SELECT * FROM CityLocations");
  QueryId c = h->Log("alice", "SELEKT not sql");  // logged parse failure
  EXPECT_TRUE(store.RewriteQueryText(
                  b, "SELECT city FROM CityLocations WHERE city = 'oslo'")
                  .ok());
  Annotation note;
  note.author = "bob";
  note.timestamp = 42;
  note.text = "favorite city \xFF probe";
  EXPECT_TRUE(store.Annotate(b, note).ok());
  EXPECT_TRUE(store.AddFlag(a, kFlagStatsStale).ok());
  EXPECT_TRUE(store.ClearFlag(a, kFlagStatsStale).ok());
  EXPECT_TRUE(store.AddFlag(a, kFlagRepaired).ok());
  EXPECT_TRUE(store.SetSession(a, 3).ok());
  EXPECT_TRUE(store.SetQuality(a, 0.8).ok());
  EXPECT_TRUE(
      store.acl().SetVisibility(a, "alice", "alice", Visibility::kPrivate).ok());
  EXPECT_TRUE(store.Delete(c, "alice").ok());
  return {a, b, c};
}

/// `expect_output_rows` is false only for the v1 text-format migration
/// path: that format predates output-hash persistence, so a store
/// re-profiled from it legitimately carries none.
void ExpectStoresEquivalent(const QueryStore& a, const QueryStore& b,
                            bool expect_output_rows = true) {
  ASSERT_EQ(a.size(), b.size());
  for (const QueryRecord& r : a.records()) {
    const QueryRecord* o = b.Get(r.id);
    EXPECT_EQ(r.text, o->text);
    EXPECT_EQ(r.user, o->user);
    EXPECT_EQ(r.timestamp, o->timestamp);
    EXPECT_EQ(r.session_id, o->session_id);
    EXPECT_EQ(r.flags, o->flags);
    EXPECT_EQ(r.quality, o->quality);
    EXPECT_EQ(r.parse_failed(), o->parse_failed());
    EXPECT_EQ(r.fingerprint, o->fingerprint);
    if (expect_output_rows) {
      // Output-similarity ranking state survives WAL replay too (the
      // hashes ride in kAppend/kRewrite frames even though summaries
      // do not).
      EXPECT_EQ(r.statement().signature.output_rows,
                o->statement().signature.output_rows);
      EXPECT_EQ(r.statement().signature.output_empty_computed,
                o->statement().signature.output_empty_computed);
    }
    ASSERT_EQ(r.annotations.size(), o->annotations.size());
    for (size_t i = 0; i < r.annotations.size(); ++i) {
      EXPECT_EQ(r.annotations[i].text, o->annotations[i].text);
    }
    EXPECT_EQ(a.acl().GetVisibility(r.id), b.acl().GetVisibility(r.id));
  }
  EXPECT_EQ(a.acl().memberships(), b.acl().memberships());
}

TEST(WalTest, ReplayRecoversEveryCommittedMutationAfterTornWrite) {
  std::string dir = TempPath("cqms_wal_torn");
  RemoveDurableFiles(dir);

  Harness h;
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  std::vector<QueryId> ids = ApplyCommittedMutations(&h);
  uint64_t committed = durable.wal_records();
  ASSERT_GE(committed, 12u);

  // Crash: the process dies mid-append. The WAL's committed prefix is
  // on disk; the final frame is torn (its payload never finished).
  {
    std::ofstream out(dir + "/wal.log",
                      std::ios::binary | std::ios::app);
    BinaryWriter torn;
    torn.PutFixed32(1000);       // claims a 1000-byte payload...
    torn.PutFixed32(0x12345678);  // ...bogus CRC...
    torn.PutU8(1);                // ...one byte of it ever landed
    out.write(torn.data().data(),
              static_cast<std::streamsize>(torn.data().size()));
  }

  // Recover into a fresh store.
  Harness h2;
  DurableStore recovered(&h2.store, dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.replay_stats().records_applied, committed);
  EXPECT_GT(recovered.replay_stats().torn_bytes, 0u);
  ExpectStoresEquivalent(h.store, h2.store);

  // The torn tail was truncated away: the log ends on a frame boundary.
  EXPECT_EQ(ReadFile(dir + "/wal.log").size(),
            recovered.replay_stats().bytes_valid);

  // Checkpoint folds the tail into a binary snapshot and resets the
  // WAL; a third recovery comes up from the snapshot alone.
  ASSERT_TRUE(recovered.Checkpoint().ok());
  EXPECT_EQ(recovered.wal_records(), 0u);
  Harness h3;
  DurableStore again(&h3.store, dir);
  ASSERT_TRUE(again.Open().ok());
  EXPECT_EQ(again.replay_stats().records_applied, 0u);
  ExpectStoresEquivalent(h.store, h3.store);
}

TEST(WalTest, MutationsAfterRecoveryKeepLogging) {
  std::string dir = TempPath("cqms_wal_continue");
  RemoveDurableFiles(dir);

  {
    Harness h;
    DurableStore durable(&h.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  }
  Harness h2;
  {
    DurableStore durable(&h2.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    ASSERT_EQ(h2.store.size(), 1u);
    // New mutations append after the replayed prefix.
    h2.Log("bob", "SELECT * FROM CityLocations");
    ASSERT_TRUE(h2.store.SetQuality(0, 0.25).ok());
  }
  Harness h3;
  DurableStore durable(&h3.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  ExpectStoresEquivalent(h2.store, h3.store);
  EXPECT_EQ(h3.store.Get(0)->quality, 0.25);
}

TEST(WalTest, CrashBetweenSnapshotWriteAndWalTruncationIsIdempotent) {
  std::string dir = TempPath("cqms_wal_ckpt_crash");
  RemoveDurableFiles(dir);

  Harness h;
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  ApplyCommittedMutations(&h);

  // Simulate a crash *between* Checkpoint's snapshot write and its WAL
  // truncation: take the checkpoint, then put the pre-checkpoint WAL
  // bytes back as if the truncation never hit the disk.
  std::string old_wal = ReadFile(dir + "/wal.log");
  ASSERT_TRUE(durable.Checkpoint().ok());
  WriteFile(dir + "/wal.log", old_wal);

  // Recovery must not re-apply what the snapshot already contains: the
  // sequence stamps make snapshot + stale-WAL replay idempotent.
  Harness h2;
  DurableStore recovered(&h2.store, dir);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.replay_stats().records_applied, 0u);
  EXPECT_GT(recovered.replay_stats().records_skipped, 0u);
  ExpectStoresEquivalent(h.store, h2.store);

  // New mutations resume with fresh sequence numbers past the stale
  // tail, and a further recovery applies exactly those.
  h2.Log("alice", "SELECT 42");
  Harness h3;
  DurableStore again(&h3.store, dir);
  ASSERT_TRUE(again.Open().ok());
  EXPECT_EQ(again.replay_stats().records_applied, 1u);
  ExpectStoresEquivalent(h2.store, h3.store);
}

TEST(WalTest, ReplayOfRepeatedStatementsDerivesEachTextOnce) {
  std::string dir = TempPath("cqms_wal_repeats");
  RemoveDurableFiles(dir);

  Harness h(30);
  workload::WorkloadOptions options;
  options.num_users = 12;
  options.num_groups = 3;
  options.num_sessions = 60;
  options.seed = 23;
  const std::string repaired = "SELECT lake FROM WaterTemp WHERE temp = 1234";
  std::set<std::string> texts;
  size_t parsed_appends = 0;
  {
    DurableStore durable(&h.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    workload::RegisterUsers(&h.store, options);
    workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, options);
    h.profiler->LogOnly(h.store.Get(0)->text, "user1");  // an import
    for (const QueryRecord& r : h.store.records()) {
      if (r.parse_failed()) continue;
      texts.insert(r.text);
      ++parsed_appends;
    }
    // Two repairs onto one new text.
    ASSERT_TRUE(h.store.RewriteQueryText(1, repaired).ok());
    ASSERT_TRUE(h.store.RewriteQueryText(2, repaired).ok());
  }
  ASSERT_GE(parsed_appends, texts.size() + 100);  // many re-runs

  Harness h2(30);
  const PathCounts wal_before = CountsOf("wal");
  const PathCounts rewrite_before = CountsOf("rewrite");
  const uint64_t parses_before = sql::ParseCallCount();
  DurableStore recovered(&h2.store, dir);
  ASSERT_TRUE(recovered.Open().ok());
  const PathCounts wal_after = CountsOf("wal");
  const PathCounts rewrite_after = CountsOf("rewrite");
  // Each distinct text is parsed once: a repeated one shares the
  // statement its first replayed record derived.
  EXPECT_EQ(wal_after.derivations - wal_before.derivations, texts.size());
  EXPECT_EQ(wal_after.reuses - wal_before.reuses,
            parsed_appends - texts.size());
  EXPECT_EQ(rewrite_after.derivations - rewrite_before.derivations, 1u);
  EXPECT_EQ(rewrite_after.reuses - rewrite_before.reuses, 1u);
  EXPECT_EQ(sql::ParseCallCount() - parses_before, texts.size() + 1);

  ExpectStoresEquivalent(h.store, h2.store);
  EXPECT_EQ(h2.store.statement_count(), h.store.statement_count());
  for (const QueryRecord& r : h.store.records()) {
    EXPECT_TRUE(h2.store.Get(r.id)->statement() == r.statement()) << r.id;
  }
  std::string primary_image, replayed_image;
  ASSERT_TRUE(EncodeSnapshotV2(h.store, 0, &primary_image).ok());
  ASSERT_TRUE(EncodeSnapshotV2(h2.store, 0, &replayed_image).ok());
  EXPECT_TRUE(primary_image == replayed_image);
}

TEST(RunStringSharingTest, ReplayedRunsHoldOneCopyOfEachString) {
  const std::string dir = TempPath("cqms_wal_run_strings");
  RemoveDurableFiles(dir);
  Harness h(30);
  {
    DurableStore durable(&h.store, dir);
    ASSERT_TRUE(durable.Open().ok());
    testing_util::LogRepeatedRuns(&h);
  }
  Harness replayed(30);
  DurableStore recovered(&replayed.store, dir);
  ASSERT_TRUE(recovered.Open().ok());
  ASSERT_EQ(replayed.store.size(), 16u);
  const testing_util::SharedRepeats repeats =
      testing_util::ExpectOneCopyPerRepeatedString(replayed.store);
  EXPECT_EQ(repeats.plans, 5u);
  EXPECT_EQ(repeats.errors, 8u);
  EXPECT_EQ(repeats.owners, 14u);
}

// A SetVisibility frame is logged only for a stored record. Replay and
// follower apply (both ApplyWalRecord) reject one naming a later id as
// corruption instead of resizing the visibility column.
TEST(WalTest, ForgedVisibilityIdIsCorruption) {
  QueryRecord record = BuildRecordFromText("SELECT 1", "alice", 1);
  record.id = 0;
  auto frame = [](uint64_t sequence, const std::string& op) {
    BinaryWriter w;
    w.PutVarint(sequence);
    return w.Take() + op;
  };
  for (QueryId id : {QueryId{0}, QueryId{1}, QueryId{1} << 40}) {
    const std::string path = TempPath("cqms_wal_forged_visibility");
    std::remove(path.c_str());
    {
      WalWriter wal;
      ASSERT_TRUE(wal.Open(path).ok());
      ASSERT_TRUE(wal.Append(frame(1, wal::EncodeAppend(record))).ok());
      ASSERT_TRUE(wal.Append(frame(2, wal::EncodeSetVisibility(
                                          id, Visibility::kPrivate)))
                      .ok());
    }
    QueryStore store;
    WalReplayStats stats;
    const Status replay = ReplayWal(path, &store, &stats);
    QueryStore follower;
    follower.Append(BuildRecordFromText("SELECT 1", "alice", 1));
    const std::string op = wal::EncodeSetVisibility(id, Visibility::kPrivate);
    BinaryReader r(op);
    const Status applied = ApplyWalRecord(&r, &follower, "replication stream");
    if (id == 0) {
      ASSERT_TRUE(replay.ok()) << replay;
      ASSERT_TRUE(applied.ok()) << applied;
      EXPECT_EQ(store.acl().GetVisibility(0), Visibility::kPrivate);
      EXPECT_EQ(follower.acl().GetVisibility(0), Visibility::kPrivate);
    } else {
      EXPECT_EQ(replay.code(), StatusCode::kCorruption) << "id " << id;
      EXPECT_EQ(applied.code(), StatusCode::kCorruption) << "id " << id;
    }
    std::remove(path.c_str());
  }
}

// The WAL's op decoders trust a count as far as the bytes behind it,
// like the snapshot's: a forged count spliced anywhere into any op must
// not make the decode allocate more than the bytes present (AddUser
// reserved 32 bytes per claimed group).
TEST(WalTest, ForgedCountsAllocateOnlyWhatTheBytesHold) {
  QueryRecord record = BuildRecordFromText(
      "SELECT lake, temp FROM WaterTemp WHERE temp < 18", "alice", 1);
  record.id = 1;
  Annotation note;
  note.author = "bob";
  note.text = "calibrated";
  note.fragment = "temp < 18";
  const std::vector<std::string> ops = {
      wal::EncodeAppend(record),
      wal::EncodeRewrite(0, record.text, record.statement().signature),
      wal::EncodeAnnotate(0, note),
      wal::EncodeAddUser("alice", {"lakes", "oceans"}),
      wal::EncodeSetVisibility(0, Visibility::kPrivate),
  };
  const std::string tail = ForgedCountTail();
  size_t applies = 0;
  for (const std::string& op : ops) {
    for (size_t at = 0; at <= op.size(); ++at) {
      const std::string hostile = op.substr(0, at) + tail;
      QueryStore store;
      store.Append(BuildRecordFromText("SELECT 1", "alice", 1));
      const size_t largest = LargestAllocationDuring([&] {
        BinaryReader r(hostile);
        (void)ApplyWalRecord(&r, &store, "forged");
      });
      ++applies;
      ASSERT_LE(largest, 2 * kForgedCount)
          << "op " << int{static_cast<uint8_t>(op[0])} << " at byte " << at;
    }
  }
  EXPECT_GT(applies, 100u);
}

// Recovery reads the newest snapshot once: it verifies and decodes
// the same bytes.
TEST(DurableStoreTest, OpenReadsTheNewestSnapshotOnce) {
  FaultInjectingEnv env;
  DurabilityOptions options;
  options.env = &env;
  QueryStore saved;
  {
    DurableStore durable(&saved, "/db", options);
    ASSERT_TRUE(durable.Open().ok());
    BuildCompatLog(&saved);
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  env.Recover(/*power_loss=*/false);
  QueryStore loaded;
  DurableStore recovered(&loaded, "/db", options);
  ASSERT_TRUE(recovered.Open().ok());
  size_t reads = 0;
  for (const FaultEnvOp& op : env.op_trace()) {
    if (op.op == "read" && op.path == "/db/snapshot.cqms") ++reads;
  }
  EXPECT_EQ(reads, 1u);
  ExpectStoresEquivalent(saved, loaded);
}

TEST(WalTest, TornInitialHeaderRecoversToEmpty) {
  std::string dir = TempPath("cqms_wal_torn_header");
  ::mkdir(dir.c_str(), 0755);
  RemoveDurableFiles(dir);
  // The process died while writing the very first WAL header: only a
  // prefix of the magic ever landed.
  WriteFile(dir + "/wal.log", "CQMSW");

  Harness h;
  DurableStore durable(&h.store, dir);
  ASSERT_TRUE(durable.Open().ok());
  EXPECT_EQ(durable.replay_stats().records_applied, 0u);
  EXPECT_EQ(durable.replay_stats().torn_bytes, 5u);
  // And the log is writable again.
  h.Log("alice", "SELECT 1");
  EXPECT_EQ(durable.wal_records(), 1u);

  // A short file that is NOT a header prefix is foreign: refuse.
  WriteFile(dir + "/wal.log", "NOTAWAL");
  Harness h2;
  DurableStore foreign(&h2.store, dir);
  EXPECT_EQ(foreign.Open().code(), StatusCode::kCorruption);
}

// ---- The WAL read window ---------------------------------------------------
// ReplayWal (restart) and ScanWalFrames (follower catch-up) read a log
// through a window of 1 MiB, and read a larger frame whole. These tests
// hold them to the whole-buffer oracle in wal_reference.h where a frame,
// a frame header or damage straddles a window's edge.

constexpr uint64_t kReadWindow = uint64_t{1} << 20;

/// Forwards to `base`, recording the largest positional read.
class ReadCountingEnv : public Env {
 public:
  explicit ReadCountingEnv(Env* base) : base_(base) {}

  size_t max_read() const { return max_read_; }

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    std::unique_ptr<RandomAccessFile> base;
    CQMS_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, &base));
    *file = std::make_unique<File>(std::move(base), &max_read_);
    return Status::Ok();
  }
  Status NewWritableFile(const std::string& path, WriteMode mode,
                         std::unique_ptr<WritableFile>* file) override {
    return base_->NewWritableFile(path, mode, file);
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
  class File : public RandomAccessFile {
   public:
    File(std::unique_ptr<RandomAccessFile> base, size_t* max_read)
        : base_(std::move(base)), max_read_(max_read) {}
    Status Size(uint64_t* size) override { return base_->Size(size); }
    Status Read(uint64_t offset, size_t n, std::string* out) override {
      *max_read_ = std::max(*max_read_, n);
      return base_->Read(offset, n, out);
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    size_t* max_read_;
  };

  Env* base_;
  size_t max_read_ = 0;
};

/// Creates `path` on `env` with `bytes` as its flushed content.
void PutFile(FaultInjectingEnv* env, const std::string& path,
             const std::string& bytes) {
  ASSERT_TRUE(env->CreateDirIfMissing(DirnameOf(path)).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(
      env->NewWritableFile(path, Env::WriteMode::kTruncate, &file).ok());
  ASSERT_TRUE(file->Append(bytes).ok());
  ASSERT_TRUE(file->Flush().ok());
}

/// One frame of a log: where it starts and its size, header included.
struct FrameSpan {
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// A log written through a durable store, with its frames' places and
/// an encoding of the store that wrote it.
struct WindowedLog {
  std::string bytes;
  std::string image;
  std::vector<FrameSpan> frames;
  FrameSpan largest;
};

/// Runs `write`, which mutates `store`, with a durable store logging it
/// to an in-memory disk, and returns the log it wrote, the log's frames
/// and an encoding of `store`.
WindowedLog* CaptureWalLog(QueryStore* store,
                           const std::function<void()>& write) {
  FaultInjectingEnv env;
  DurabilityOptions options;
  options.env = &env;
  {
    DurableStore durable(store, "/db", options);
    EXPECT_TRUE(durable.Open().ok());
    write();
  }
  auto* out = new WindowedLog;
  EXPECT_TRUE(env.ReadBack("/db/wal.log", &out->bytes).ok());
  EXPECT_TRUE(EncodeSnapshotV2(*store, 0, &out->image).ok());
  for (uint64_t pos = testing_util::kWalHeaderSize;
       pos + testing_util::kWalFrameOverhead <= out->bytes.size();) {
    BinaryReader len(std::string_view(out->bytes).substr(pos, 4));
    FrameSpan frame{pos, testing_util::kWalFrameOverhead + len.GetFixed32()};
    if (frame.size > out->largest.size) out->largest = frame;
    out->frames.push_back(frame);
    pos += frame.size;
  }
  return out;
}

/// More than 3 MiB: a seeded 40-user lab log of 800 sessions (1.4 MiB),
/// a note larger than the read window, then 150 more sessions.
const WindowedLog& BigWalLog() {
  static const WindowedLog* log = [] {
    Harness h(30);
    return CaptureWalLog(&h.store, [&] {
      workload::WorkloadOptions w;
      w.num_users = 40;
      w.num_groups = 5;
      w.num_sessions = 800;
      w.seed = 7;
      workload::RegisterUsers(&h.store, w);
      workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, w);
      Annotation note;
      note.author = "user1";
      note.timestamp = 1;
      note.text = std::string(kReadWindow + kReadWindow / 2, 'n');
      EXPECT_TRUE(h.store.Annotate(3, note).ok());
      w.num_sessions = 150;
      w.seed = 8;
      workload::GenerateLog(h.profiler.get(), &h.store, &h.clock, w);
    });
  }();
  return *log;
}

/// About 1.25 MiB in about a hundred frames whose bytes are fixed (no
/// timers, unlike a profiled log), so a replay is cheap and a mutant
/// reproduces: every op of the compatibility log, then notes of 100 KiB,
/// 1,050 KiB (larger than the window) and 50 KiB, each followed by eight
/// appends.
const WindowedLog& FuzzWalLog() {
  static const WindowedLog* log = [] {
    QueryStore store;
    return CaptureWalLog(&store, [&] {
      BuildCompatLog(&store);
      for (const size_t kib : {100, 1050, 50}) {
        Annotation note;
        note.author = "carol";
        note.timestamp = static_cast<Micros>(kib);
        note.text = std::string(kib << 10, 'n');
        EXPECT_TRUE(store.Annotate(2, note).ok());
        for (int i = 0; i < 8; ++i) {
          QueryRecord r = BuildRecordFromText(
              "SELECT temp FROM WaterTemp WHERE temp < " +
                  std::to_string(kib + i),
              "alice", 3'000'000'000 + int64_t{i});
          r.stats.execution_micros = 100 + i;
          store.Append(std::move(r));
        }
      }
    });
  }();
  return *log;
}

/// The most any single read of a log may ask for.
uint64_t ReadBound(const WindowedLog& log) {
  return std::max(kReadWindow, log.largest.size);
}

/// A frame of exactly `size` bytes, header included, that annotates
/// query 0: filler that moves the frames behind it. The author name
/// takes one more byte when the text's length prefix grows a byte
/// (at 128), so every size from the smallest frame up can be built.
std::string FillerFrame(uint64_t size) {
  for (uint64_t text = size; text-- > 0;) {
    for (const char* author : {"filler", "fillerx"}) {
      Annotation note;
      note.author = author;
      note.text = std::string(text, 'f');
      BinaryWriter payload;
      payload.PutVarint(1);  // sequence
      std::string p = payload.Take() + wal::EncodeAnnotate(0, note);
      if (p.size() + testing_util::kWalFrameOverhead != size) continue;
      BinaryWriter frame;
      frame.PutFixed32(static_cast<uint32_t>(p.size()));
      frame.PutFixed32(Crc32(p));
      return frame.Take() + p;
    }
  }
  ADD_FAILURE() << "no filler frame of " << size << " bytes";
  return "";
}

/// The big log with a filler frame inserted so that a frame of at least
/// `min_size` bytes starts `before` bytes ahead of `boundary`, and so
/// straddles it.
std::string StraddleAt(uint64_t boundary, uint64_t before,
                       uint64_t min_size) {
  const WindowedLog& log = BigWalLog();
  const uint64_t start = boundary - before;
  for (size_t i = log.frames.size(); i-- > 0;) {
    const FrameSpan& f = log.frames[i];
    if (f.offset + 64 > start || f.size < min_size) continue;
    return log.bytes.substr(0, f.offset) + FillerFrame(start - f.offset) +
           log.bytes.substr(f.offset);
  }
  ADD_FAILURE() << "no frame to move across " << boundary;
  return log.bytes;
}

/// What one replay into an empty store left: status, stats, and the
/// store's snapshot encoding.
struct ReplayOutcome {
  Status status;
  WalReplayStats stats;
  std::string image;
};

ReplayOutcome WindowedReplay(Env* env, const std::string& path,
                             uint64_t min_sequence = 0) {
  ReplayOutcome out;
  QueryStore store;
  out.status = ReplayWal(path, &store, &out.stats, min_sequence, env);
  EXPECT_TRUE(EncodeSnapshotV2(store, 0, &out.image).ok());
  return out;
}

ReplayOutcome ReferenceReplay(const std::string& bytes, const std::string& path,
                              uint64_t min_sequence = 0) {
  ReplayOutcome out;
  QueryStore store;
  out.status = testing_util::ReferenceReplayWal(bytes, path, &store,
                                                &out.stats, min_sequence);
  EXPECT_TRUE(EncodeSnapshotV2(store, 0, &out.image).ok());
  return out;
}

void ExpectSameStats(const WalReplayStats& got, const WalReplayStats& want) {
  EXPECT_EQ(got.records_applied, want.records_applied);
  EXPECT_EQ(got.records_skipped, want.records_skipped);
  EXPECT_EQ(got.max_sequence, want.max_sequence);
  EXPECT_EQ(got.min_sequence, want.min_sequence);
  EXPECT_EQ(got.bytes_valid, want.bytes_valid);
  EXPECT_EQ(got.torn_bytes, want.torn_bytes);
}

void ExpectSameOutcome(const ReplayOutcome& got, const ReplayOutcome& want) {
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.status.message(), want.status.message());
  ExpectSameStats(got.stats, want.stats);
  EXPECT_TRUE(got.image == want.image) << "stores differ";
}

/// Scans the log at `path` and checks each frame against the oracle's
/// scan of `bytes`: same status, and the same (sequence, payload) list.
void ExpectScanMatchesReference(Env* env, const std::string& path,
                                const std::string& bytes) {
  std::vector<std::pair<uint64_t, std::string_view>> want;
  const Status want_status =
      testing_util::ReferenceScanWalFrames(bytes, path, &want);
  size_t scanned = 0;
  size_t mismatches = 0;
  const Status got_status =
      ScanWalFrames(path, env, [&](uint64_t sequence, std::string_view frame) {
        if (scanned >= want.size() ||
            want[scanned] != std::make_pair(sequence, frame)) {
          ++mismatches;
        }
        ++scanned;
        return true;
      });
  EXPECT_EQ(got_status.code(), want_status.code());
  EXPECT_EQ(got_status.message(), want_status.message());
  EXPECT_EQ(scanned, want.size());
  EXPECT_EQ(mismatches, 0u);
}

TEST(WalWindowTest, ReplayReadsThroughABoundedWindow) {
  const WindowedLog& log = BigWalLog();
  ASSERT_GE(log.bytes.size(), 3 * kReadWindow);
  ASSERT_GT(log.largest.size, kReadWindow);
  FaultInjectingEnv disk;
  PutFile(&disk, "/db/wal.log", log.bytes);
  ReadCountingEnv env(&disk);

  const ReplayOutcome got = WindowedReplay(&env, "/db/wal.log");
  ASSERT_TRUE(got.status.ok()) << got.status;
  EXPECT_EQ(got.stats.records_applied, log.frames.size());
  EXPECT_EQ(got.stats.torn_bytes, 0u);
  EXPECT_TRUE(got.image == log.image) << "replayed store differs";
  ExpectSameOutcome(got, ReferenceReplay(log.bytes, "/db/wal.log"));
  // The frame larger than the window was read whole, on its own; every
  // other read was at most a window.
  EXPECT_EQ(env.max_read(), ReadBound(log));
}

TEST(WalWindowTest, DamageAcrossAWindowEdgeMatchesTheWholeBufferReplay) {
  const WindowedLog& log = BigWalLog();
  const uint64_t edge = kReadWindow;  // the first window's end
  struct Case {
    const char* name;
    std::string bytes;
    bool damaged;
  };
  std::vector<Case> cases;
  // A frame 16 bytes before the edge, cut 8 bytes past it.
  cases.push_back({"torn frame", StraddleAt(edge, 16, 64), true});
  cases.back().bytes.resize(edge + 8);
  // The same frame, one payload byte past the edge flipped.
  cases.push_back({"crc flip", StraddleAt(edge, 16, 64), true});
  cases.back().bytes[edge + 4] ^= 0x10;
  // A frame header split 3 / 5 bytes by the edge, intact and then cut.
  cases.push_back({"split header", StraddleAt(edge, 3, 16), false});
  cases.push_back({"short header", StraddleAt(edge, 3, 16), true});
  cases.back().bytes.resize(edge + 2);
  // The frame larger than the window, cut halfway.
  cases.push_back({"torn large frame",
                   log.bytes.substr(0, log.largest.offset + log.largest.size / 2),
                   true});

  FaultInjectingEnv disk;
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    const std::string dir = "/case" + std::to_string(i);
    const std::string path = dir + "/wal.log";
    PutFile(&disk, path, cases[i].bytes);
    const ReplayOutcome want = ReferenceReplay(cases[i].bytes, path);
    ASSERT_TRUE(want.status.ok()) << want.status;
    EXPECT_EQ(want.stats.torn_bytes > 0, cases[i].damaged);

    // Restart on the damaged log: Open replays it and cuts the torn tail.
    ReadCountingEnv env(&disk);
    DurabilityOptions options;
    options.env = &env;
    QueryStore store;
    DurableStore durable(&store, dir, options);
    ASSERT_TRUE(durable.Open().ok());
    ExpectSameStats(durable.replay_stats(), want.stats);
    uint64_t size = 0;
    ASSERT_TRUE(disk.GetFileSize(path, &size).ok());
    EXPECT_EQ(size, want.stats.bytes_valid);
    std::string image;
    ASSERT_TRUE(EncodeSnapshotV2(store, 0, &image).ok());
    EXPECT_TRUE(image == want.image) << "stores differ";
    EXPECT_LE(env.max_read(), ReadBound(log));
  }
}

TEST(WalWindowTest, ScanYieldsTheWholeBufferFramesAndStopsWhenAsked) {
  const WindowedLog& log = BigWalLog();
  const std::string path = "/db/wal.log";
  FaultInjectingEnv disk;
  PutFile(&disk, path, log.bytes);
  ReadCountingEnv env(&disk);

  ExpectScanMatchesReference(&env, path, log.bytes);
  EXPECT_EQ(env.max_read(), ReadBound(log));

  // The scan stops at the first false.
  const size_t frames = log.frames.size();
  for (const size_t stop_at : {size_t{1}, frames / 2, frames}) {
    size_t calls = 0;
    ASSERT_TRUE(ScanWalFrames(path, &env,
                              [&](uint64_t, std::string_view) {
                                return ++calls < stop_at;
                              })
                    .ok());
    EXPECT_EQ(calls, stop_at);
  }
}

TEST(WalWindowTest, VersionTwoHeaderFailsReplayAndScan) {
  const std::string path = "/db/wal.log";
  std::string bytes = FuzzWalLog().bytes.substr(0, 4096);
  bytes[8] = 2;  // the little-endian version field
  FaultInjectingEnv disk;
  PutFile(&disk, path, bytes);

  const ReplayOutcome got = WindowedReplay(&disk, path);
  EXPECT_EQ(got.status.code(), StatusCode::kIoError);
  EXPECT_EQ(got.status.message(), "unsupported WAL version 2: " + path);
  ExpectSameOutcome(got, ReferenceReplay(bytes, path));
  size_t frames = 0;
  const Status scan = ScanWalFrames(path, &disk, [&](uint64_t, std::string_view) {
    ++frames;
    return true;
  });
  EXPECT_EQ(scan.code(), StatusCode::kIoError);
  EXPECT_EQ(scan.message(), got.status.message());
  EXPECT_EQ(frames, 0u);
}

// Seeded byte-mutation fuzz of WAL replay over a multi-window log of
// every WAL op: flipped bytes, payload edits with a recomputed CRC (so
// the record decoders see them), cuts at random offsets and around
// window edges,
// and forged length and CRC fields. A quarter of the replays treat a
// prefix of the log as covered by a snapshot. Every replay must end in
// OK or a typed error and match the whole-buffer oracle exactly: status
// code and message, stats and the replayed store. So must every scan.
// CI runs this suite under ASan/UBSan.
TEST(WalTest, SeededMutationFuzzMatchesTheWholeBufferReplay) {
  const WindowedLog& log = FuzzWalLog();
  ASSERT_GT(log.largest.size, kReadWindow);
  const std::string path = "/fuzz/wal.log";
  constexpr size_t kMutants = 120;
  Rng rng(0x57414c46);
  FaultInjectingEnv disk;
  std::map<StatusCode, size_t> outcomes;
  size_t torn = 0;
  for (size_t i = 0; i < kMutants; ++i) {
    std::string m = log.bytes;
    const FrameSpan& f = log.frames[rng.Uniform(log.frames.size())];
    auto set_fixed32 = [&](uint64_t at, uint32_t v) {
      BinaryWriter w;
      w.PutFixed32(v);
      m.replace(at, 4, w.data());
    };
    auto fix_crc = [&](uint64_t len) {
      set_fixed32(f.offset + 4,
                  Crc32(std::string_view(m).substr(f.offset + 8, len)));
    };
    const uint64_t rest = m.size() - f.offset - testing_util::kWalFrameOverhead;
    const uint64_t kind = rng.Uniform(7);
    SCOPED_TRACE("mutant " + std::to_string(i) + " kind " +
                 std::to_string(kind));
    switch (kind) {
      case 0:  // flip a bit anywhere, header included
        m[rng.Uniform(m.size())] ^= static_cast<char>(1u << rng.Uniform(8));
        break;
      case 1: {  // edit a payload byte; the CRC still vouches for it
        m[f.offset + 8 + rng.Uniform(f.size - 8)] =
            static_cast<char>(rng.Uniform(256));
        fix_crc(f.size - 8);
        break;
      }
      case 2:  // cut anywhere
        m.resize(rng.Uniform(m.size() + 1));
        break;
      case 3: {  // cut just around the first window's end, or the frame
                 // larger than the window, which is read on its own
        const uint64_t edges[] = {kReadWindow, log.largest.offset,
                                  log.largest.offset + log.largest.size};
        m.resize(std::min<uint64_t>(
            m.size(), edges[rng.Uniform(3)] - 9 + rng.Uniform(19)));
        break;
      }
      case 4: {  // forge the length: 0, huge, one past the end, or random
        const uint32_t lens[] = {0, 0xFFFFFFFFu,
                                 static_cast<uint32_t>(rest + 1),
                                 static_cast<uint32_t>(rng.Uniform(rest + 1))};
        set_fixed32(f.offset, lens[rng.Uniform(4)]);
        break;
      }
      case 5: {  // forge the length within the log and re-sign the span
        const uint64_t len = rng.Uniform(std::min<uint64_t>(rest, 4096) + 1);
        set_fixed32(f.offset, static_cast<uint32_t>(len));
        fix_crc(len);
        break;
      }
      default:  // forge the CRC
        set_fixed32(f.offset + 4, rng.Bernoulli(0.5)
                                      ? 0u
                                      : static_cast<uint32_t>(rng.Next()));
        break;
    }
    PutFile(&disk, path, m);
    const uint64_t covered =
        rng.Bernoulli(0.25) ? rng.Uniform(log.frames.size()) : 0;
    const ReplayOutcome got = WindowedReplay(&disk, path, covered);
    ExpectSameOutcome(got, ReferenceReplay(m, path, covered));
    EXPECT_NE(got.status.code(), StatusCode::kInternal) << got.status;
    ++outcomes[got.status.code()];
    if (got.stats.torn_bytes > 0) ++torn;

    ExpectScanMatchesReference(&disk, path, m);
  }
  // The mutations reached every outcome: clean replays, torn tails, and
  // failures typed by the frame and record decoders.
  EXPECT_GT(outcomes[StatusCode::kOk], 0u);
  EXPECT_GT(outcomes[StatusCode::kCorruption], 0u);
  EXPECT_GT(torn, 0u);
}

TEST(MigrationTest, V1SnapshotLoadsAndCheckpointsToV2) {
  std::string dir = TempPath("cqms_migrate");
  ::mkdir(dir.c_str(), 0755);
  RemoveDurableFiles(dir);

  Harness h;
  QueryId a = h.Log("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
  ASSERT_TRUE(h.store.SetQuality(a, 0.75).ok());
  // A legacy deployment saved the v1 text format at this path.
  DurableStore layout(&h.store, dir);  // path helper only; never opened
  ASSERT_TRUE(SaveSnapshot(h.store, layout.snapshot_path()).ok());
  ASSERT_TRUE(ReadFile(layout.snapshot_path()).rfind("CQMS-SNAPSHOT", 0) == 0);

  // Open dispatches on the header and re-profiles the v1 text...
  Harness h2;
  DurableStore migrated(&h2.store, dir);
  ASSERT_TRUE(migrated.Open().ok());
  ExpectStoresEquivalent(h.store, h2.store, /*expect_output_rows=*/false);

  // ...and the first checkpoint upgrades the file to v2 in place.
  ASSERT_TRUE(migrated.Checkpoint().ok());
  EXPECT_EQ(ReadFile(migrated.snapshot_path()).substr(0, 8), "CQMSNAP2");
  uint64_t parses_before = sql::ParseCallCount();
  Harness h3;
  DurableStore reopened(&h3.store, dir);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(sql::ParseCallCount() - parses_before, 0u);  // binary now
  ExpectStoresEquivalent(h.store, h3.store, /*expect_output_rows=*/false);
}

TEST(DurableFacadeTest, MaintenanceCheckpointsWhenWalCrossesThreshold) {
  std::string dir = TempPath("cqms_facade_dur");
  RemoveDurableFiles(dir);

  SimulatedClock clock{1'000'000};
  CqmsOptions options;
  options.clock = &clock;
  storage::DurabilityOptions durability;
  durability.checkpoint_wal_records = 3;  // checkpoint almost immediately

  {
    Cqms system(options);
    ASSERT_TRUE(
        workload::PopulateLakeDatabase(system.database(), 50).ok());
    ASSERT_TRUE(system.EnableDurability(dir, durability).ok());
    system.RegisterUser("alice", {"oceans"});
    system.Execute("alice", "SELECT temp FROM WaterTemp WHERE temp < 18");
    system.Execute("alice", "SELECT * FROM CityLocations");
    auto report = system.RunMaintenance();
    EXPECT_TRUE(report.checkpointed);
    ASSERT_NE(system.durable(), nullptr);
    EXPECT_EQ(system.durable()->wal_records(), 0u);
    EXPECT_EQ(ReadFile(dir + "/snapshot.cqms").substr(0, 8), "CQMSNAP2");
  }

  // Cold restart: snapshot + (empty) WAL bring everything back.
  Cqms restarted(options);
  ASSERT_TRUE(
      workload::PopulateLakeDatabase(restarted.database(), 50).ok());
  ASSERT_TRUE(restarted.EnableDurability(dir, durability).ok());
  EXPECT_EQ(restarted.store()->size(), 2u);
  EXPECT_EQ(restarted.store()->Get(0)->user, "alice");
  EXPECT_TRUE(restarted.store()->acl().HasUser("alice"));
}


// --- Restore without holding the image --------------------------------------

/// One framed section of a v2 image: its id and where its payload
/// lies; its CRC follows `end`.
struct SectionSpan {
  uint8_t id = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// The sections of a CRC-clean v2 image, in file order.
std::vector<SectionSpan> SectionsOf(std::string_view image) {
  std::vector<SectionSpan> sections;
  size_t pos = 8 + 4;  // magic and version
  while (pos + 9 <= image.size()) {
    SectionSpan span;
    span.id = static_cast<uint8_t>(image[pos]);
    BinaryReader length(image.substr(pos + 1, 8));
    span.begin = pos + 9;
    span.end = span.begin + length.GetFixed64();
    sections.push_back(span);
    pos = span.end + 4;
    if (span.id == 0xFF) break;
  }
  return sections;
}

/// A log of `records` runs over 40 statements, each run holding its
/// statement's plan, built without re-deriving a statement per run.
void BuildLargeLog(QueryStore* store, size_t records) {
  store->acl().AddUser("alice", {"lab"});
  store->acl().AddUser("bob", {"lab"});
  for (size_t i = 0; i < records; ++i) {
    const size_t k = i % 40;
    QueryRecord r = store->RecordForText(
        "SELECT c" + std::to_string(k) + " FROM t" + std::to_string(k % 7) +
            " WHERE c" + std::to_string(k) + " > " + std::to_string(k),
        i % 3 == 0 ? "alice" : "bob", static_cast<Micros>(i + 1),
        StatementPath::kLogOnly);
    r.stats.plan = "Scan t" + std::to_string(k % 7);
    store->Append(std::move(r));
  }
}

// The decoder reports how far it has read: offsets that rise from call
// to call, some inside the records section, one at its end (its CRC
// included) and the last at the end of the image.
TEST(SnapshotV2Test, DecodeReportsRisingConsumedOffsets) {
  QueryStore built;
  BuildLargeLog(&built, 9000);
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(built, 0, &image).ok());
  SectionSpan records;
  for (const SectionSpan& span : SectionsOf(image)) {
    if (span.id == 3) records = span;
  }
  ASSERT_GT(records.end, records.begin);

  std::vector<size_t> offsets;
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshotFromString(
                  &loaded, image, "offsets", nullptr,
                  [&offsets](size_t consumed) { offsets.push_back(consumed); })
                  .ok());
  ASSERT_FALSE(offsets.empty());
  for (size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_LT(offsets[i - 1], offsets[i]) << "report " << i;
  }
  size_t inside = 0;
  for (size_t offset : offsets) {
    if (offset > records.begin && offset <= records.end) ++inside;
  }
  EXPECT_GE(inside, 2u);  // 9,000 records: two strides of 4,096
  EXPECT_NE(std::find(offsets.begin(), offsets.end(), records.end + 4),
            offsets.end());
  EXPECT_EQ(offsets.back(), image.size());
  EXPECT_EQ(loaded.size(), 9000u);
}

// No released byte is read: overwriting each reported range with
// garbage the moment it is reported leaves a load equal to a plain one,
// field for field and byte for byte, for a format-4 image and for the
// format-3 fixture.
TEST(SnapshotV2Test, DecodeNeverReadsReleasedBytes) {
  QueryStore built;
  BuildLargeLog(&built, 9000);
  BuildCompatLog(&built);
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(built, 0, &image).ok());
  for (const std::string& saved : {image, V3FixtureImage()}) {
    SCOPED_TRACE("format " + std::to_string(int{saved[8]}));
    QueryStore plain;
    ASSERT_TRUE(LoadSnapshotFromString(&plain, saved, "plain").ok());

    std::string buffer = saved;
    size_t released = 0;
    QueryStore garbled;
    ASSERT_TRUE(LoadSnapshotFromString(
                    &garbled, buffer, "garbled", nullptr,
                    [&buffer, &released](size_t consumed) {
                      std::fill(buffer.begin() + released,
                                buffer.begin() + consumed, '\xA5');
                      released = consumed;
                    })
                    .ok());
    EXPECT_EQ(released, saved.size());
    ExpectStoresEquivalent(plain, garbled);
    std::string from_plain, from_garbled;
    ASSERT_TRUE(EncodeSnapshotV2(plain, 0, &from_plain).ok());
    ASSERT_TRUE(EncodeSnapshotV2(garbled, 0, &from_garbled).ok());
    EXPECT_TRUE(from_plain == from_garbled)
        << "the load that saw garbage encodes differently";
  }
}

// A format-4 restore shares each statement entry's error and plan once,
// while the statement table decodes; its records copy the entry and
// look nothing up. Three statements of ten identical runs each (one run
// outcome per statement, so one entry each) hold three plans and one
// error: four lookups, not one per record's string.
TEST(RunStringSharingTest, RestoreLooksUpEachEntryStringOnce) {
  QueryStore built;
  const std::string texts[] = {"SELECT temp FROM WaterTemp WHERE temp < 18",
                               "SELECT * FROM CityLocations",
                               "SELECT nope FROM Missing"};
  for (int i = 0; i < 30; ++i) {
    QueryRecord r = BuildRecordFromText(texts[i % 3], i % 2 == 0 ? "alice"
                                                                 : "bob",
                                        1'000'000 + int64_t{i});
    r.stats.plan = "Scan " + std::to_string(i % 3);
    if (i % 3 == 2) {
      r.stats.succeeded = false;
      r.stats.error = "no such table: Missing";
    }
    built.Append(std::move(r));
  }
  std::string image;
  ASSERT_TRUE(EncodeSnapshotV2(built, 0, &image).ok());
  QueryStore loaded;
  ASSERT_TRUE(LoadSnapshotV2FromString(&loaded, image, "lookups").ok());
  EXPECT_EQ(loaded.run_string_lookups(), 4u);
  testing_util::ExpectOneCopyPerRepeatedString(loaded);

  // In general: at most the entries' two strings each.
  QueryStore compat;
  BuildCompatLog(&compat);
  std::string compat_image;
  ASSERT_TRUE(EncodeSnapshotV2(compat, 0, &compat_image).ok());
  uint64_t entries = 0;
  for (const SectionSpan& span : SectionsOf(compat_image)) {
    if (span.id != 5) continue;
    BinaryReader count(std::string_view(compat_image).substr(span.begin));
    entries = count.GetVarint();
  }
  ASSERT_GT(entries, 0u);
  QueryStore compat_loaded;
  ASSERT_TRUE(
      LoadSnapshotV2FromString(&compat_loaded, compat_image, "compat").ok());
  EXPECT_GT(compat_loaded.run_string_lookups(), 0u);
  EXPECT_LE(compat_loaded.run_string_lookups(), 2 * entries);
  EXPECT_LT(compat_loaded.run_string_lookups(), compat_loaded.size());
}

// The ACL a published view shares is copied on its next write, and the
// copy keeps the store's listeners: memberships and visibility set
// after a publish still reach the WAL, so a reopened store holds them.
TEST(DurableStoreTest, AclWritesAfterAPublishReachTheWal) {
  const std::string dir = TempPath("cqms_acl_after_publish");
  ::mkdir(dir.c_str(), 0755);
  RemoveDurableFiles(dir);
  QueryId id = 0;
  {
    QueryStore store;
    DurableStore durable(&store, dir);
    ASSERT_TRUE(durable.Open().ok());
    store.acl().AddUser("alice", {"lab"});
    id = store.Append(BuildRecordFromText("SELECT a FROM sensors", "alice", 1));
    store.EnableViews();
    store.acl().AddUser("bob", {"lab"});
    store.PublishView();
    ASSERT_TRUE(store.acl()
                    .SetVisibility(id, "alice", "alice", Visibility::kPrivate)
                    .ok());
    EXPECT_EQ(store.SharedView()->acl().GetVisibility(id),
              Visibility::kPrivate);
  }
  QueryStore reopened;
  DurableStore again(&reopened, dir);
  ASSERT_TRUE(again.Open().ok());
  EXPECT_TRUE(reopened.acl().HasUser("bob"));
  EXPECT_EQ(reopened.acl().GetVisibility(id), Visibility::kPrivate);
}

}  // namespace
}  // namespace cqms::storage
