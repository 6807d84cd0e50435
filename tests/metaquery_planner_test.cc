// Unified MetaQuery planner tests: (1) an equality suite asserting that
// every single-predicate request returns exactly the same results
// through the planner pipeline as the pre-planner reference
// implementations (metaquery_reference.h) on a seeded ~5k synthetic log,
// (2) combined-predicate
// requests checked against a brute-force filter-then-rank reference,
// (3) planner generator selection, (4) the executor-owned persistent
// VisibilityCache re-checking after ACL mutations, and (5) scoring-column
// coherence across every record mutation path (flags, quality, delete,
// rewrite, stats refresh).

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "metaquery/meta_query_executor.h"
#include "metaquery/meta_query_planner.h"
#include "metaquery_reference.h"
#include "storage/minhash.h"
#include "storage/record_builder.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace cqms::metaquery {
namespace {

using storage::QueryId;
using storage::QueryRecord;
using testing_util::Harness;

/// One shared ~5k-query synthetic log (generation dominates test time,
/// so all equality cases reuse it). Leaked intentionally.
Harness& BigLog() {
  static Harness* harness = [] {
    auto* h = new Harness();
    workload::WorkloadOptions options;
    options.num_sessions = 1001;  // ~5 queries/session -> >= 5000 queries
    options.seed = 123;
    workload::RegisterUsers(&h->store, options);
    workload::GenerateLog(h->profiler.get(), &h->store, &h->clock, options);
    return h;
  }();
  return *harness;
}

const char* kProbes[] = {
    "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T, WaterSalinity S "
    "WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
    "SELECT * FROM WaterTemp T WHERE T.temp < 14",
    "SELECT lake, AVG(temp) AS avg_temp, COUNT(*) AS n FROM WaterTemp "
    "WHERE temp > 6 GROUP BY lake",
    "SELECT city FROM CityLocations WHERE state = 'WA' AND pop > 300000",
    "SELECT R.ts, R.value FROM Sensors N, Readings R "
    "WHERE N.sensor_id = R.sensor_id AND N.kind = 'temp'",
};

const char* kViewers[] = {"user0", "user3", "user7"};

/// Exact equality: the planner and the references share the similarity
/// kernel and the ranking arithmetic.
void ExpectMatchesEqual(const std::vector<MetaQueryMatch>& got,
                        const std::vector<MetaQueryMatch>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

// --- equality suite: every meta-query class through the planner ----------

TEST(PlannerEqualityTest, KeywordMatchesLegacyOn5kLog) {
  Harness& h = BigLog();
  ASSERT_GE(h.store.size(), 5000u);
  MetaQueryExecutor executor(&h.store);
  const char* word_sets[] = {"salinity temp", "lake avg",  "watertemp",
                             "sensors",       "zzz_nohit", "city pop state"};
  for (const char* viewer : kViewers) {
    for (const char* words : word_sets) {
      for (bool match_all : {true, false}) {
        MetaQueryRequest request = LogOrderRequest();
        request.WithKeywords(words, match_all);
        EXPECT_EQ(executor.Execute(viewer, request).Ids(),
                  KeywordSearch(h.store, viewer, words, match_all))
            << viewer << " / " << words << " match_all=" << match_all;
      }
    }
  }
}

TEST(PlannerEqualityTest, SubstringMatchesBruteForceOn5kLog) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  const char* needles[] = {"GROUP BY lake", "temp <", "SaLiNiTy", "zzz", ""};
  for (const char* viewer : kViewers) {
    for (const char* needle : needles) {
      // Independent brute force straight off the record structs: the
      // planner and SubstringSearch both read the memoized lowered text,
      // so the reference must not.
      std::vector<QueryId> brute;
      if (*needle != '\0') {
        for (const QueryRecord& r : h.store.records()) {
          if (h.store.Visible(viewer, r.id) &&
              ContainsIgnoreCase(r.text, needle)) {
            brute.push_back(r.id);
          }
        }
      }
      EXPECT_EQ(
          executor.Execute(viewer, LogOrderRequest().WithSubstring(needle))
              .Ids(),
          brute)
          << viewer << " / '" << needle << "'";
      EXPECT_EQ(SubstringSearch(h.store, viewer, needle), brute)
          << viewer << " / '" << needle << "'";
    }
  }
}

TEST(PlannerEqualityTest, FeatureQueryMatchesLegacyOn5kLog) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  std::vector<FeatureQuery> queries;
  queries.emplace_back().UsesTable("WaterTemp");
  queries.emplace_back().UsesTable("WaterTemp").UsesTable("WaterSalinity");
  queries.emplace_back().HasPredicateOn("watertemp", "temp", "<");
  queries.emplace_back().UsesAttribute("citylocations", "state").ByUser("user2");
  queries.emplace_back().SucceededOnly().MaxResultRows(50);
  queries.emplace_back().UsesTable("NoSuchTable");
  for (const char* viewer : kViewers) {
    for (size_t i = 0; i < queries.size(); ++i) {
      MetaQueryRequest request = LogOrderRequest();
      request.WithFeature(queries[i]);
      EXPECT_EQ(executor.Execute(viewer, request).Ids(),
                EvaluateFeatureQuery(queries[i], h.store, viewer))
          << viewer << " / feature query " << i;
    }
  }
}

TEST(PlannerEqualityTest, StructuralMatchesLegacyOn5kLog) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  std::vector<StructuralPattern> patterns(4);
  patterns[0].min_joins = 1;
  patterns[1].required_aggregates = {"AVG"};
  patterns[1].requires_group_by = true;
  patterns[2].required_tables = {"watertemp"};
  patterns[2].forbidden_tables = {"watersalinity"};
  patterns[3].required_tables = {"sensors", "readings"};
  patterns[3].max_joins = 3;
  for (const char* viewer : kViewers) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      MetaQueryRequest request = LogOrderRequest();
      request.WithStructure(patterns[i]);
      EXPECT_EQ(executor.Execute(viewer, request).Ids(),
                StructuralSearch(h.store, viewer, patterns[i]))
          << viewer << " / pattern " << i;
    }
  }
}

TEST(PlannerEqualityTest, QueryByDataMatchesLegacyOn5kLog) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  std::vector<DataExample> examples;
  examples.push_back({{db::Value::String("Washington")}, true});
  examples.push_back({{db::Value::String("Union")}, false});
  QueryByDataOptions options;  // summaries only; no re-execution
  for (const char* viewer : kViewers) {
    MetaQueryRequest request = LogOrderRequest();
    request.WithData(examples, options);
    EXPECT_EQ(executor.Execute(viewer, request).Ids(),
              QueryByData(h.store, viewer, examples, options))
        << viewer;
  }
}

TEST(PlannerEqualityTest, KnnMatchesReferenceOn5kLog) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  for (const char* viewer : kViewers) {
    for (const char* text : kProbes) {
      QueryRecord probe = storage::BuildRecordFromText(
          text, viewer, 0, storage::SignatureMode::kTransient);
      ASSERT_FALSE(probe.parse_failed()) << text;
      for (size_t k : {1u, 10u, 50u}) {
        std::string label = std::string(viewer) + " / k=" +
                            std::to_string(k) + " / " + text;
        ExpectMatchesEqual(
            executor.Execute(viewer, KnnRequest(probe, k)).matches,
            KnnSearchReference(h.store, viewer, probe, k), label);
      }
    }
  }
}

TEST(PlannerEqualityTest, KnnExhaustivePathMatchesReference) {
  Harness& h = BigLog();
  CandidateOptions exhaustive;
  exhaustive.use_lsh = false;
  QueryRecord probe = storage::BuildRecordFromText(
      kProbes[0], "user0", 0, storage::SignatureMode::kTransient);
  ExpectMatchesEqual(
      MetaQueryPlanner(&h.store)
          .Execute("user0", KnnRequest(probe, 25, {}, exhaustive))
          .matches,
      KnnSearchReference(h.store, "user0", probe, 25, {}, {}, exhaustive),
      "exhaustive");
}

// --- combined predicates vs brute-force filter-then-rank -----------------

TEST(CombinedRequestTest, KeywordTableSimilarityMatchesBruteForce) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  const std::string viewer = "user1";
  QueryRecord probe = storage::BuildRecordFromText(
      kProbes[0], viewer, 0, storage::SignatureMode::kTransient);
  ASSERT_FALSE(probe.parse_failed());

  MetaQueryRequest request;
  FeatureQuery feature;
  feature.UsesTable("WaterTemp");
  RankingOptions ranking;
  ranking.w_popularity = 0.25;  // "ranked by popularity" flavor
  request.WithKeywords("salinity")
      .WithFeature(feature)
      .SimilarTo(probe)
      .RankedBy(ranking)
      .Limit(20);
  MetaQueryResponse response = executor.Execute(viewer, request);
  EXPECT_EQ(response.generator, CandidateGenerator::kPostingIntersection);

  // Brute force from the record structs, no planner machinery.
  Micros max_ts = std::max<Micros>(1, h.store.max_timestamp());
  double inv_log_size =
      1.0 / std::log1p(static_cast<double>(h.store.size()) + 1.0);
  std::vector<MetaQueryMatch> brute;
  for (const QueryRecord& r : h.store.records()) {
    if (!h.store.Visible(viewer, r.id)) continue;
    if (r.HasFlag(storage::kFlagSchemaBroken) ||
        r.HasFlag(storage::kFlagObsolete)) {
      continue;
    }
    std::vector<std::string> tokens = ExtractWords(r.text);
    if (std::find(tokens.begin(), tokens.end(), "salinity") == tokens.end()) {
      continue;
    }
    if (r.parse_failed() ||
        std::find(r.components->tables.begin(), r.components->tables.end(),
                  "watertemp") == r.components->tables.end()) {
      continue;
    }
    double sim = CombinedSimilarity(probe, r);
    if (sim < ranking.min_similarity) continue;
    double popularity =
        std::log1p(static_cast<double>(h.store.PopularityOf(r.fingerprint))) *
        inv_log_size;
    double recency = static_cast<double>(r.timestamp) /
                     static_cast<double>(max_ts);
    double score = ranking.w_similarity * sim +
                   ranking.w_popularity * popularity +
                   ranking.w_quality * r.quality + ranking.w_recency * recency;
    brute.push_back({r.id, sim, score});
  }
  std::sort(brute.begin(), brute.end(),
            [](const MetaQueryMatch& a, const MetaQueryMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (brute.size() > 20) brute.resize(20);

  ASSERT_EQ(response.matches.size(), brute.size());
  ASSERT_FALSE(response.matches.empty())
      << "combined request unexpectedly selective — fixture drifted?";
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(response.matches[i].id, brute[i].id) << "rank " << i;
    EXPECT_DOUBLE_EQ(response.matches[i].similarity, brute[i].similarity);
    EXPECT_DOUBLE_EQ(response.matches[i].score, brute[i].score);
  }
}

TEST(CombinedRequestTest, KeywordStructureLogOrderMatchesBruteForce) {
  Harness& h = BigLog();
  MetaQueryExecutor executor(&h.store);
  const std::string viewer = "user0";
  MetaQueryRequest request;
  StructuralPattern pattern;
  pattern.requires_group_by = true;
  request.WithKeywords("lake avg").WithStructure(pattern).InLogOrder();
  request.ranking.exclude_flagged = false;

  std::vector<QueryId> brute;
  for (const QueryRecord& r : h.store.records()) {
    if (!h.store.Visible(viewer, r.id)) continue;
    std::vector<std::string> tokens = ExtractWords(r.text);
    auto has = [&](const char* w) {
      return std::find(tokens.begin(), tokens.end(), w) != tokens.end();
    };
    if (!has("lake") || !has("avg")) continue;
    if (!MatchesPattern(r, pattern)) continue;
    brute.push_back(r.id);
  }
  EXPECT_EQ(executor.Execute(viewer, request).Ids(), brute);
  ASSERT_FALSE(brute.empty());
}

TEST(CombinedRequestTest, SubstringPlusDataOnSmallLog) {
  Harness h;
  h.store.acl().AddUser("alice", {"lab"});
  h.Log("alice", "SELECT lake FROM WaterTemp WHERE lake = 'Washington'");
  h.Log("alice", "SELECT lake FROM WaterTemp WHERE lake = 'Union'");
  h.Log("alice", "SELECT city FROM CityLocations WHERE state = 'WA'");
  MetaQueryExecutor executor(&h.store);

  MetaQueryRequest request;
  std::vector<DataExample> examples;
  examples.push_back({{db::Value::String("Washington")}, true});
  QueryByDataOptions options;
  options.reexecute_on = &h.database;
  request.WithSubstring("FROM WaterTemp").WithData(examples, options);
  request.InLogOrder();
  request.ranking.exclude_flagged = false;

  EXPECT_EQ(executor.Execute("alice", request).Ids(),
            (std::vector<QueryId>{0}));
}

// --- planner generator selection -----------------------------------------

TEST(PlannerGeneratorTest, PicksCheapestGenerator) {
  Harness& h = BigLog();
  MetaQueryPlanner planner(&h.store);
  QueryRecord probe = storage::BuildRecordFromText(
      kProbes[0], "user0", 0, storage::SignatureMode::kTransient);

  // Posting lists beat LSH whenever any indexed predicate exists.
  MetaQueryRequest combined;
  FeatureQuery feature;
  feature.UsesTable("WaterSalinity");
  combined.WithFeature(feature).SimilarTo(probe).Limit(5);
  EXPECT_EQ(planner.Execute("user0", combined).generator,
            CandidateGenerator::kPostingIntersection);

  // Similarity alone on a big log: LSH buckets.
  MetaQueryRequest knn_only;
  knn_only.SimilarTo(probe).Limit(5);
  EXPECT_EQ(planner.Execute("user0", knn_only).generator,
            CandidateGenerator::kLshBuckets);

  // Similarity with LSH disabled: the table-posting union.
  MetaQueryRequest exhaustive;
  CandidateOptions no_lsh;
  no_lsh.use_lsh = false;
  exhaustive.SimilarTo(probe, {}, no_lsh).Limit(5);
  EXPECT_EQ(planner.Execute("user0", exhaustive).generator,
            CandidateGenerator::kTableUnion);

  // Substring alone: nothing indexed, full scan.
  MetaQueryRequest substring_only;
  substring_only.WithSubstring("temp").InLogOrder();
  MetaQueryResponse scan = planner.Execute("user0", substring_only);
  EXPECT_EQ(scan.generator, CandidateGenerator::kFullScan);
  EXPECT_EQ(scan.candidates_considered, h.store.size());
}

// --- persistent VisibilityCache: invalidate on ACL mutation --------------

TEST(VisibilityCacheInvalidationTest, CachedViewerRechecksAfterGroupChange) {
  Harness h;
  h.store.acl().AddUser("alice", {"lab"});
  h.store.acl().AddUser("eve", {"other"});
  QueryId q = h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 20");
  MetaQueryExecutor executor(&h.store);

  auto keyword = [&](const std::string& viewer) {
    return executor.Execute(viewer, LogOrderRequest().WithKeywords("watertemp"))
        .Ids();
  };

  // Cache eve's (negative) decision.
  EXPECT_TRUE(keyword("eve").empty());
  EXPECT_TRUE(
      executor.Execute("eve", KnnRequest(*h.store.Get(q), 5)).matches.empty());

  // eve joins alice's group: the cached decision must be re-checked.
  h.store.acl().AddUser("eve", {"lab"});
  EXPECT_EQ(keyword("eve"), (std::vector<QueryId>{q}));
  EXPECT_FALSE(
      executor.Execute("eve", KnnRequest(*h.store.Get(q), 5)).matches.empty());

  // Owner makes the query private: cached positive must drop too.
  ASSERT_TRUE(h.store.acl()
                  .SetVisibility(q, "alice", "alice", storage::Visibility::kPrivate)
                  .ok());
  EXPECT_TRUE(keyword("eve").empty());
  EXPECT_EQ(keyword("alice"),
            (std::vector<QueryId>{q}));  // owners always see their own
}

// --- scoring-column coherence across mutations ---------------------------

TEST(ScoringColumnsCoherenceTest, MutationsKeepPlannerEqualToReference) {
  Harness h;
  h.store.acl().AddUser("alice", {"lab"});
  h.store.acl().AddUser("bob", {"lab"});
  std::vector<QueryId> ids;
  ids.push_back(h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 20"));
  ids.push_back(h.Log("bob", "SELECT * FROM WaterTemp WHERE temp < 21"));
  ids.push_back(h.Log("alice", "SELECT * FROM WaterTemp WHERE temp < 20"));
  ids.push_back(h.Log("bob", "SELECT lake FROM WaterTemp GROUP BY lake"));
  MetaQueryExecutor executor(&h.store);
  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp < 19", "alice", 0,
      storage::SignatureMode::kTransient);

  auto knn = [&] {
    return executor.Execute("alice", KnnRequest(probe, 10)).matches;
  };
  auto check = [&](const std::string& label) {
    ExpectMatchesEqual(knn(), KnnSearchReference(h.store, "alice", probe, 10),
                       label);
  };
  check("initial");

  ASSERT_TRUE(h.store.SetQuality(ids[1], 0.95).ok());
  check("after SetQuality");

  ASSERT_TRUE(h.store.AddFlag(ids[0], storage::kFlagObsolete).ok());
  check("after AddFlag");
  for (const MetaQueryMatch& n : knn()) EXPECT_NE(n.id, ids[0]);

  ASSERT_TRUE(h.store.ClearFlag(ids[0], storage::kFlagObsolete).ok());
  check("after ClearFlag");

  ASSERT_TRUE(h.store.Delete(ids[2], "alice").ok());
  check("after Delete");
  for (const MetaQueryMatch& n : knn()) EXPECT_NE(n.id, ids[2]);

  // Rewrite: popularity slots move, arena re-packs, lowered text updates.
  ASSERT_TRUE(
      h.store.RewriteQueryText(ids[1], "SELECT * FROM WaterSalinity WHERE salinity < 5")
          .ok());
  check("after RewriteQueryText");
  EXPECT_EQ(h.store.scoring().row_of(ids[1]).popularity(),
            h.store.PopularityOf(h.store.Get(ids[1])->fingerprint));
  auto substring = [&](const std::string& needle) {
    return executor.Execute("bob", LogOrderRequest().WithSubstring(needle))
        .Ids();
  };
  EXPECT_EQ(substring("watersalinity"), (std::vector<QueryId>{ids[1]}));
  EXPECT_TRUE(substring("temp < 21").empty());

  // Stats refresh path: summary replaced through SyncOutputSignature.
  QueryRecord* r = h.store.GetMutable(ids[3]);
  r->summary.total_rows = 0;
  r->summary.sample_rows = {};
  r->summary.complete = true;
  ASSERT_TRUE(h.store.SyncOutputSignature(ids[3]).ok());
  check("after SyncOutputSignature");
  EXPECT_TRUE(h.store.scoring().row_of(ids[3]).output_empty_computed());
}

TEST(ScoringColumnsCoherenceTest, PopularityEqualsFingerprintIndex) {
  Harness& h = BigLog();
  // Counted here, off the record structs: every stored record (deleted
  // ones too) that parsed, per canonical fingerprint.
  std::unordered_map<uint64_t, uint64_t> count;
  for (const QueryRecord& r : h.store.records()) {
    if (!r.parse_failed()) ++count[r.fingerprint];
  }
  for (const QueryRecord& r : h.store.records()) {
    const uint64_t want = r.parse_failed() ? 0 : count[r.fingerprint];
    EXPECT_EQ(h.store.scoring().row_of(r.id).popularity(), want)
        << "id " << r.id;
    EXPECT_EQ(h.store.PopularityOf(r.fingerprint), count[r.fingerprint])
        << "id " << r.id;
  }
}

// --- statement-keyed planner vs a record-at-a-time oracle ----------------

/// A log of 30 distinct statements, each run 10-13 times by owners in and
/// out of a group, with deleted, flagged, private and public records.
/// Records are hand-built with a fixed output summary per statement, so
/// every re-run shares its statement exactly.
class RerunLog {
 public:
  RerunLog() {
    store.acl().AddUser("alice", {"lab"});
    store.acl().AddUser("bob", {"lab"});
    store.acl().AddUser("carol", {"field"});
    store.acl().AddUser("eve", {});
    const char* templates[] = {
        "SELECT lake, temp FROM WaterTemp WHERE temp < ",
        "SELECT * FROM WaterSalinity WHERE salinity > ",
        "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S "
        "WHERE T.loc_x = S.loc_x AND T.temp < ",
        "SELECT city FROM CityLocations WHERE pop > ",
        "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake HAVING "
        "AVG(temp) > ",
    };
    const char* owners[] = {"alice", "bob", "carol", "dave"};
    std::vector<std::string> texts;
    for (const char* t : templates) {
      for (int c = 0; c < 6; ++c) texts.push_back(t + std::to_string(c * 7));
    }
    Rng rng(16);
    // Interleave the re-runs so a statement's records are spread over
    // the log rather than contiguous.
    std::vector<size_t> runs;
    for (size_t i = 0; i < texts.size(); ++i) {
      for (size_t k = 0; k < 10 + i % 4; ++k) runs.push_back(i);
    }
    for (size_t i = runs.size(); i > 1; --i) {
      std::swap(runs[i - 1], runs[rng.Uniform(i)]);
    }
    Micros ts = 1'000'000;
    for (size_t i : runs) {
      ts += 1 + rng.Uniform(1000);
      QueryRecord r = storage::BuildRecordFromText(
          texts[i], owners[rng.Uniform(4)], ts);
      r.summary.column_names = {"c"};
      r.summary.total_rows = 2;
      r.summary.sample_rows = {{db::Value::Int(static_cast<int64_t>(i % 3))},
                               {db::Value::Int(7)}};
      store.Append(std::move(r));
    }
    for (QueryId id = 0; id < static_cast<QueryId>(store.size()); ++id) {
      const std::string owner = store.Get(id)->user;
      const uint64_t roll = rng.Uniform(100);
      Status s;
      if (roll < 8) {
        s = store.Delete(id, owner);
      } else if (roll < 16) {
        s = store.AddFlag(id, storage::kFlagObsolete);
      } else if (roll < 20) {
        s = store.AddFlag(id, storage::kFlagSchemaBroken);
      } else if (roll < 32) {
        s = store.acl().SetVisibility(id, owner, owner,
                                      storage::Visibility::kPrivate);
      } else if (roll < 44) {
        s = store.acl().SetVisibility(id, owner, owner,
                                      storage::Visibility::kPublic);
      }
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (rng.Uniform(4) == 0) {
        EXPECT_TRUE(
            store.SetQuality(id, static_cast<double>(rng.Uniform(100)) / 100)
                .ok());
      }
    }
  }

  storage::QueryStore store;
};

struct OracleAnswer {
  std::vector<MetaQueryMatch> matches;
  size_t candidates = 0;
  CandidateGenerator generator = CandidateGenerator::kFullScan;
};

bool HasAll(const std::vector<std::string>& have,
            const std::vector<std::string>& want) {
  for (const std::string& w : want) {
    if (std::find(have.begin(), have.end(), w) == have.end()) return false;
  }
  return true;
}

/// The planner's contract evaluated one record at a time, straight off
/// the record structs and the ACL, for requests without data examples.
/// Generator choice follows the planner's documented policy. Exact
/// generators select by brute force; the LSH generator probes a
/// record-keyed LshIndex built here; popularity is counted here.
OracleAnswer RecordAtATime(const storage::QueryStore& store,
                           const std::string& viewer,
                           const MetaQueryRequest& request) {
  OracleAnswer out;
  const QueryRecord* probe =
      request.similarity.has_value() ? request.similarity->probe : nullptr;
  const FeatureQuery* feature =
      request.feature.has_value() ? &*request.feature : nullptr;
  std::vector<std::string> words;
  if (request.keyword.has_value()) {
    words = ExtractWords(request.keyword->words);
  }

  // Index-backed conditions: what the exact generator selects by.
  const bool indexed =
      request.keyword.has_value() ||
      (feature != nullptr &&
       (!feature->tables().empty() || !feature->attributes().empty() ||
        !feature->predicates().empty() || feature->user().has_value())) ||
      (request.structure.has_value() &&
       !request.structure->required_tables.empty());
  auto index_match = [&](const QueryRecord& r) {
    if (request.keyword.has_value()) {
      std::vector<std::string> tokens = ExtractWords(r.text);
      bool all = true, any = false;
      for (const std::string& w : words) {
        bool in = std::find(tokens.begin(), tokens.end(), w) != tokens.end();
        all = all && in;
        any = any || in;
      }
      if (request.keyword->match_all ? !all : !any) return false;
    }
    const std::vector<std::string>& tables = r.components->tables;
    if (feature != nullptr) {
      if (!HasAll(tables, feature->tables())) return false;
      for (const auto& attr : feature->attributes()) {
        const auto& have = r.components->attributes;
        if (std::find(have.begin(), have.end(), attr) == have.end()) {
          return false;
        }
      }
      if (feature->user().has_value() && r.user != *feature->user()) {
        return false;
      }
    }
    if (request.structure.has_value() &&
        !HasAll(tables, request.structure->required_tables)) {
      return false;
    }
    return true;
  };

  std::vector<QueryId> candidates;
  if (indexed) {
    out.generator = CandidateGenerator::kPostingIntersection;
    for (const QueryRecord& r : store.records()) {
      if (index_match(r)) candidates.push_back(r.id);
    }
  } else if (probe != nullptr && !probe->components->tables.empty()) {
    const CandidateOptions& options = request.similarity->candidates;
    storage::MinHashSketch sketch =
        storage::ComputeMinHashSketch(probe->statement().signature);
    if (options.use_lsh && store.size() >= options.lsh_min_log_size &&
        sketch.valid && !sketch.empty()) {
      out.generator = CandidateGenerator::kLshBuckets;
      storage::LshIndex by_record(
          storage::LshParams{store.lsh().bands(), store.lsh().rows()});
      for (const QueryRecord& r : store.records()) {
        by_record.Insert(
            static_cast<storage::StatementId>(r.id),
            storage::ComputeMinHashSketch(r.statement().signature));
      }
      for (storage::StatementId id :
           by_record.Candidates(sketch, options.probe_bands)) {
        candidates.push_back(static_cast<QueryId>(id));
      }
    } else {
      out.generator = CandidateGenerator::kTableUnion;
      for (const QueryRecord& r : store.records()) {
        if (SortedIntersects(r.statement().signature.tables,
                             probe->statement().signature.tables)) {
          candidates.push_back(r.id);
        }
      }
    }
  } else {
    for (const QueryRecord& r : store.records()) candidates.push_back(r.id);
  }
  out.candidates = candidates.size();

  std::unordered_map<uint64_t, uint64_t> popularity;
  for (const QueryRecord& r : store.records()) {
    if (!r.parse_failed()) ++popularity[r.fingerprint];
  }
  const Micros max_ts = std::max<Micros>(1, store.max_timestamp());
  const double inv_log_size =
      1.0 / std::log1p(static_cast<double>(store.size()) + 1.0);
  const RankingOptions& ranking = request.ranking;
  for (QueryId id : candidates) {
    const QueryRecord& r = *store.Get(id);
    if (!store.Visible(viewer, id)) continue;
    if (ranking.exclude_flagged && (r.HasFlag(storage::kFlagSchemaBroken) ||
                                    r.HasFlag(storage::kFlagObsolete))) {
      continue;
    }
    if (!index_match(r)) continue;
    if (request.substring.has_value() &&
        !ContainsIgnoreCase(r.text, *request.substring)) {
      continue;
    }
    if (request.structure.has_value() &&
        !MatchesPattern(r, *request.structure)) {
      continue;
    }
    if (feature != nullptr && !feature->MatchesRecord(r)) continue;
    double sim = 0;
    if (probe != nullptr) {
      sim = CombinedSimilarity(*probe, r, request.similarity->weights);
      if (sim < ranking.min_similarity) continue;
    }
    MetaQueryMatch m{id, sim, 0};
    if (request.order == ResultOrder::kScore) {
      const uint64_t pop = r.parse_failed() ? 0 : popularity[r.fingerprint];
      double pop_term = std::log1p(static_cast<double>(pop)) * inv_log_size;
      double recency =
          static_cast<double>(r.timestamp) / static_cast<double>(max_ts);
      m.score = ranking.w_similarity * sim + ranking.w_popularity * pop_term +
                ranking.w_quality * r.quality + ranking.w_recency * recency;
    }
    out.matches.push_back(m);
  }
  std::sort(out.matches.begin(), out.matches.end(),
            [&](const MetaQueryMatch& a, const MetaQueryMatch& b) {
              if (request.order == ResultOrder::kScore && a.score != b.score) {
                return a.score > b.score;
              }
              return a.id < b.id;
            });
  if (request.limit != 0 && out.matches.size() > request.limit) {
    out.matches.resize(request.limit);
  }
  return out;
}

TEST(StatementPlannerOracleTest, EveryGeneratorOrderLimitAndViewer) {
  RerunLog log;
  const storage::QueryStore& store = log.store;
  ASSERT_EQ(store.statement_count(), 30u);
  for (storage::StatementId s = 0; s < 30; ++s) {
    ASSERT_GE(store.postings().RecordsOf(s).size(), 10u) << s;
  }
  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT T.lake, S.salinity FROM WaterTemp T, WaterSalinity S "
      "WHERE T.loc_x = S.loc_x AND T.temp < 10",
      "alice", 0, storage::SignatureMode::kTransient);
  CandidateOptions force_lsh;
  force_lsh.lsh_min_log_size = 0;
  CandidateOptions no_lsh;
  no_lsh.use_lsh = false;
  RankingOptions loose;
  loose.min_similarity = 0.2;

  struct Case {
    const char* label;
    CandidateGenerator generator;
    MetaQueryRequest request;
  };
  std::vector<Case> cases(6);
  cases[0] = {"intersection", CandidateGenerator::kPostingIntersection, {}};
  cases[0].request.WithKeywords("temp").WithFeature(
      FeatureQuery().UsesTable("WaterTemp"));
  cases[1] = {"intersection+user", CandidateGenerator::kPostingIntersection,
              {}};
  cases[1].request.WithFeature(FeatureQuery().UsesTable("WaterTemp").ByUser(
      "bob"));
  cases[2] = {"user only", CandidateGenerator::kPostingIntersection, {}};
  cases[2].request.WithFeature(FeatureQuery().ByUser("carol")).SimilarTo(probe);
  cases[3] = {"lsh", CandidateGenerator::kLshBuckets, {}};
  cases[3].request.SimilarTo(probe, {}, force_lsh).RankedBy(loose);
  cases[4] = {"table union", CandidateGenerator::kTableUnion, {}};
  cases[4].request.SimilarTo(probe, {}, no_lsh);
  cases[5] = {"full scan", CandidateGenerator::kFullScan, {}};
  cases[5].request.WithSubstring("LAKE");

  MetaQueryPlanner planner(&store);
  for (Case& c : cases) {
    for (bool log_order : {false, true}) {
      c.request.order =
          log_order ? ResultOrder::kLogOrder : ResultOrder::kScore;
      for (size_t limit : {0u, 1u, 7u}) {
        c.request.limit = limit;
        for (const char* viewer : {"alice", "bob", "eve"}) {
          const std::string label = std::string(c.label) +
                                    (log_order ? " / log" : " / score") +
                                    " / limit " + std::to_string(limit) +
                                    " / " + viewer;
          MetaQueryResponse got = planner.Execute(viewer, c.request);
          OracleAnswer want = RecordAtATime(store, viewer, c.request);
          EXPECT_EQ(got.generator, c.generator) << label;
          EXPECT_EQ(want.generator, c.generator) << label;
          EXPECT_EQ(got.candidates_considered, want.candidates) << label;
          ASSERT_EQ(got.matches.size(), want.matches.size()) << label;
          for (size_t i = 0; i < want.matches.size(); ++i) {
            EXPECT_EQ(got.matches[i].id, want.matches[i].id) << label;
            EXPECT_EQ(got.matches[i].similarity, want.matches[i].similarity)
                << label;
            EXPECT_EQ(got.matches[i].score, want.matches[i].score) << label;
          }
          if (limit == 0) {
            EXPECT_FALSE(want.matches.empty()) << label;
          }
        }
      }
    }
  }
}

// --- a statement whose runs overflow its scoring row ---------------------

TEST(OverflowedRowTest, PlannerScoresTheStatementSignature) {
  storage::QueryStore store;
  store.acl().AddUser("alice", {"lab"});
  store.acl().AddUser("bob", {"lab"});
  store.acl().AddUser("eve", {"other"});
  const char* texts[] = {
      "SELECT * FROM WaterTemp WHERE temp < 20",
      "SELECT * FROM WaterTemp WHERE temp IN (1, 2, 3)",
      "SELECT lake, temp FROM WaterTemp WHERE temp IN (4, 8)",
      "SELECT lake FROM WaterTemp GROUP BY lake",
      "SELECT * FROM WaterSalinity WHERE salinity > 5",
  };
  Micros ts = 1'000'000;
  for (const char* text : texts) {
    store.Append(storage::BuildRecordFromText(text, "bob", ts++));
  }
  // Two runs of the long statement; alice cannot see eve's, so the
  // planner reads the statement's signature through the one she can.
  QueryRecord overflowing = storage::BuildRecordFromText(
      testing_util::OverflowingStatementText(), "eve", ts++);
  const QueryId hidden = store.Append(overflowing);
  overflowing.user = "alice";
  overflowing.timestamp = ts++;
  const QueryId shown = store.Append(overflowing);
  ASSERT_EQ(store.Get(shown)->statement().signature.text_tokens.size(),
            70006u);
  ASSERT_FALSE(store.scoring().signature_valid(shown));
  ASSERT_EQ(store.scoring().statement_of(hidden),
            store.scoring().statement_of(shown));

  QueryRecord probe = storage::BuildRecordFromText(
      "SELECT * FROM WaterTemp WHERE temp IN (4, 5, 6)", "alice", 0,
      storage::SignatureMode::kTransient);
  const SimilarityWeights text_heavy{0.2, 0.8, 0.0};
  MetaQueryPlanner planner(&store);

  auto ranks_shown = [&](const std::vector<MetaQueryMatch>& matches) {
    return std::any_of(matches.begin(), matches.end(),
                       [&](const MetaQueryMatch& m) { return m.id == shown; });
  };

  const std::vector<MetaQueryMatch> want =
      KnnSearchReference(store, "alice", probe, 10, text_heavy);
  ASSERT_TRUE(ranks_shown(want));
  ExpectMatchesEqual(
      planner.Execute("alice", KnnRequest(probe, 10, text_heavy)).matches,
      want, "knn");

  MetaQueryRequest combined;
  combined.WithKeywords("watertemp temp").SimilarTo(probe, text_heavy);
  const OracleAnswer oracle = RecordAtATime(store, "alice", combined);
  const MetaQueryResponse got = planner.Execute("alice", combined);
  EXPECT_EQ(got.generator, oracle.generator);
  EXPECT_EQ(got.candidates_considered, oracle.candidates);
  ASSERT_TRUE(ranks_shown(oracle.matches));
  ExpectMatchesEqual(got.matches, oracle.matches, "keyword+similarity");
}

}  // namespace
}  // namespace cqms::metaquery
