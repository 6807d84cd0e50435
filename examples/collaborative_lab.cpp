// Collaborative assistance scenario: Figure 3 of the paper, headless.
//
// Alice's lab mates have explored the salinity/temperature correlation
// before. As Alice types a new query, the CQMS completes her FROM clause
// context-sensitively, spell-checks identifiers, relaxes her empty-result
// predicate, and recommends annotated queries from her group — while a
// stranger outside the group sees none of it.

#include <cstdio>

#include "core/cqms.h"
#include "sql/parser.h"
#include "storage/record_builder.h"
#include "workload/synthetic.h"

namespace {

void PrintAssist(const cqms::assist::AssistResponse& response) {
  std::printf("  completions:\n");
  for (const auto& c : response.completions) {
    std::printf("    %-24s (%.2f, %s)\n", c.text.c_str(), c.score,
                c.reason.c_str());
  }
  std::printf("  corrections:\n");
  for (const auto& c : response.corrections) {
    std::printf("    %s -> %s (%.2f)\n", c.original.c_str(),
                c.replacement.c_str(), c.confidence);
  }
  std::printf("  similar queries:\n");
  for (const auto& r : response.recommendations) {
    std::printf("    [%3.0f%%] %-60s | %s%s%s\n", r.score * 100,
                r.text.substr(0, 60).c_str(), r.diff.c_str(),
                r.annotation.empty() ? "" : " | note: ",
                r.annotation.c_str());
  }
}

}  // namespace

int main() {
  cqms::SimulatedClock clock(0);
  cqms::CqmsOptions options;
  options.clock = &clock;
  cqms::Cqms system(options);
  cqms::Status s = cqms::workload::PopulateLakeDatabase(system.database(), 300);
  if (!s.ok()) return 1;

  system.RegisterUser("alice", {"limnology"});
  system.RegisterUser("bob", {"limnology"});
  system.RegisterUser("carol", {"limnology"});
  system.RegisterUser("eve", {"astronomy"});

  // The lab's history: correlation probes (bob), city lookups (carol).
  for (int i = 0; i < 12; ++i) {
    auto e = system.Execute(
        "bob",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T "
        "WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < " +
            std::to_string(12 + i));
    if (i == 5) {
      (void)system.Annotate(e.query_id, "bob",
                            "the 17-degree cut matched the 2008 survey");
    }
    clock.Advance(30 * cqms::kMicrosPerSecond);
  }
  for (int i = 0; i < 20; ++i) {
    (void)system.Execute("carol", "SELECT city FROM CityLocations WHERE pop > " +
                                      std::to_string((i + 1) * 20000));
    clock.Advance(30 * cqms::kMicrosPerSecond);
  }
  system.RunMining();

  // 1. Context-aware completion: WaterTemp outranks the globally more
  //    popular CityLocations once WaterSalinity is in the FROM clause.
  std::printf("alice types: SELECT * FROM WaterSalinity, \n");
  PrintAssist(system.Assist("alice", "SELECT * FROM WaterSalinity, "));

  // 2. Spell check.
  std::printf("\nalice types: SELECT temp FROM WatrTemp\n");
  PrintAssist(system.Assist("alice", "SELECT temp FROM WatrTemp"));

  // 3. Empty-result predicate relaxation.
  auto broken = system.Execute(
      "alice",
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE "
      "S.loc_x = T.loc_x AND T.temp < -40");
  std::printf("\nalice's probe returned %zu rows; the CQMS suggests:\n",
              broken.result.rows.size());
  auto parsed = cqms::sql::Parse(
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE "
      "S.loc_x = T.loc_x AND T.temp < -40");
  cqms::assist::CorrectionEngine corrections(system.store(), system.database());
  for (const auto& c :
       corrections.SuggestPredicateRelaxations("alice", **parsed)) {
    std::printf("  %s  ->  %s (%.0f%% of logged uses)\n", c.original.c_str(),
                c.replacement.c_str(), c.confidence * 100);
  }

  // 4. Access control: eve (different group) gets no recommendations.
  auto eve_view = system.Assist("eve",
                                "SELECT T.temp FROM WaterSalinity S, WaterTemp T "
                                "WHERE S.loc_x = T.loc_x");
  std::printf("\neve (astronomy group) sees %zu recommendations\n",
              eve_view.recommendations.size());

  // 5. One combined meta-query (§2.3): "lab queries mentioning salinity
  //    that touch WaterTemp, most similar to what alice is writing,
  //    popularity-boosted" — a single MetaQueryRequest through the
  //    unified planner instead of four separate search calls.
  cqms::storage::QueryRecord probe = cqms::storage::BuildRecordFromText(
      "SELECT T.temp FROM WaterSalinity S, WaterTemp T WHERE "
      "S.loc_x = T.loc_x AND T.temp < 15",
      "alice", 0, cqms::storage::SignatureMode::kTransient);
  cqms::metaquery::MetaQueryRequest request;
  cqms::metaquery::FeatureQuery feature;
  feature.UsesTable("WaterTemp");
  cqms::metaquery::RankingOptions ranking;
  ranking.w_popularity = 0.3;
  request.WithKeywords("salinity")
      .WithFeature(feature)
      .SimilarTo(probe)
      .RankedBy(ranking)
      .Limit(3);
  auto combined = system.Search("alice", request);
  std::printf("\ncombined meta-query (%zu candidates considered):\n",
              combined.candidates_considered);
  for (const auto& m : combined.matches) {
    std::printf("  [%.2f] q%lld: %s\n", m.score,
                static_cast<long long>(m.id),
                system.store()->Get(m.id)->text->substr(0, 60).c_str());
  }
  return 0;
}
