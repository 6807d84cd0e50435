// Quickstart: the smallest end-to-end tour of the CQMS public API.
//
// Creates a database, executes queries through the profiling path,
// searches the query log, and asks for assistance — the four interaction
// modes of the paper in ~80 lines.

#include <cstdio>
#include <string>

#include "core/cqms.h"

using cqms::db::ColumnDef;
using cqms::db::TableSchema;
using cqms::db::Value;
using cqms::db::ValueType;

int main() {
  cqms::Cqms system;

  // --- set up a tiny database (normally your DBMS already has data) ----
  cqms::Status s = system.database()->CreateTable(
      TableSchema("WaterTemp", {{"lake", ValueType::kString},
                                {"temp", ValueType::kDouble}}));
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const auto& [lake, temp] :
       std::vector<std::pair<std::string, double>>{
           {"Washington", 15.5}, {"Union", 19.5}, {"Sammamish", 12.0}}) {
    (void)system.database()->Insert(
        "WaterTemp", {Value::String(lake), Value::Double(temp)});
  }
  system.RegisterUser("alice", {"limnology"});

  // --- Traditional mode: execute; the profiler logs behind the scenes --
  auto exec = system.Execute("alice",
                             "SELECT lake, temp FROM WaterTemp WHERE temp < 18");
  std::printf("query returned %zu rows (logged as q%lld)\n",
              exec.result.rows.size(),
              static_cast<long long>(exec.query_id));
  for (const auto& row : exec.result.rows) {
    std::printf("  %s\n", cqms::db::RowToString(row).c_str());
  }

  // Annotate it for your lab mates.
  (void)system.Annotate(exec.query_id, "alice", "lakes cold enough for trout");

  // Run a couple more so the log has something to mine.
  (void)system.Execute("alice", "SELECT lake FROM WaterTemp WHERE temp < 13");
  (void)system.Execute("alice", "SELECT AVG(temp) FROM WaterTemp");
  system.RunMining();

  // --- Search & Browse mode: find queries, view sessions ---------------
  cqms::metaquery::MetaQueryRequest keyword;
  keyword.WithKeywords("temp").InLogOrder();
  keyword.ranking.exclude_flagged = false;
  auto hits = system.Search("alice", keyword).matches;
  std::printf("\nkeyword search 'temp' found %zu queries\n", hits.size());
  std::printf("%s", system.BrowseLog("alice").c_str());

  // --- Assisted mode: completions and similar queries ------------------
  auto assist = system.Assist("alice", "SELECT * FROM WaterTemp WHERE temp < 20");
  std::printf("\nsimilar queries for your draft:\n");
  for (const auto& rec : assist.recommendations) {
    std::printf("  [%.0f%%] %s   | diff: %s\n", rec.score * 100,
                rec.text.c_str(), rec.diff.c_str());
  }

  // --- Administrative mode: make the annotated query public ------------
  (void)system.SetVisibility("alice", exec.query_id,
                             cqms::storage::Visibility::kPublic);
  auto report = system.RunMaintenance();
  std::printf("\nmaintenance: %zu checked, %zu broken, quality updated on %zu\n",
              report.queries_checked, report.flagged_broken,
              report.quality_updated);
  return 0;
}
