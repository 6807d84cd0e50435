// Administrative scenario: schema evolution and data drift (§4.4).
//
// After a month of logged exploration the lab renames tables and columns,
// drops a column, and bulk-loads new data. The Query Maintenance
// component flags invalidated queries, repairs the rename victims
// automatically, refreshes stale statistics under a re-execution budget,
// recomputes quality, and the whole log round-trips through a snapshot.

#include <cstdio>

#include "core/cqms.h"
#include "storage/persistence.h"
#include "workload/synthetic.h"

int main() {
  cqms::SimulatedClock clock(0);
  cqms::CqmsOptions options;
  options.clock = &clock;
  options.maintenance.drift_threshold = 0.2;
  options.maintenance.reexecute_budget = 25;
  cqms::Cqms system(options);
  cqms::Status s = cqms::workload::PopulateLakeDatabase(system.database(), 400);
  if (!s.ok()) return 1;

  // A month of activity.
  cqms::workload::WorkloadOptions workload;
  workload.num_sessions = 40;
  workload.typo_rate = 0.0;  // clean log; we want schema breakage only
  cqms::workload::RegisterUsers(system.store(), workload);
  cqms::profiler::QueryProfiler profiler(system.database(), system.store(),
                                         &clock);
  (void)cqms::workload::GenerateLog(&profiler, system.store(), &clock, workload);
  std::printf("log contains %zu queries\n", system.store()->size());

  // Baseline maintenance pass (snapshots stats, validates everything).
  auto baseline = system.RunMaintenance();
  std::printf("baseline: %zu checked, %zu broken\n", baseline.queries_checked,
              baseline.flagged_broken);

  // --- schema evolution ------------------------------------------------
  clock.Advance(cqms::kMicrosPerMinute);
  (void)system.database()->RenameTable("WaterTemp", "LakeTemperature");
  (void)system.database()->RenameColumn("WaterSalinity", "salinity", "psu");
  (void)system.database()->DropColumn("Species", "count_obs");

  auto evolution = system.RunMaintenance();
  std::printf(
      "\nafter rename/rename/drop: %zu checked, %zu repaired, %zu broken\n",
      evolution.queries_checked, evolution.repaired, evolution.flagged_broken);
  for (auto id : evolution.repaired_ids) {
    const auto* r = system.store()->Get(id);
    std::printf("  repaired q%lld: %s\n", static_cast<long long>(id),
                r->text->substr(0, 70).c_str());
    if (evolution.repaired_ids.size() > 3 && id == evolution.repaired_ids[2]) {
      std::printf("  ... (%zu more)\n", evolution.repaired_ids.size() - 3);
      break;
    }
  }
  for (auto id : evolution.broken_ids) {
    std::printf("  irreparable q%lld (drops change semantics)\n",
                static_cast<long long>(id));
    if (evolution.broken_ids.size() > 3 && id == evolution.broken_ids[2]) {
      std::printf("  ... (%zu more)\n", evolution.broken_ids.size() - 3);
      break;
    }
  }

  // --- data drift --------------------------------------------------------
  for (int i = 0; i < 3000; ++i) {
    (void)system.database()->Insert(
        "LakeTemperature",
        {cqms::db::Value::String("Union"), cqms::db::Value::Int(1),
         cqms::db::Value::Int(1), cqms::db::Value::Double(38.0)});
  }
  auto drift = system.RunMaintenance();
  std::printf(
      "\nafter bulk load: %zu tables drifted, %zu stats flagged stale, "
      "%zu refreshed (budget %zu)\n",
      drift.tables_drifted, drift.stats_flagged_stale, drift.stats_refreshed,
      options.maintenance.reexecute_budget);

  // --- quality & persistence ---------------------------------------------
  double best = 0;
  cqms::storage::QueryId best_id = cqms::storage::kInvalidQueryId;
  for (const auto& record : system.store()->records()) {
    if (record.quality > best) {
      best = record.quality;
      best_id = record.id;
    }
  }
  if (best_id != cqms::storage::kInvalidQueryId) {
    std::printf("\nhighest-quality query (%.2f):\n%s", best,
                system.ShowQuery(best_id).c_str());
  }

  std::string path = "/tmp/cqms_admin_example.snapshot";
  if (system.SaveLog(path).ok()) {
    cqms::storage::QueryStore restored;
    if (cqms::storage::LoadSnapshot(&restored, path).ok()) {
      std::printf("\nsnapshot round-trip: %zu queries restored from %s\n",
                  restored.size(), path.c_str());
    }
  }
  return 0;
}
