#ifndef CQMS_CORE_CQMS_H_
#define CQMS_CORE_CQMS_H_

#include <memory>
#include <string>
#include <vector>

#include "assist/assisted_composer.h"
#include "client/browse.h"
#include "client/session_view.h"
#include "common/clock.h"
#include "db/database.h"
#include "maintain/query_maintenance.h"
#include "metaquery/meta_query_executor.h"
#include "miner/query_miner.h"
#include "miner/tutorial.h"
#include "profiler/query_profiler.h"
#include "storage/durable_store.h"
#include "storage/persistence.h"
#include "storage/query_store.h"
#include "storage/snapshot_v2.h"

namespace cqms {

/// Top-level configuration of a CQMS instance.
struct CqmsOptions {
  /// External clock; null = wall clock (owned internally).
  const Clock* clock = nullptr;
  profiler::ProfilerOptions profiler;
  miner::QueryMinerOptions miner;
  maintain::MaintenanceOptions maintenance;
  assist::AssistOptions assist;
};

/// The Collaborative Query Management System: the server of Figure 4,
/// wiring the Query Profiler and Meta-Query Executor (online) with the
/// Query Miner and Query Maintenance (background) over a shared Query
/// Storage, on top of the embedded relational engine.
///
/// The API groups methods by the paper's four interaction modes (§2).
class Cqms {
 public:
  explicit Cqms(CqmsOptions options = {});

  /// The underlying DBMS: load data / evolve schemas through this.
  db::Database* database() { return &database_; }
  const db::Database& database() const { return database_; }

  storage::QueryStore* store() { return &store_; }
  const storage::QueryStore& store() const { return store_; }

  const Clock& clock() const { return *clock_; }

  // --- user management -----------------------------------------------------

  /// Registers a user with their collaboration groups.
  void RegisterUser(const std::string& user, const std::vector<std::string>& groups) {
    store_.acl().AddUser(user, groups);
  }

  // --- Traditional Interaction Mode (§2.1) ----------------------------------

  /// Executes a query with background profiling.
  profiler::ProfiledExecution Execute(const std::string& user,
                                      std::string_view sql_text) {
    return profiler_.ExecuteAndProfile(sql_text, user);
  }

  /// The profiler itself, for callers that need the non-executing entry
  /// points (LogOnly imports; the network server's Append op).
  profiler::QueryProfiler& profiler() { return profiler_; }

  /// Annotates a query (whole query, or a fragment of its text).
  Status Annotate(storage::QueryId id, const std::string& author,
                  const std::string& text, const std::string& fragment = "");

  /// §2.1: the CQMS "occasionally even requests query annotations ...
  /// for queries that are difficult to re-use without documentation".
  /// True when the query is complex (many tables or nesting) and not yet
  /// annotated.
  bool ShouldRequestAnnotation(storage::QueryId id, size_t table_threshold = 3) const;

  // --- Search & Browse Interaction Mode (§2.2) ------------------------------

  metaquery::MetaQueryExecutor& metaquery() { return metaquery_; }

  /// The unified meta-query entry point: any conjunction of composable
  /// predicates (keywords, substring, features, structure, data
  /// examples, similarity-to-probe) ranked by one RankingOptions — e.g.
  /// "queries touching `lineage` with skeleton X, similar to this probe,
  /// ranked by popularity" as a single request.
  metaquery::MetaQueryResponse Search(
      const std::string& viewer,
      const metaquery::MetaQueryRequest& request) const {
    return metaquery_.Execute(viewer, request);
  }

  /// Session-grouped log summary for `viewer`.
  std::string BrowseLog(const std::string& viewer, size_t max_sessions = 20) const {
    return client::RenderLogSummary(store_, miner_.sessions(), viewer, max_sessions);
  }

  /// Figure-2 ASCII rendering of one session (viewer must see at least
  /// one of its queries).
  Result<std::string> ShowSession(const std::string& viewer,
                                  storage::SessionId session_id) const;

  std::string ShowQuery(storage::QueryId id) const {
    return client::RenderQueryDetails(store_, id);
  }

  // --- Assisted Interaction Mode (§2.3) --------------------------------------

  /// Per-keystroke assistance: completions, corrections, recommendations.
  assist::AssistResponse Assist(const std::string& viewer,
                                const std::string& partial_text) const {
    return composer_.Assist(viewer, partial_text);
  }

  /// Auto-generated tutorial for the current dataset (§2.3).
  std::string Tutorial() const;

  // --- Administrative Interaction Mode (§2.4) ---------------------------------

  Status SetVisibility(const std::string& requester, storage::QueryId id,
                       storage::Visibility visibility);
  Status DeleteQuery(const std::string& requester, storage::QueryId id,
                     bool is_admin = false) {
    return store_.Delete(id, requester, is_admin);
  }

  /// Background cycles (a deployment would run these on timers).
  maintain::MaintenanceReport RunMaintenance() { return maintenance_.RunAll(); }
  /// Mines from scratch (QueryMiner::RunAll), then frees the distance
  /// matrix the run retained: only an incremental refresh reads it, and
  /// the next RunMining drops it before building anyway.
  void RunMining() {
    miner_.RunAll();
    miner_.ReleaseRetainedMatrix();
  }

  const miner::QueryMiner& miner() const { return miner_; }

  /// What the last mining run did (operator telemetry; RunMining's runs
  /// are full, so they copy no pairs).
  const miner::MinerRefreshStats& MiningStats() const {
    return miner_.last_refresh_stats();
  }

  /// Compacts the scoring-column arenas now, returning bytes reclaimed;
  /// RunMaintenance() also does this automatically past the
  /// MaintenanceOptions::compact_arena_min_garbage threshold.
  size_t CompactScoringArenas() { return store_.CompactScoringArenas(); }

  /// Snapshot persistence of the query log (binary v2; LoadSnapshot
  /// reads both formats, so older text snapshots remain loadable).
  /// With concurrent reads enabled, the snapshot encodes from the
  /// current published view — a consistent mutation prefix — instead of
  /// the live structures, so it may run off the writer thread.
  Status SaveLog(const std::string& path) const {
    if (store_.views_enabled()) {
      std::shared_ptr<const storage::ReadViewState> view = store_.SharedView();
      return storage::SaveSnapshotV2(*view, path);
    }
    return storage::SaveSnapshotV2(store_, path);
  }

  // --- concurrent reads ----------------------------------------------------

  /// Turns on the store's epoch-published read-view pipeline
  /// (docs/concurrency.md): from here on, Search / metaquery() calls
  /// execute against immutable published snapshots and are safe from
  /// any number of threads concurrently with this instance's writer
  /// thread (Execute, maintenance, mining). Call from the writer
  /// thread, typically right after construction or restore.
  void EnableConcurrentReads() { store_.EnableViews(); }

  /// Refcounted handle on the latest published view (null until
  /// EnableConcurrentReads) — for long-lived consumers like backups.
  std::shared_ptr<const storage::ReadViewState> CurrentReadView() const {
    return store_.SharedView();
  }

  // --- durability ----------------------------------------------------------

  /// Enables crash-safe storage under `dir`: restores any existing
  /// snapshot (v2 binary or legacy v1 text), replays the WAL tail, and
  /// write-ahead-logs every subsequent mutation. Must be called before
  /// any query is logged *and* before any user is registered (the
  /// store and its ACL must be pristine — earlier state would exist
  /// only in memory and evaporate at the next recovery). Once enabled,
  /// RunMaintenance() checkpoints automatically when the WAL crosses
  /// its thresholds; Checkpoint() forces one.
  ///
  /// A non-OK return means the on-disk state was unusable (corrupt
  /// snapshot or WAL). A corrupt snapshot can abort mid-restore, so
  /// the store may be left *partially* populated — discard this Cqms
  /// instance rather than continuing to serve from it; nothing it logs
  /// afterwards would be durable.
  ///
  /// All I/O goes through `options.env` (null = the real POSIX
  /// filesystem); tests inject a storage::FaultInjectingEnv there to
  /// exercise crash and error paths deterministically.
  Status EnableDurability(const std::string& dir,
                          storage::DurabilityOptions options = {});

  /// Forces a snapshot + WAL truncation now. Durability must be enabled.
  Status Checkpoint() {
    if (durable_ == nullptr) {
      return Status::InvalidArgument("durability is not enabled");
    }
    return durable_->Checkpoint();
  }

  /// The durability engine, when enabled (WAL stats, paths); else null.
  const storage::DurableStore* durable() const { return durable_.get(); }

  /// Mutable handle for writer-thread wiring (the replication shipper
  /// registers its WAL hook and reads segment state through it).
  storage::DurableStore* durable_store() { return durable_.get(); }

 private:
  std::unique_ptr<Clock> owned_clock_;
  const Clock* clock_;

  db::Database database_;
  storage::QueryStore store_;
  std::unique_ptr<storage::DurableStore> durable_;
  profiler::QueryProfiler profiler_;
  metaquery::MetaQueryExecutor metaquery_;
  miner::QueryMiner miner_;
  maintain::QueryMaintenance maintenance_;
  assist::AssistedComposer composer_;
};

}  // namespace cqms

#endif  // CQMS_CORE_CQMS_H_
