#ifndef CQMS_MINER_QUERY_MINER_H_
#define CQMS_MINER_QUERY_MINER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "miner/association_rules.h"
#include "miner/clustering.h"
#include "miner/popularity.h"
#include "miner/sessionizer.h"
#include "storage/change_tracker.h"

namespace cqms::miner {

/// Configuration of the background Query Miner (Figure 4).
struct QueryMinerOptions {
  SessionizerOptions sessionizer;
  AssociationMinerOptions association;
  KMedoidsOptions clustering;
  PopularityTracker::Options popularity;
  /// Re-mine when at least this many new queries arrived since the last
  /// run (incremental maintenance, §4.3).
  size_t refresh_threshold = 100;
  /// Cap on the number of queries fed to clustering; the most recent
  /// ones are used. 0 = no cap.
  size_t clustering_sample = 2000;
  /// Escape hatch: every this-many incremental refreshes, one full
  /// RunAll runs instead (dropping the retained distance matrix), so
  /// any drift — there should be none; incremental results are asserted
  /// bit-identical — can never accumulate unboundedly. 0 disables the
  /// periodic rebuild.
  size_t full_rebuild_interval = 64;
};

/// What the last RunAll / MaybeRefresh actually did — delta sizes and
/// distance reuse, surfaced for operators and benchmarks.
struct MinerRefreshStats {
  bool ran = false;
  bool full = true;
  size_t appended = 0;
  size_t structurally_dirty = 0;  ///< Rewrites + deletes + undeletes + reassigns.
  size_t users_extended = 0;
  size_t users_resegmented = 0;
  size_t pairs_computed = 0;  ///< Clustering pairs scored fresh.
  size_t pairs_copied = 0;    ///< Pairs bulk-copied from the retained matrix.
  size_t rules_fresh_counts = 0;  ///< Candidate itemsets counted by full scan.
};

/// The background mining component: runs sessionization, association-rule
/// mining, popularity tracking and query clustering over the store, and
/// exposes the latest results to the assisted-interaction layer.
///
/// The miner subscribes a storage::ChangeTracker to the store at
/// construction, so MaybeRefresh can consume exact per-cycle dirty sets
/// instead of re-deriving everything: an append-heavy refresh costs
/// O(delta * avg_bucket) similarity work instead of O(n^2), while
/// producing results bit-identical to a from-scratch RunAll (asserted
/// in tests/incremental_mining_test.cc).
class QueryMiner {
 public:
  /// `store` and `clock` must outlive the miner.
  QueryMiner(storage::QueryStore* store, const Clock* clock,
             QueryMinerOptions options = {});

  /// Runs every mining task now, from scratch (the retained distance
  /// matrix is dropped first and rebuilt by the run).
  void RunAll();

  /// Runs mining only when `refresh_threshold` new queries have arrived
  /// since the last run. Returns true when a run happened. This is the
  /// hook a background scheduler would call periodically. Routes
  /// through the incremental path when safe (see
  /// QueryMinerOptions::full_rebuild_interval).
  bool MaybeRefresh();

  /// Frees the distance matrix the last run retained for the next
  /// incremental refresh (a clustering_sample-squared matrix of
  /// doubles). A miner that only ever runs RunAll, which drops it before
  /// building, never reads it; after a release the next MaybeRefresh
  /// scores every pair of its window afresh.
  void ReleaseRetainedMatrix() { retained_matrix_ = RetainedMatrix(); }

  // Latest results (valid after the first RunAll).
  const std::vector<Session>& sessions() const { return sessions_; }
  const std::vector<AssociationRule>& rules() const { return rules_; }
  const Clustering& clustering() const { return clustering_; }
  const PopularityTracker& popularity() const { return popularity_; }

  /// Session lookup by id; nullptr when unknown. O(1): renumbered
  /// session ids are their own index into sessions().
  const Session* FindSession(storage::SessionId id) const;

  /// Sessions of one user, most recent first. Served from a per-user
  /// index rebuilt at the end of each mining run.
  std::vector<const Session*> SessionsOfUser(const std::string& user) const;

  size_t queries_mined() const { return last_mined_size_; }

  /// What the last refresh did (full vs delta, distance reuse).
  const MinerRefreshStats& last_refresh_stats() const { return last_stats_; }

 private:
  /// Applies one change-feed delta to every mining output.
  void RefreshIncremental(storage::ChangeDelta delta);
  /// The most recent `clustering_sample` parsed, non-deleted ids, in
  /// log order.
  std::vector<storage::QueryId> ClusteringSample() const;
  /// Builds the window's distances (copying what the retained matrix
  /// still holds), clusters, and retains the new matrix for the next
  /// refresh. `dirty` (sorted) lists ids whose signatures changed since
  /// the last build.
  void Recluster(const std::vector<storage::QueryId>& dirty);
  void RebuildSessionIndex();

  storage::QueryStore* store_;
  const Clock* clock_;
  QueryMinerOptions options_;

  storage::ChangeTracker tracker_;
  RetainedMatrix retained_matrix_;
  AssociationMinerState association_state_;

  std::vector<Session> sessions_;
  std::vector<AssociationRule> rules_;
  Clustering clustering_;
  PopularityTracker popularity_;
  size_t last_mined_size_ = 0;
  size_t refreshes_since_full_ = 0;
  MinerRefreshStats last_stats_;
  /// user -> indexes into sessions_, sorted by start descending.
  std::unordered_map<std::string, std::vector<size_t>> sessions_of_user_;
};

}  // namespace cqms::miner

#endif  // CQMS_MINER_QUERY_MINER_H_
