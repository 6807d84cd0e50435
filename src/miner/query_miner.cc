#include "miner/query_miner.h"

#include <algorithm>

#include "common/clock.h"
#include "common/sorted_vector.h"
#include "obs/metrics.h"

namespace cqms::miner {

namespace {

// Per-stage refresh timings plus the clustering pair-flow counters,
// labeled so full and incremental refreshes share the same series.
struct MinerSeries {
  obs::Histogram* sessionize;
  obs::Histogram* association;
  obs::Histogram* popularity;
  obs::Histogram* cluster;
  obs::Counter* refreshes_full;
  obs::Counter* refreshes_incremental;
  obs::Counter* pairs_computed;
  obs::Counter* pairs_copied;
};

const MinerSeries& Series() {
  static const MinerSeries s = [] {
    auto& reg = obs::MetricsRegistry::Global();
    MinerSeries m;
    m.sessionize = reg.GetHistogram("cqms_miner_stage_micros{stage=\"sessionize\"}");
    m.association = reg.GetHistogram("cqms_miner_stage_micros{stage=\"association\"}");
    m.popularity = reg.GetHistogram("cqms_miner_stage_micros{stage=\"popularity\"}");
    m.cluster = reg.GetHistogram("cqms_miner_stage_micros{stage=\"cluster\"}");
    m.refreshes_full = reg.GetCounter("cqms_miner_refreshes_total{kind=\"full\"}");
    m.refreshes_incremental =
        reg.GetCounter("cqms_miner_refreshes_total{kind=\"incremental\"}");
    m.pairs_computed = reg.GetCounter("cqms_miner_pairs_computed_total");
    m.pairs_copied = reg.GetCounter("cqms_miner_pairs_copied_total");
    return m;
  }();
  return s;
}

// Marks stage boundaries: each call records the elapsed slice since the
// previous one into the given histogram.
class StageTimer {
 public:
  void Finish(obs::Histogram* h) {
    Micros now = timer_.ElapsedMicros();
    h->Record(static_cast<uint64_t>(now - last_));
    last_ = now;
  }

 private:
  WallTimer timer_;
  Micros last_ = 0;
};

}  // namespace

QueryMiner::QueryMiner(storage::QueryStore* store, const Clock* clock,
                       QueryMinerOptions options)
    : store_(store), clock_(clock), options_(options) {
  tracker_.Attach(store_);
}

std::vector<storage::QueryId> QueryMiner::ClusteringSample() const {
  std::vector<storage::QueryId> cluster_ids;
  const auto& records = store_->records();
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->HasFlag(storage::kFlagDeleted) || it->parse_failed()) continue;
    cluster_ids.push_back(it->id);
    if (options_.clustering_sample != 0 &&
        cluster_ids.size() >= options_.clustering_sample) {
      break;
    }
  }
  std::reverse(cluster_ids.begin(), cluster_ids.end());
  return cluster_ids;
}

void QueryMiner::Recluster(const std::vector<storage::QueryId>& dirty) {
  std::vector<storage::QueryId> sample = ClusteringSample();
  CachedDistanceMatrix dist(*store_, sample, options_.clustering.weights,
                            options_.clustering.sketch_prune_min_points,
                            &retained_matrix_, dirty);
  clustering_ = KMedoidsFromDistances(dist, sample, options_.clustering);
  last_stats_.pairs_computed = dist.build_stats().pairs_computed;
  last_stats_.pairs_copied = dist.build_stats().pairs_copied;
  const MinerSeries& series = Series();
  series.pairs_computed->Add(last_stats_.pairs_computed);
  series.pairs_copied->Add(last_stats_.pairs_copied);
  // Retain this window's matrix: the next refresh bulk-copies every
  // pair of unchanged survivors instead of re-scoring it.
  retained_matrix_.pruned = dist.pruned();
  retained_matrix_.data = dist.TakeData();
  retained_matrix_.ids = std::move(sample);
}

void QueryMiner::RunAll() {
  // The sessionizer writes session ids back record by record; one
  // republish for the whole mining cycle.
  storage::QueryStore::ScopedPublishBatch batch(store_);
  // Everything is rebuilt from scratch below, so whatever the change
  // feed accumulated is covered — absorb it.
  tracker_.Drain();
  last_stats_ = MinerRefreshStats{};
  last_stats_.ran = true;
  last_stats_.full = true;
  Series().refreshes_full->Increment();
  StageTimer stages;

  {
    // The session write-back is this miner's own derived state, not
    // external dirt.
    storage::ChangeTracker::ScopedSuppress suppress(&tracker_);
    sessions_ = IdentifySessions(store_, options_.sessionizer);
  }
  stages.Finish(Series().sessionize);

  // Association rules over all parsed queries.
  std::vector<storage::QueryId> all_ids;
  all_ids.reserve(store_->size());
  for (const storage::QueryRecord& r : store_->records()) {
    if (!r.HasFlag(storage::kFlagDeleted)) all_ids.push_back(r.id);
  }
  association_state_.Rebuild(*store_, all_ids, options_.association);
  rules_ = association_state_.Mine();
  last_stats_.rules_fresh_counts = association_state_.last_fresh_counts();
  stages.Finish(Series().association);

  popularity_.Build(*store_, clock_->Now(), options_.popularity);
  stages.Finish(Series().popularity);

  // Clustering over the most recent window. The full rebuild drops the
  // retained matrix (the drift escape hatch), freeing its n^2 doubles
  // before the new window's are allocated, and rebuilds it, so the next
  // incremental refresh starts from fully re-derived state.
  retained_matrix_ = RetainedMatrix();
  Recluster(/*dirty=*/{});
  stages.Finish(Series().cluster);

  last_mined_size_ = store_->size();
  refreshes_since_full_ = 0;
  RebuildSessionIndex();
}

void QueryMiner::RefreshIncremental(storage::ChangeDelta delta) {
  storage::QueryStore::ScopedPublishBatch batch(store_);
  last_stats_ = MinerRefreshStats{};
  last_stats_.ran = true;
  last_stats_.full = false;
  last_stats_.appended = delta.appended.size();
  last_stats_.structurally_dirty = delta.StructuralSize();
  Series().refreshes_incremental->Increment();
  StageTimer stages;

  // Sessions: tail-extend append-only users, re-segment the rest.
  {
    SessionDelta session_delta;
    session_delta.appended = delta.appended;
    session_delta.structurally_dirty = delta.rewritten;
    session_delta.structurally_dirty.insert(
        session_delta.structurally_dirty.end(), delta.deleted.begin(),
        delta.deleted.end());
    session_delta.structurally_dirty.insert(
        session_delta.structurally_dirty.end(), delta.undeleted.begin(),
        delta.undeleted.end());
    session_delta.structurally_dirty.insert(
        session_delta.structurally_dirty.end(),
        delta.session_reassigned.begin(), delta.session_reassigned.end());
    storage::ChangeTracker::ScopedSuppress suppress(&tracker_);
    SessionUpdateStats s = UpdateSessions(store_, options_.sessionizer,
                                          &sessions_, session_delta);
    last_stats_.users_extended = s.users_extended;
    last_stats_.users_resegmented = s.users_resegmented;
  }
  stages.Finish(Series().sessionize);

  // Transactions and popularity: point-resync every dirty id against
  // the store's current state (order-free, so overlapping sets — an id
  // appended then deleted in one cycle — need no special casing).
  // Output-signature syncs change neither features nor visibility, so
  // they stay out of this loop.
  auto resync_all = [&](const std::vector<storage::QueryId>& ids) {
    for (storage::QueryId id : ids) {
      association_state_.Resync(*store_, id);
      if (popularity_.CanApplyDeltas()) popularity_.Resync(*store_, id);
    }
  };
  resync_all(delta.appended);
  resync_all(delta.rewritten);
  resync_all(delta.deleted);
  resync_all(delta.undeleted);
  rules_ = association_state_.Mine();
  last_stats_.rules_fresh_counts = association_state_.last_fresh_counts();
  stages.Finish(Series().association);
  if (!popularity_.CanApplyDeltas()) {
    // Decay enabled: scores depend on "now", so deltas cannot reproduce
    // a rebuild. Still O(n) — never the refresh bottleneck.
    popularity_.Build(*store_, clock_->Now(), options_.popularity);
  }
  stages.Finish(Series().popularity);

  // Clustering: ids whose signatures changed (rewrites replace the
  // whole signature, output syncs its output-row section — both feed
  // CombinedSimilarity; tombstone flips conservatively too) are dirty,
  // so their retained rows are not copied. The window's matrix is
  // rebuilt from the retained one: only pairs touching the delta
  // compute.
  std::vector<storage::QueryId> dirty = delta.rewritten;
  dirty.insert(dirty.end(), delta.output_synced.begin(),
               delta.output_synced.end());
  dirty.insert(dirty.end(), delta.deleted.begin(), delta.deleted.end());
  dirty.insert(dirty.end(), delta.undeleted.begin(), delta.undeleted.end());
  SortUnique(&dirty);
  Recluster(dirty);
  stages.Finish(Series().cluster);

  last_mined_size_ = store_->size();
  RebuildSessionIndex();
}

bool QueryMiner::MaybeRefresh() {
  if (store_->size() < last_mined_size_ + options_.refresh_threshold &&
      last_mined_size_ != 0) {
    return false;
  }
  if (last_mined_size_ == 0) {
    RunAll();
    return true;
  }
  if (options_.full_rebuild_interval != 0 &&
      refreshes_since_full_ + 1 >= options_.full_rebuild_interval) {
    RunAll();
    return true;
  }
  storage::ChangeDelta delta = tracker_.Drain();
  // Consistency guard: bulk restores (RestoreAppend) bypass the change
  // feed by design; if the store grew more than the feed saw, the delta
  // is not the whole story — rebuild.
  if (last_mined_size_ + delta.appended.size() != store_->size()) {
    RunAll();
    return true;
  }
  ++refreshes_since_full_;
  RefreshIncremental(std::move(delta));
  return true;
}

const Session* QueryMiner::FindSession(storage::SessionId id) const {
  // RenumberAndAssign makes session ids their own index.
  if (id >= 0 && static_cast<size_t>(id) < sessions_.size() &&
      sessions_[static_cast<size_t>(id)].id == id) {
    return &sessions_[static_cast<size_t>(id)];
  }
  return nullptr;
}

std::vector<const Session*> QueryMiner::SessionsOfUser(
    const std::string& user) const {
  std::vector<const Session*> out;
  auto it = sessions_of_user_.find(user);
  if (it == sessions_of_user_.end()) return out;
  out.reserve(it->second.size());
  for (size_t idx : it->second) out.push_back(&sessions_[idx]);
  return out;
}

void QueryMiner::RebuildSessionIndex() {
  sessions_of_user_.clear();
  for (size_t i = 0; i < sessions_.size(); ++i) {
    sessions_of_user_[sessions_[i].user].push_back(i);
  }
  for (auto& [user, idxs] : sessions_of_user_) {
    std::sort(idxs.begin(), idxs.end(), [&](size_t a, size_t b) {
      if (sessions_[a].start != sessions_[b].start) {
        return sessions_[a].start > sessions_[b].start;
      }
      return a > b;
    });
  }
}

}  // namespace cqms::miner
