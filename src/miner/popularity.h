#ifndef CQMS_MINER_POPULARITY_H_
#define CQMS_MINER_POPULARITY_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "storage/query_store.h"

namespace cqms::miner {

/// Time-decayed popularity statistics over the query log. Ranking
/// functions (§2.3) and the tutorial generator both need "most popular"
/// lists; exponential decay keeps them current as interests shift.
///
/// Incremental maintenance: with decay disabled (half_life == 0 — the
/// default) every event weighs exactly 1.0, so score updates are exact
/// integer arithmetic in doubles and the tracker can fold a mutation
/// delta in place (Resync) instead of rescanning the log, producing
/// scores bit-identical to a full Build in any order. Build keeps the
/// per-id contribution bookkeeping this needs (the stored items to
/// subtract when a record is rewritten or deleted — the record itself
/// has already changed by the time the change feed fires).
/// With decay enabled, scores depend on "now", so the miner falls back
/// to full rebuilds (still O(n), never the bottleneck).
class PopularityTracker {
 public:
  struct Options {
    /// Weight of an event halves every `half_life` (0 = no decay).
    Micros half_life = 0;
  };

  /// Builds scores from the entire (non-deleted) log as of time `now`.
  void Build(const storage::QueryStore& store, Micros now, Options options);

  /// Convenience overload: no decay.
  void Build(const storage::QueryStore& store, Micros now);

  /// True when Resync may be used instead of a rebuild: a Build has run
  /// and decay is off.
  bool CanApplyDeltas() const {
    return contributions_built_ && options_.half_life <= 0;
  }

  /// Re-derives one record's contribution from its current state:
  /// subtracts whatever the record contributed when last seen, then
  /// adds its current contribution if it is live (not deleted, parsed).
  /// Order-free and idempotent — the consumer feeds it every dirty id
  /// of a change-feed delta, in any order. Requires CanApplyDeltas().
  void Resync(const storage::QueryStore& store, storage::QueryId id);

  double TableScore(const std::string& table) const;
  double SkeletonScore(uint64_t skeleton_fp) const;
  double AttributeScore(const std::string& relation, const std::string& attribute) const;

  /// Top-n tables by score, best first.
  std::vector<std::pair<std::string, double>> TopTables(size_t n) const;

  /// Top-n logged queries *using `table`*, best first, scored by the
  /// popularity of their canonical form. Used by the tutorial generator.
  std::vector<storage::QueryId> TopQueriesForTable(const storage::QueryStore& store,
                                                   const std::string& table,
                                                   size_t n) const;

  // Full score maps, for equality assertions in tests and for
  // dashboards; keys with score 0 are never present.
  const std::map<std::string, double>& table_scores() const {
    return table_scores_;
  }
  const std::map<uint64_t, double>& skeleton_scores() const {
    return skeleton_scores_;
  }
  const std::map<std::string, double>& attribute_scores() const {
    return attribute_scores_;
  }
  const std::map<uint64_t, double>& fingerprint_scores() const {
    return fingerprint_scores_;
  }

 private:
  /// What one record added to the score maps when last folded in —
  /// kept so a later Resync can subtract it exactly.
  struct Contribution {
    std::vector<std::string> tables;
    std::vector<std::string> attribute_keys;  ///< "rel.attr"
    uint64_t skeleton_fp = 0;
    uint64_t fingerprint = 0;
  };

  double Decay(Micros age) const;
  /// Adds (weight +1) or subtracts (weight -1) a contribution; erases
  /// keys whose score reaches zero so the maps stay equal to what a
  /// fresh Build produces.
  void Apply(const Contribution& c, double weight);
  static Contribution ContributionOf(const storage::QueryRecord& record);

  Options options_;
  Micros now_ = 0;
  bool contributions_built_ = false;
  std::map<std::string, double> table_scores_;
  std::map<uint64_t, double> skeleton_scores_;
  std::map<std::string, double> attribute_scores_;
  std::map<uint64_t, double> fingerprint_scores_;
  /// Present only for ids currently folded into the scores.
  std::unordered_map<storage::QueryId, Contribution> contributions_;
};

}  // namespace cqms::miner

#endif  // CQMS_MINER_POPULARITY_H_
