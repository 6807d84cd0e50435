#include "miner/popularity.h"

#include <algorithm>
#include <cmath>

namespace cqms::miner {

double PopularityTracker::Decay(Micros age) const {
  if (options_.half_life <= 0) return 1.0;
  return std::exp2(-static_cast<double>(age) /
                   static_cast<double>(options_.half_life));
}

void PopularityTracker::Build(const storage::QueryStore& store, Micros now) {
  Build(store, now, Options());
}

void PopularityTracker::Build(const storage::QueryStore& store, Micros now,
                              Options options) {
  options_ = options;
  now_ = now;
  table_scores_.clear();
  skeleton_scores_.clear();
  attribute_scores_.clear();
  fingerprint_scores_.clear();
  contributions_.clear();
  contributions_built_ = true;

  for (const storage::QueryRecord& r : store.records()) {
    if (r.HasFlag(storage::kFlagDeleted) || r.parse_failed()) continue;
    double w = Decay(std::max<Micros>(0, now - r.timestamp));
    for (const std::string& t : r.components->tables) table_scores_[t] += w;
    for (const auto& [rel, attr] : r.components->attributes) {
      attribute_scores_[rel + "." + attr] += w;
    }
    skeleton_scores_[r.statement().skeleton_fingerprint] += w;
    fingerprint_scores_[r.fingerprint] += w;
    contributions_[r.id] = ContributionOf(r);
  }
}

PopularityTracker::Contribution PopularityTracker::ContributionOf(
    const storage::QueryRecord& record) {
  Contribution c;
  c.tables = record.components->tables;
  c.attribute_keys.reserve(record.components->attributes.size());
  for (const auto& [rel, attr] : record.components->attributes) {
    c.attribute_keys.push_back(rel + "." + attr);
  }
  c.skeleton_fp = record.statement().skeleton_fingerprint;
  c.fingerprint = record.fingerprint;
  return c;
}

void PopularityTracker::Apply(const Contribution& c, double weight) {
  auto bump = [&](auto* map, const auto& key) {
    auto [it, inserted] = map->try_emplace(key, 0.0);
    it->second += weight;
    // Unit weights keep scores exactly integer-valued, so a fully
    // retracted key lands on exactly 0.0 — erase it to match the maps a
    // fresh Build (which never sees the key) would hold.
    if (it->second <= 0.0) map->erase(it);
  };
  for (const std::string& t : c.tables) bump(&table_scores_, t);
  for (const std::string& a : c.attribute_keys) bump(&attribute_scores_, a);
  bump(&skeleton_scores_, c.skeleton_fp);
  bump(&fingerprint_scores_, c.fingerprint);
}

void PopularityTracker::Resync(const storage::QueryStore& store,
                               storage::QueryId id) {
  auto it = contributions_.find(id);
  if (it != contributions_.end()) {
    Apply(it->second, -1.0);
    contributions_.erase(it);
  }
  const storage::QueryRecord* r = store.Get(id);
  if (r == nullptr || r->HasFlag(storage::kFlagDeleted) || r->parse_failed()) {
    return;
  }
  Contribution c = ContributionOf(*r);
  Apply(c, 1.0);
  contributions_[id] = std::move(c);
}

double PopularityTracker::TableScore(const std::string& table) const {
  auto it = table_scores_.find(table);
  return it == table_scores_.end() ? 0 : it->second;
}

double PopularityTracker::SkeletonScore(uint64_t skeleton_fp) const {
  auto it = skeleton_scores_.find(skeleton_fp);
  return it == skeleton_scores_.end() ? 0 : it->second;
}

double PopularityTracker::AttributeScore(const std::string& relation,
                                         const std::string& attribute) const {
  auto it = attribute_scores_.find(relation + "." + attribute);
  return it == attribute_scores_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, double>> PopularityTracker::TopTables(
    size_t n) const {
  std::vector<std::pair<std::string, double>> out(table_scores_.begin(),
                                                  table_scores_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<storage::QueryId> PopularityTracker::TopQueriesForTable(
    const storage::QueryStore& store, const std::string& table, size_t n) const {
  // One representative (first occurrence) per canonical fingerprint.
  std::map<uint64_t, storage::QueryId> representative;
  for (storage::QueryId id : store.QueriesUsingTable(table)) {
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr || r->HasFlag(storage::kFlagDeleted) || !r->stats.succeeded) {
      continue;
    }
    representative.emplace(r->fingerprint, id);
  }
  std::vector<std::pair<double, storage::QueryId>> scored;
  scored.reserve(representative.size());
  for (const auto& [fp, id] : representative) {
    auto it = fingerprint_scores_.find(fp);
    double score = it == fingerprint_scores_.end() ? 0 : it->second;
    scored.emplace_back(score, id);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<storage::QueryId> out;
  for (size_t i = 0; i < scored.size() && i < n; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace cqms::miner
