#include "assist/recommend.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/sorted_vector.h"
#include "sql/diff.h"
#include "storage/record_builder.h"

namespace cqms::assist {

namespace {

/// Skeleton fingerprints of every query a user has issued — a cheap
/// signature of their "session patterns". Sorted and deduplicated so
/// overlap checks are a linear merge, not set lookups.
std::vector<uint64_t> UserSkeletons(const storage::QueryStore& store,
                                    const std::string& user) {
  std::vector<uint64_t> out;
  out.reserve(store.QueriesByUser(user).size());
  for (storage::QueryId id : store.QueriesByUser(user)) {
    const storage::QueryRecord* r = store.Get(id);
    if (r != nullptr && !r->parse_failed()) {
      out.push_back(r->statement().skeleton_fingerprint);
    }
  }
  SortUnique(&out);
  return out;
}

}  // namespace

RecommendationEngine::RecommendationEngine(const storage::QueryStore* store)
    : store_(store), executor_(store) {}

Result<std::vector<Recommendation>> RecommendationEngine::Recommend(
    const std::string& viewer, const std::string& sql_text, size_t k,
    const RecommendOptions& options) const {
  storage::QueryRecord probe = storage::BuildRecordFromText(
      sql_text, viewer, 0, storage::SignatureMode::kTransient);
  if (probe.parse_failed()) {
    return Status::ParseError("cannot recommend for unparsable text: " +
                              probe.stats.error);
  }

  // Over-fetch to survive dedup/session filtering.
  metaquery::MetaQueryRequest request;
  request.SimilarTo(probe, options.weights)
      .RankedBy(options.ranking)
      .Limit(k * 4 + 8);
  const metaquery::MetaQueryResponse response =
      executor_.Execute(viewer, request);

  std::vector<uint64_t> viewer_skeletons;
  std::unordered_map<std::string, std::vector<uint64_t>> author_skeletons;
  if (options.restrict_to_similar_sessions) {
    viewer_skeletons = UserSkeletons(*store_, viewer);
  }

  std::vector<Recommendation> out;
  std::set<uint64_t> seen_fingerprints;
  for (const metaquery::MetaQueryMatch& n : response.matches) {
    if (out.size() >= k) break;
    const storage::QueryRecord* r = store_->Get(n.id);
    if (r == nullptr || r->parse_failed()) continue;
    if (options.deduplicate && !seen_fingerprints.insert(r->fingerprint).second) {
      continue;
    }
    if (options.restrict_to_similar_sessions && r->user != viewer) {
      // Keep only authors whose history shares a skeleton with the viewer;
      // each author's history is collected and sorted at most once.
      auto [it, inserted] = author_skeletons.try_emplace(r->user);
      if (inserted) it->second = UserSkeletons(*store_, r->user);
      if (!SortedIntersects(it->second, viewer_skeletons)) continue;
    }
    Recommendation rec;
    rec.id = n.id;
    rec.score = n.score;
    rec.similarity = n.similarity;
    rec.text = r->text;
    rec.diff = sql::DiffQueries(probe.components, r->components).Summary();
    if (!r->annotations.empty()) {
      rec.annotation = r->annotations.back().text;
    }
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace cqms::assist
