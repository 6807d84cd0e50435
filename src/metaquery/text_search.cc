#include "metaquery/text_search.h"

#include <algorithm>

#include "common/string_util.h"

namespace cqms::metaquery {

std::vector<storage::QueryId> KeywordSearch(const storage::QueryStore& store,
                                            const std::string& viewer,
                                            const std::string& words,
                                            bool match_all) {
  std::vector<std::string> tokens = ExtractWords(words);
  std::vector<storage::QueryId> out;
  if (tokens.empty()) return out;

  if (match_all) {
    // Intersect posting lists, smallest first.
    std::vector<std::vector<storage::QueryId>> lists;
    lists.reserve(tokens.size());
    for (const std::string& t : tokens) {
      lists.push_back(store.QueriesWithKeyword(t));
      if (lists.back().empty()) return out;
    }
    std::sort(lists.begin(), lists.end(),
              [](const auto& a, const auto& b) { return a.size() < b.size(); });
    std::vector<storage::QueryId> current = std::move(lists[0]);
    for (size_t i = 1; i < lists.size() && !current.empty(); ++i) {
      std::vector<storage::QueryId> next;
      // Record-id lookups are in ascending id order.
      std::set_intersection(current.begin(), current.end(), lists[i].begin(),
                            lists[i].end(), std::back_inserter(next));
      current = std::move(next);
    }
    for (storage::QueryId id : current) {
      if (store.Visible(viewer, id)) out.push_back(id);
    }
    return out;
  }

  // match-any: union.
  std::vector<storage::QueryId> merged;
  for (const std::string& t : tokens) {
    std::vector<storage::QueryId> ids = store.QueriesWithKeyword(t);
    merged.insert(merged.end(), ids.begin(), ids.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  for (storage::QueryId id : merged) {
    if (store.Visible(viewer, id)) out.push_back(id);
  }
  return out;
}

std::vector<storage::QueryId> SubstringSearch(const storage::QueryStore& store,
                                              const std::string& viewer,
                                              const std::string& needle) {
  std::vector<storage::QueryId> out;
  if (needle.empty()) return out;
  // Lower-case the needle once and scan each record's lowered text,
  // memoized in the scoring columns at append time — the per-record
  // case-folding (and its allocations) is off the scan entirely.
  const std::string lowered = ToLower(needle);
  const storage::ScoringColumns& cols = store.scoring();
  for (const storage::QueryRecord& r : store.records()) {
    if (!store.Visible(viewer, r.id)) continue;
    if (cols.lowered_text(r.id).find(lowered) != std::string_view::npos) {
      out.push_back(r.id);
    }
  }
  return out;
}

}  // namespace cqms::metaquery
