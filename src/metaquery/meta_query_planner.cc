#include "metaquery/meta_query_planner.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/clock.h"
#include "common/interner.h"
#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace cqms::metaquery {

using storage::QueryId;
using storage::QueryRecord;
using storage::ScoringColumns;
using storage::StatementId;

namespace {

// Per-generator registry series, resolved once per process so an
// Execute pays exactly four relaxed fetch_adds plus two for the
// visibility-cache tallies — nothing name-keyed on the hot path.
struct PlannerSeries {
  obs::Counter* queries;
  obs::Counter* candidates;  ///< Records.
  obs::Counter* statements;  ///< Distinct statements evaluated.
  obs::Counter* matches;
};

PlannerSeries MakeSeries(const char* label) {
  auto& reg = obs::MetricsRegistry::Global();
  std::string tag = std::string("{generator=\"") + label + "\"}";
  PlannerSeries s;
  s.queries = reg.GetCounter("cqms_planner_queries_total" + tag);
  s.candidates = reg.GetCounter("cqms_planner_candidates_total" + tag);
  s.statements = reg.GetCounter("cqms_planner_statements_total" + tag);
  s.matches = reg.GetCounter("cqms_planner_matches_total" + tag);
  return s;
}

const PlannerSeries& SeriesFor(CandidateGenerator g) {
  static const PlannerSeries series[4] = {
      MakeSeries("posting_intersection"), MakeSeries("lsh_buckets"),
      MakeSeries("table_union"), MakeSeries("full_scan")};
  return series[static_cast<int>(g)];
}

obs::Counter* VisibilityHitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cqms_planner_visibility_cache_hits_total");
  return c;
}

obs::Counter* VisibilityMissesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cqms_planner_visibility_cache_misses_total");
  return c;
}

}  // namespace

MetaQueryResponse MetaQueryPlanner::Execute(
    const std::string& viewer, const MetaQueryRequest& request) const {
  // Route through the backing object's cache pool so repeated queries
  // keep their memoized ACL decisions warm.
  if (view_.view() != nullptr) {
    return Execute(request, &view_.view()->CacheFor(viewer));
  }
  return Execute(request, &view_.live_store()->CacheFor(viewer));
}

MetaQueryResponse MetaQueryPlanner::Execute(
    const MetaQueryRequest& request,
    storage::VisibilityCache* visibility) const {
  MetaQueryResponse resp;
  const storage::StoreView& store = view_;
  const ScoringColumns& cols = store.scoring();
  const storage::PostingIndex& postings = store.postings();

  // Tracing is opt-in per request; with trace == nullptr the only cost
  // below is one timer start and a handful of relaxed counter adds.
  obs::ExecTrace* const trace = request.trace;
  WallTimer timer;
  Micros last_mark = 0;
  auto span = [&](const char* name) {
    if (trace == nullptr) return;
    Micros now = timer.ElapsedMicros();
    trace->Span(name, static_cast<uint64_t>(now - last_mark));
    last_mark = now;
  };
  // This call's visibility lookups; the cache may be shared with other
  // threads, so it keeps no counters of its own.
  storage::VisibilityCache::Tally vis;

  // --- resolve the keyword predicate to interned token Symbols once ----
  // A token the interner has never seen occurs in no logged query:
  // match-all becomes unsatisfiable, match-any drops the token.
  std::vector<Symbol> keyword_syms;
  if (request.keyword.has_value()) {
    std::vector<std::string> words = ExtractWords(request.keyword->words);
    if (words.empty()) return resp;  // No extractable token: no match.
    for (const std::string& w : words) {
      Symbol s = GlobalInterner().Find(w);
      if (s == kInvalidSymbol) {
        if (request.keyword->match_all) return resp;
        continue;
      }
      keyword_syms.push_back(s);
    }
    if (keyword_syms.empty()) return resp;  // match-any, all unknown.
  }
  // An empty substring needle matches nothing.
  if (request.substring.has_value() && request.substring->empty()) return resp;

  // --- gather every posting list the predicates are backed by ----------
  // Feature lists hold statement ids. The user list holds record ids; it
  // contributes the statements its records hold, and narrows each
  // candidate statement to that user's records.
  std::deque<std::vector<StatementId>> owned;  // materialized unions
  std::vector<const std::vector<StatementId>*> lists;
  if (request.keyword.has_value()) {
    if (request.keyword->match_all) {
      for (Symbol s : keyword_syms) {
        const std::vector<StatementId>& ids =
            postings.StatementsWithKeywordSymbol(s);
        if (ids.empty()) return resp;
        lists.push_back(&ids);
      }
    } else {
      // match-any: one union list, still intersectable with the rest.
      std::vector<StatementId> merged;
      for (Symbol s : keyword_syms) {
        const std::vector<StatementId>& ids =
            postings.StatementsWithKeywordSymbol(s);
        merged.insert(merged.end(), ids.begin(), ids.end());
      }
      SortUnique(&merged);
      if (merged.empty()) return resp;
      owned.push_back(std::move(merged));
      lists.push_back(&owned.back());
    }
  }
  Symbol user_filter = kInvalidSymbol;
  bool by_user = false;
  if (request.feature.has_value()) {
    const FeatureQuery& f = *request.feature;
    for (const std::string& t : f.tables()) {
      lists.push_back(&postings.StatementsUsingTable(t));
    }
    for (const auto& [rel, attr] : f.attributes()) {
      lists.push_back(&postings.StatementsUsingAttribute(rel, attr));
    }
    for (const auto& pc : f.predicates()) {
      lists.push_back(
          &postings.StatementsUsingAttribute(pc.relation, pc.attribute));
    }
    if (f.user().has_value()) {
      by_user = true;
      // The owner column holds each record's interned user, so the
      // per-record user check is one Symbol compare.
      user_filter = GlobalInterner().Find(*f.user());
      std::vector<StatementId> held;
      for (QueryId id : postings.ByUser(*f.user())) {
        held.push_back(cols.statement_of(id));
      }
      SortUnique(&held);
      owned.push_back(std::move(held));
      lists.push_back(&owned.back());
    }
  }
  if (request.structure.has_value()) {
    for (const std::string& t : request.structure->required_tables) {
      lists.push_back(&postings.StatementsUsingTable(t));
    }
  }

  span("resolve_predicates");

  // --- choose the candidate generator ----------------------------------
  const QueryRecord* probe =
      request.similarity.has_value() ? request.similarity->probe : nullptr;
  std::vector<StatementId> candidates;
  bool full_scan = false;
  if (!lists.empty()) {
    // Exact generator: intersect smallest-first; the smallest list is
    // the selectivity estimate that bounds the loop.
    resp.generator = CandidateGenerator::kPostingIntersection;
    std::sort(lists.begin(), lists.end(),
              [](const auto* a, const auto* b) { return a->size() < b->size(); });
    candidates = *lists[0];
    for (size_t i = 1; i < lists.size() && !candidates.empty(); ++i) {
      std::vector<StatementId> next;
      std::set_intersection(candidates.begin(), candidates.end(),
                            lists[i]->begin(), lists[i]->end(),
                            std::back_inserter(next));
      candidates = std::move(next);
    }
  } else if (probe != nullptr) {
    KnnCandidates kc =
        KnnCandidateIds(store, *probe, request.similarity->candidates);
    full_scan = kc.full_scan();
    candidates = std::move(kc.statements);
    resp.generator = kc.source;
  } else {
    full_scan = true;
    resp.generator = CandidateGenerator::kFullScan;
  }
  span("generate_candidates");

  // --- filter + score: once per statement, then per record -------------
  const bool score_mode = request.order == ResultOrder::kScore;
  // A keyword predicate always adds its posting lists to the
  // intersection, so keyword membership needs no recheck. The feature
  // conditions need none either when the candidates came from
  // intersecting this query's own posting lists and every condition is
  // index-backed (IndexCovered): membership is already exact — the
  // indexes are purged on rewrite — so the per-candidate record fetch
  // is pure overhead.
  const bool recheck_feature =
      request.feature.has_value() &&
      (resp.generator != CandidateGenerator::kPostingIntersection ||
       !request.feature->IndexCovered());
  SignatureView probe_view;
  if (probe != nullptr) probe_view = ViewOfSignature(*probe);
  const std::string lowered_needle =
      request.substring.has_value() ? ToLower(*request.substring) : std::string();

  // Loop-invariant ranking normalizers, hoisted.
  const Micros max_ts = std::max<Micros>(1, store.max_timestamp());
  const double inv_log_size =
      1.0 / std::log1p(static_cast<double>(store.size()) + 1.0);

  std::vector<MetaQueryMatch> matched;
  if (!full_scan) matched.reserve(std::min<size_t>(candidates.size(), 1024));
  uint64_t candidate_records = 0;
  uint64_t statements_evaluated = 0;
  // One statement's records that passed the cheap record checks.
  std::vector<QueryId> passing;

  auto consider = [&](StatementId s) {
    // Cheap record checks first, so a statement none of whose records
    // the viewer may see is never scored.
    passing.clear();
    size_t statement_candidates = 0;
    for (QueryId id : postings.RecordsOf(s)) {
      if (by_user && cols.owner(id) != user_filter) continue;
      ++statement_candidates;
      if (!visibility->VisibleId(id, &vis)) continue;
      if (request.ranking.exclude_flagged &&
          (cols.flags(id) &
           (storage::kFlagSchemaBroken | storage::kFlagObsolete)) != 0) {
        continue;
      }
      passing.push_back(id);
    }
    if (statement_candidates == 0) return;
    candidate_records += statement_candidates;
    ++statements_evaluated;
    if (passing.empty()) return;

    // Statement checks: they read only what the statement's records
    // share, so they run once for all of them.
    const ScoringColumns::StatementRow row = cols.statement_row(s);
    if (request.substring.has_value() &&
        row.lowered_text().find(lowered_needle) == std::string_view::npos) {
      return;
    }
    if (request.structure.has_value() &&
        !MatchesPattern(*store.Get(passing.front()), *request.structure)) {
      return;
    }
    // Similarity is a function of the statement. A row whose runs
    // overflowed the columns' u16 lengths is not valid there; its
    // records' shared signature holds the full runs.
    double sim = 0;
    if (probe != nullptr) {
      const SignatureView statement_view =
          row.signature_valid() ? ViewOfStatement(row)
                                : ViewOfSignature(*store.Get(passing.front()));
      sim = CombinedSimilarity(probe_view, statement_view,
                               request.similarity->weights);
      if (sim < request.ranking.min_similarity) return;
    }
    const double popularity =
        score_mode
            ? std::log1p(static_cast<double>(row.popularity())) * inv_log_size
            : 0;

    // The remaining record checks, most expensive last: query-by-data
    // may re-execute the query.
    for (QueryId id : passing) {
      if (recheck_feature && !request.feature->MatchesRecord(*store.Get(id))) {
        continue;
      }
      if (request.data.has_value() &&
          !RecordSatisfiesDataExamples(*store.Get(id), request.data->examples,
                                       request.data->options)) {
        continue;
      }
      MetaQueryMatch m;
      m.id = id;
      m.similarity = sim;
      if (score_mode) {
        double recency = max_ts > 0 ? static_cast<double>(cols.timestamp(id)) /
                                          static_cast<double>(max_ts)
                                    : 0;
        m.score = request.ranking.w_similarity * sim +
                  request.ranking.w_popularity * popularity +
                  request.ranking.w_quality * cols.quality(id) +
                  request.ranking.w_recency * recency;
      }
      matched.push_back(m);
    }
  };

  if (full_scan) {
    // Every live statement; released ids have no records.
    const size_t bound = postings.records_of.size();
    for (size_t s = 0; s < bound; ++s) consider(static_cast<StatementId>(s));
  } else {
    for (StatementId s : candidates) consider(s);
  }
  resp.candidates_considered = full_scan ? store.size() : candidate_records;
  span("filter_score");
  const size_t matched_prefilter = matched.size();

  // Matches come out grouped by statement; both orders are total (ids
  // are unique), so the answer does not depend on the walk order.
  const size_t keep = request.limit == 0
                          ? matched.size()
                          : std::min(request.limit, matched.size());
  auto rank = [&](auto before) {
    if (keep == matched.size()) {
      std::sort(matched.begin(), matched.end(), before);
    } else {
      std::partial_sort(matched.begin(), matched.begin() + keep,
                        matched.end(), before);
    }
  };
  if (score_mode) {
    rank([](const MetaQueryMatch& a, const MetaQueryMatch& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.id < b.id;
    });
  } else {
    rank([](const MetaQueryMatch& a, const MetaQueryMatch& b) {
      return a.id < b.id;
    });
  }
  matched.resize(keep);
  span("rank");
  resp.matches = std::move(matched);

  // --- flush instrumentation -------------------------------------------
  const PlannerSeries& series = SeriesFor(resp.generator);
  series.queries->Increment();
  series.candidates->Add(resp.candidates_considered);
  series.statements->Add(statements_evaluated);
  series.matches->Add(resp.matches.size());
  VisibilityHitsCounter()->Add(vis.hits);
  VisibilityMissesCounter()->Add(vis.misses);
  if (trace != nullptr) {
    trace->generator = CandidateGeneratorName(resp.generator);
    trace->Count("candidates", resp.candidates_considered);
    trace->Count("statements", statements_evaluated);
    trace->Count("matches_prefilter", matched_prefilter);
    trace->Count("matches", resp.matches.size());
    trace->Count("visibility_cache_hits", vis.hits);
    trace->Count("visibility_cache_misses", vis.misses);
  }
  return resp;
}

}  // namespace cqms::metaquery
