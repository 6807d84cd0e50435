#include "assist/correction.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "sql/components.h"
#include "sql/lexer.h"

namespace cqms::assist {

namespace {

/// Known identifiers: table names, column names, and aliases appearing
/// in the text itself.
struct Vocabulary {
  std::set<std::string> tables;   // lower
  std::set<std::string> columns;  // lower
  std::set<std::string> aliases;  // lower
};

Vocabulary BuildVocabulary(const db::Database& database,
                           const std::vector<sql::Token>& tokens) {
  Vocabulary v;
  for (const std::string& t : database.catalog().TableNames()) {
    v.tables.insert(t);
    const db::TableSchema* schema = database.catalog().FindTable(t);
    for (const db::ColumnDef& c : schema->columns()) v.columns.insert(c.name);
  }
  // Alias pass: in FROM clauses, the identifier following a table
  // identifier (or after AS) is an alias.
  bool in_from = false;
  bool expect_table = false;
  bool prev_was_table = false;
  for (const sql::Token& t : tokens) {
    if (t.kind == sql::TokenKind::kKeyword) {
      if (t.text == "FROM" || t.text == "JOIN") {
        in_from = true;
        expect_table = true;
        prev_was_table = false;
        continue;
      }
      if (t.text == "AS") continue;  // keep state
      if (t.text == "WHERE" || t.text == "GROUP" || t.text == "ORDER" ||
          t.text == "HAVING" || t.text == "ON" || t.text == "SELECT" ||
          t.text == "LIMIT" || t.text == "UNION") {
        in_from = false;
        prev_was_table = false;
      }
      continue;
    }
    if (!in_from) continue;
    if (t.kind == sql::TokenKind::kComma) {
      expect_table = true;
      prev_was_table = false;
      continue;
    }
    if (t.kind == sql::TokenKind::kIdentifier) {
      if (expect_table) {
        expect_table = false;
        prev_was_table = true;
      } else if (prev_was_table) {
        v.aliases.insert(ToLower(t.text));
        prev_was_table = false;
      }
    }
  }
  return v;
}

/// Best match within the edit-distance bound, or empty.
std::pair<std::string, size_t> NearestName(const std::string& word,
                                           const std::set<std::string>& names,
                                           size_t max_distance) {
  std::string best;
  size_t best_dist = max_distance + 1;
  for (const std::string& candidate : names) {
    if (candidate == word) return {candidate, 0};
    // Cheap length prune.
    size_t len_diff = candidate.size() > word.size()
                          ? candidate.size() - word.size()
                          : word.size() - candidate.size();
    if (len_diff > max_distance) continue;
    size_t d = EditDistance(word, candidate);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  }
  return {best, best_dist};
}

}  // namespace

CorrectionEngine::CorrectionEngine(const storage::QueryStore* store,
                                   const db::Database* database,
                                   CorrectionOptions options)
    : store_(store), database_(database), options_(options) {}

std::vector<Correction> CorrectionEngine::CorrectIdentifiers(
    const std::string& sql_text) const {
  std::vector<Correction> out;
  auto tokens = sql::Tokenize(sql_text);
  if (!tokens.ok()) return out;
  Vocabulary vocab = BuildVocabulary(*database_, *tokens);

  std::set<std::string> reported;
  for (size_t i = 0; i < tokens->size(); ++i) {
    const sql::Token& t = (*tokens)[i];
    if (t.kind != sql::TokenKind::kIdentifier) continue;
    std::string word = ToLower(t.text);
    if (vocab.tables.count(word) || vocab.columns.count(word) ||
        vocab.aliases.count(word)) {
      continue;
    }
    if (!reported.insert(word).second) continue;

    // Is this position a table position (after FROM/JOIN/comma-in-from)?
    bool table_position = false;
    for (size_t j = i; j > 0; --j) {
      const sql::Token& p = (*tokens)[j - 1];
      if (p.kind == sql::TokenKind::kKeyword) {
        table_position = p.text == "FROM" || p.text == "JOIN";
        break;
      }
      if (p.kind != sql::TokenKind::kComma) break;
    }

    const std::set<std::string>& primary =
        table_position ? vocab.tables : vocab.columns;
    const std::set<std::string>& secondary =
        table_position ? vocab.columns : vocab.tables;
    auto [best, dist] = NearestName(word, primary, options_.max_edit_distance);
    Correction::Kind kind =
        table_position ? Correction::Kind::kTableName : Correction::Kind::kColumnName;
    if (best.empty()) {
      auto [best2, dist2] = NearestName(word, secondary, options_.max_edit_distance);
      best = best2;
      dist = dist2;
      kind = table_position ? Correction::Kind::kColumnName
                            : Correction::Kind::kTableName;
    }
    if (best.empty() || dist == 0) continue;
    double confidence = 1.0 - static_cast<double>(dist) /
                                  static_cast<double>(std::max(word.size(),
                                                               best.size()));
    out.push_back({kind, t.text, best, confidence,
                   "unknown identifier; nearest catalog name (distance " +
                       std::to_string(dist) + ")"});
  }
  std::sort(out.begin(), out.end(), [](const Correction& a, const Correction& b) {
    return a.confidence > b.confidence;
  });
  return out;
}

std::vector<Correction> CorrectionEngine::SuggestPredicateRelaxations(
    const std::string& viewer, const sql::SelectStatement& stmt) const {
  std::vector<Correction> out;
  sql::QueryComponents probe = sql::CollectComponents(stmt);

  for (const sql::PredicateFeature& pred : probe.predicates) {
    if (pred.is_join || pred.constant.empty()) continue;
    std::string skeleton = pred.Skeleton();

    // Collect constants used with the same predicate skeleton by logged
    // queries that returned rows.
    std::map<std::string, size_t> constant_votes;
    for (storage::QueryId id :
         store_->QueriesUsingAttribute(pred.relation, pred.attribute)) {
      if (!store_->Visible(viewer, id)) continue;
      const storage::QueryRecord* r = store_->Get(id);
      if (r == nullptr || !r->stats.succeeded || r->stats.result_rows == 0) continue;
      for (const sql::PredicateFeature& logged : r->components->predicates) {
        if (logged.Skeleton() == skeleton && logged.constant != pred.constant) {
          ++constant_votes[logged.constant];
        }
      }
    }
    if (constant_votes.empty()) continue;
    auto best = std::max_element(
        constant_votes.begin(), constant_votes.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    size_t total = 0;
    for (const auto& [c, n] : constant_votes) total += n;
    sql::PredicateFeature suggestion = pred;
    suggestion.constant = best->first;
    out.push_back({Correction::Kind::kPredicateConstant, pred.ToString(),
                   suggestion.ToString(),
                   static_cast<double>(best->second) / static_cast<double>(total),
                   "this predicate returned rows for " +
                       std::to_string(best->second) + " logged queries"});
  }
  std::sort(out.begin(), out.end(), [](const Correction& a, const Correction& b) {
    return a.confidence > b.confidence;
  });
  return out;
}

Result<std::string> CorrectionEngine::AutoCorrect(const std::string& sql_text) const {
  std::vector<Correction> corrections = CorrectIdentifiers(sql_text);
  std::map<std::string, std::string> replacements;  // lower original -> new
  for (const Correction& c : corrections) {
    if (c.confidence < options_.min_confidence_to_apply) continue;
    replacements.emplace(ToLower(c.original), c.replacement);
  }
  if (replacements.empty()) {
    return Status::NotFound("no confident corrections for this text");
  }
  // Rebuild the text by splicing replacements at identifier tokens.
  CQMS_ASSIGN_OR_RETURN(auto tokens, sql::Tokenize(sql_text));
  std::string out;
  size_t cursor = 0;
  for (const sql::Token& t : tokens) {
    if (t.kind != sql::TokenKind::kIdentifier) continue;
    auto it = replacements.find(ToLower(t.text));
    if (it == replacements.end()) continue;
    out += sql_text.substr(cursor, t.offset - cursor);
    out += it->second;
    cursor = t.offset + t.length;
  }
  out += sql_text.substr(cursor);
  return out;
}

}  // namespace cqms::assist
