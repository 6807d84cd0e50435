#include "storage/record_builder.h"

#include <algorithm>

#include "common/hash.h"
#include "common/interner.h"
#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "sql/canonical.h"
#include "sql/parser.h"

namespace cqms::storage {

namespace {

/// Id for a string in transient mode: the real interned id when the
/// string was ever logged, else a hash-derived id with the high bit set
/// (interner ids are dense from 0, so the ranges cannot collide while
/// fewer than 2^31 strings are interned).
Symbol TransientSymbol(const StringInterner& interner, std::string_view s) {
  Symbol known = interner.Find(s);
  if (known != kInvalidSymbol) return known;
  return 0x80000000u | static_cast<Symbol>(Fnv1a64(s) >> 33);
}

}  // namespace

void ComputeSimilaritySignature(QueryRecord* record, SignatureMode mode) {
  StringInterner& interner = GlobalInterner();
  auto sym = [&interner, mode](std::string_view s) {
    return mode == SignatureMode::kInterned ? interner.Intern(s)
                                            : TransientSymbol(interner, s);
  };
  Statement* statement = record->MutableStatement();
  SimilaritySignature sig;

  if (statement->text_parses) {
    const sql::QueryComponents& c = statement->components;
    sig.tables.reserve(c.tables.size());
    for (const std::string& t : c.tables) sig.tables.push_back(sym(t));
    sig.predicate_skeletons.reserve(c.predicates.size());
    for (const auto& p : c.predicates) {
      sig.predicate_skeletons.push_back(sym(p.Skeleton()));
    }
    sig.attributes.reserve(c.attributes.size());
    for (const auto& [rel, attr] : c.attributes) {
      sig.attributes.push_back(sym(rel + "." + attr));
    }
    sig.projections.reserve(c.projections.size());
    for (const std::string& p : c.projections) {
      sig.projections.push_back(sym(p));
    }
    SortUnique(&sig.tables);
    SortUnique(&sig.predicate_skeletons);
    SortUnique(&sig.attributes);
    SortUnique(&sig.projections);
  }

  std::vector<std::string> words = ExtractWords(statement->text);
  sig.text_tokens.reserve(words.size());
  for (const std::string& w : words) sig.text_tokens.push_back(sym(w));
  SortUnique(&sig.text_tokens);

  sig.valid = true;
  sig.transient = mode == SignatureMode::kTransient;
  statement->signature = std::move(sig);
  UpdateOutputSignature(record);
}

bool UpdateOutputSignature(QueryRecord* record) {
  const OutputSummary& summary = record->summary;
  std::vector<uint64_t> rows;
  rows.reserve(summary.sample_rows.size());
  for (const db::Row& r : summary.sample_rows) {
    rows.push_back(Fnv1a64(db::RowToString(r)));
  }
  SortUnique(&rows);
  return SetOutputSignature(
      record, std::move(rows),
      summary.sample_rows.empty() && summary.total_rows == 0 &&
          !summary.column_names.empty());
}

bool SetOutputSignature(QueryRecord* record, std::vector<uint64_t> output_rows,
                        bool output_empty_computed) {
  const SimilaritySignature& current = record->statement().signature;
  if (current.output_rows == output_rows &&
      current.output_empty_computed == output_empty_computed) {
    return false;
  }
  SimilaritySignature& sig = record->MutableStatement()->signature;
  sig.output_rows = std::move(output_rows);
  sig.output_empty_computed = output_empty_computed;
  return true;
}

QueryRecord BuildRecordFromText(std::string text, std::string user,
                                Micros timestamp, SignatureMode mode) {
  ParsedTree parsed = ParseText(text);
  return BuildRecordFromTree(std::move(text), std::move(user), timestamp,
                             std::move(parsed), mode);
}

ParsedTree ParseText(std::string_view text) {
  auto parsed = sql::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return std::shared_ptr<const sql::SelectStatement>(std::move(parsed).value());
}

QueryRecord BuildRecordFromTree(std::string text, std::string user,
                                Micros timestamp, ParsedTree parsed,
                                SignatureMode mode) {
  QueryRecord record;
  record.user = std::move(user);
  record.timestamp = timestamp;
  Statement* statement = record.MutableStatement();
  statement->text = std::move(text);

  if (parsed.ok()) {
    std::shared_ptr<const sql::SelectStatement> ast =
        std::move(parsed).value();
    sql::CanonicalForms canonical = sql::CanonicalTextAndSkeleton(*ast);
    record.fingerprint = Fnv1a64(canonical.text);
    statement->skeleton_fingerprint = Fnv1a64(canonical.skeleton);
    statement->canonical_text = std::move(canonical.text);
    statement->skeleton = std::move(canonical.skeleton);
    statement->components = sql::CollectComponents(*ast);
    statement->tree = LazyParseTree(std::move(ast));
    statement->text_parses = true;
  } else {
    record.stats.succeeded = false;
    record.stats.error = parsed.status().ToString();
  }
  ComputeSimilaritySignature(&record, mode);
  return record;
}

}  // namespace cqms::storage
