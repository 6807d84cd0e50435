#include "metaquery/similarity.h"

#include <algorithm>

#include "sql/diff.h"

namespace cqms::metaquery {

SignatureView ViewOfSignature(const storage::QueryRecord& record) {
  const storage::SimilaritySignature& sig = record.statement().signature;
  SignatureView v;
  v.tables = sig.tables.data();
  v.n_tables = sig.tables.size();
  v.skeletons = sig.predicate_skeletons.data();
  v.n_skeletons = sig.predicate_skeletons.size();
  v.attributes = sig.attributes.data();
  v.n_attributes = sig.attributes.size();
  v.projections = sig.projections.data();
  v.n_projections = sig.projections.size();
  v.tokens = sig.text_tokens.data();
  v.n_tokens = sig.text_tokens.size();
  v.output_rows = sig.output_rows.data();
  v.n_output = sig.output_rows.size();
  v.output_empty_computed = sig.output_empty_computed;
  v.parsed = !record.parse_failed();
  return v;
}

SignatureView ViewOfStatement(
    const storage::ScoringColumns::StatementRow& row) {
  SignatureView v;
  storage::ScoringColumns::SymbolSpan s = row.tables();
  v.tables = s.data;
  v.n_tables = s.size;
  s = row.skeletons();
  v.skeletons = s.data;
  v.n_skeletons = s.size;
  s = row.attributes();
  v.attributes = s.data;
  v.n_attributes = s.size;
  s = row.projections();
  v.projections = s.data;
  v.n_projections = s.size;
  s = row.tokens();
  v.tokens = s.data;
  v.n_tokens = s.size;
  storage::ScoringColumns::HashSpan h = row.output_rows();
  v.output_rows = h.data;
  v.n_output = h.size;
  v.output_empty_computed = row.output_empty_computed();
  v.parsed = !row.parse_failed();
  return v;
}

double FeatureSimilarity(const SignatureView& a, const SignatureView& b) {
  double tables = SpanJaccard(a.tables, a.n_tables, b.tables, b.n_tables);
  double preds =
      SpanJaccard(a.skeletons, a.n_skeletons, b.skeletons, b.n_skeletons);
  double attrs =
      SpanJaccard(a.attributes, a.n_attributes, b.attributes, b.n_attributes);
  double projs = SpanJaccard(a.projections, a.n_projections, b.projections,
                             b.n_projections);
  return 0.35 * tables + 0.30 * preds + 0.20 * attrs + 0.15 * projs;
}

double TextSimilarity(const SignatureView& a, const SignatureView& b) {
  return SpanJaccard(a.tokens, a.n_tokens, b.tokens, b.n_tokens);
}

double OutputSimilarity(const SignatureView& a, const SignatureView& b) {
  if (a.n_output == 0 && b.n_output == 0) {
    if (a.output_empty_computed && b.output_empty_computed) return 1.0;
    return -1.0;
  }
  if (a.n_output == 0 || b.n_output == 0) return -1.0;
  return SpanJaccard(a.output_rows, a.n_output, b.output_rows, b.n_output);
}

double CombinedSimilarity(const SignatureView& a, const SignatureView& b,
                          const SimilarityWeights& weights) {
  double total_weight = 0;
  double total = 0;
  if (a.parsed && b.parsed && weights.feature > 0) {
    total += weights.feature * FeatureSimilarity(a, b);
    total_weight += weights.feature;
  }
  if (weights.text > 0) {
    total += weights.text * TextSimilarity(a, b);
    total_weight += weights.text;
  }
  if (weights.output > 0) {
    double out_sim = OutputSimilarity(a, b);
    if (out_sim >= 0) {
      total += weights.output * out_sim;
      total_weight += weights.output;
    }
  }
  return total_weight == 0 ? 0 : total / total_weight;
}

double CombinedSimilarity(const storage::QueryRecord& a, const storage::QueryRecord& b,
                          const SimilarityWeights& weights) {
  return CombinedSimilarity(ViewOfSignature(a), ViewOfSignature(b), weights);
}

double NormalizedEditDistance(const sql::QueryComponents& a,
                              const sql::QueryComponents& b) {
  sql::QueryDiff diff = sql::DiffQueries(a, b);
  size_t size_a = a.tables.size() + a.predicates.size() + a.projections.size();
  size_t size_b = b.tables.size() + b.predicates.size() + b.projections.size();
  size_t denom = std::max<size_t>(1, std::max(size_a, size_b));
  double d = static_cast<double>(diff.Distance()) / static_cast<double>(denom);
  return std::min(1.0, d);
}

}  // namespace cqms::metaquery
