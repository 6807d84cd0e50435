#include "sql/canonical.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "sql/printer.h"

namespace cqms::sql {

namespace {

/// Rebuilds a left-deep AND chain from sorted conjunct clones.
std::unique_ptr<Expr> RebuildConjunction(std::vector<std::unique_ptr<Expr>> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  std::unique_ptr<Expr> acc = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::MakeBinary(BinaryOp::kAnd, std::move(acc), std::move(conjuncts[i]));
  }
  return acc;
}

void CanonicalizeInPlace(SelectStatement* stmt) {
  PrintOptions canon;
  canon.lowercase_identifiers = true;

  // Sort top-level WHERE conjuncts by printed form.
  if (stmt->where) {
    auto conjuncts = SplitConjuncts(stmt->where.get());
    if (conjuncts.size() > 1) {
      std::vector<std::pair<std::string, std::unique_ptr<Expr>>> keyed;
      keyed.reserve(conjuncts.size());
      for (const Expr* c : conjuncts) {
        keyed.emplace_back(PrintExpr(*c, canon), c->Clone());
      }
      std::sort(keyed.begin(), keyed.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<std::unique_ptr<Expr>> sorted;
      sorted.reserve(keyed.size());
      for (auto& [key, expr] : keyed) sorted.push_back(std::move(expr));
      stmt->where = RebuildConjunction(std::move(sorted));
    }
  }

  // Sort the comma-joined suffix of the FROM list. Only reorder runs of
  // implicit cross joins (no ON conditions); explicit JOIN chains encode
  // semantics in their order.
  if (stmt->from.size() > 1) {
    bool all_implicit = true;
    for (size_t i = 1; i < stmt->from.size(); ++i) {
      if (stmt->from[i].explicit_join_syntax || stmt->from[i].join_condition) {
        all_implicit = false;
        break;
      }
    }
    if (all_implicit) {
      std::stable_sort(stmt->from.begin(), stmt->from.end(),
                       [](const TableRef& a, const TableRef& b) {
                         return a.table < b.table;
                       });
      // Re-establish the invariant: first entry has no join type.
      stmt->from[0].join_type = JoinType::kNone;
      for (size_t i = 1; i < stmt->from.size(); ++i) {
        stmt->from[i].join_type = JoinType::kCross;
        stmt->from[i].explicit_join_syntax = false;
      }
    }
  }

  // Recurse into subqueries.
  WalkStatementExprs(
      stmt,
      [](Expr* e) {
        if (e->subquery) CanonicalizeInPlace(e->subquery.get());
      },
      /*enter_subqueries=*/false);

  if (stmt->union_next) CanonicalizeInPlace(stmt->union_next.get());
}

}  // namespace

std::unique_ptr<SelectStatement> Canonicalize(const SelectStatement& stmt) {
  auto clone = stmt.Clone();
  CanonicalizeInPlace(clone.get());
  return clone;
}

namespace {

PrintOptions CanonicalPrintOptions(bool strip_constants) {
  PrintOptions opts;
  opts.lowercase_identifiers = true;
  opts.strip_constants = strip_constants;
  return opts;
}

}  // namespace

std::string CanonicalText(const SelectStatement& stmt) {
  return PrintStatement(*Canonicalize(stmt), CanonicalPrintOptions(false));
}

std::string CanonicalSkeleton(const SelectStatement& stmt) {
  return PrintStatement(*Canonicalize(stmt), CanonicalPrintOptions(true));
}

CanonicalForms CanonicalTextAndSkeleton(const SelectStatement& stmt) {
  auto canon = Canonicalize(stmt);
  return {PrintStatement(*canon, CanonicalPrintOptions(false)),
          PrintStatement(*canon, CanonicalPrintOptions(true))};
}

uint64_t Fingerprint(const SelectStatement& stmt) {
  return Fnv1a64(CanonicalText(stmt));
}

uint64_t SkeletonFingerprint(const SelectStatement& stmt) {
  return Fnv1a64(CanonicalSkeleton(stmt));
}

}  // namespace cqms::sql
