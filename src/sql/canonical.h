#ifndef CQMS_SQL_CANONICAL_H_
#define CQMS_SQL_CANONICAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sql/ast.h"

namespace cqms::sql {

/// Returns a canonicalized clone of `stmt`:
///  - top-level WHERE conjuncts sorted by their printed form (AND is
///    commutative, so `a AND b` and `b AND a` become identical);
///  - comma-joined FROM tables sorted by name (pure cross products are
///    order-insensitive; explicit JOIN chains are left untouched);
///  - applied recursively to subqueries and UNION arms.
std::unique_ptr<SelectStatement> Canonicalize(const SelectStatement& stmt);

/// Canonical single-line text: canonicalized structure, lower-cased
/// identifiers. Two queries with equal canonical text are treated as the
/// same query by deduplication and popularity counting.
std::string CanonicalText(const SelectStatement& stmt);

/// Canonical text with all constants replaced by `?` — the query
/// *skeleton*. The paper (§4.3) proposes comparing parse trees "after
/// removing the constants"; equal skeletons mean same structure.
std::string CanonicalSkeleton(const SelectStatement& stmt);

/// Both canonical printings of one statement.
struct CanonicalForms {
  std::string text;      ///< == CanonicalText(stmt)
  std::string skeleton;  ///< == CanonicalSkeleton(stmt)
};

/// CanonicalText and CanonicalSkeleton from a single Canonicalize clone
/// — what logging a query needs (the fingerprints are Fnv1a64 of the
/// two texts) at half the clones and prints of calling each function.
CanonicalForms CanonicalTextAndSkeleton(const SelectStatement& stmt);

/// 64-bit fingerprint of `CanonicalText` (deduplication key).
uint64_t Fingerprint(const SelectStatement& stmt);

/// 64-bit fingerprint of `CanonicalSkeleton` (structure key).
uint64_t SkeletonFingerprint(const SelectStatement& stmt);

}  // namespace cqms::sql

#endif  // CQMS_SQL_CANONICAL_H_
