#ifndef CQMS_STORAGE_RECORD_BUILDER_H_
#define CQMS_STORAGE_RECORD_BUILDER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/query_record.h"

namespace cqms::storage {

/// How signature strings map to Symbols.
enum class SignatureMode {
  /// Unseen strings are added to the GlobalInterner — for records that
  /// will be stored (the interner must own every indexed token).
  kInterned,
  /// Unseen strings get a deterministic hash-derived id with the high bit
  /// set (real interner ids stay below 2^31), so transient probes built
  /// from arbitrary user input cannot grow the process-global interner.
  /// Known strings still resolve to their real ids, so probe-vs-log
  /// comparisons are exact; only probe-vs-probe overlap of two *never
  /// logged* tokens rides on a 31-bit hash (collisions negligible).
  kTransient,
};

/// The outcome of parsing a statement's text: a tree the executor and
/// the record's Statement can share, or the parse error.
using ParsedTree = Result<std::shared_ptr<const sql::SelectStatement>>;

/// Builds a QueryRecord and its Statement from raw SQL text: parse tree,
/// canonical text, skeleton, fingerprints, and syntactic components.
/// Queries that fail to parse still produce a record (raw text only,
/// `parse_failed() == true`) — the paper's profiler logs every
/// submission, and failed attempts feed the correction engine.
///
/// Runtime stats and the output summary are the caller's (profiler's)
/// responsibility. Use kTransient for probe records that are compared but
/// never appended (kNN-as-you-type, recommendations).
///
/// Equivalent to BuildRecordFromTree(text, ..., ParseText(text)); the
/// profiler calls the two steps itself so that it executes the tree it
/// derives the record from.
QueryRecord BuildRecordFromText(std::string text, std::string user,
                                Micros timestamp,
                                SignatureMode mode = SignatureMode::kInterned);

/// The parse step of BuildRecordFromText: sql::Parse(text), with the
/// tree made shareable.
ParsedTree ParseText(std::string_view text);

/// The build step of BuildRecordFromText: derives the record's Statement
/// from `parsed`, the outcome of ParseText(text). The statement keeps the
/// tree; a parse error gives the raw-text record, with the error in
/// `stats.error`.
QueryRecord BuildRecordFromTree(std::string text, std::string user,
                                Micros timestamp, ParsedTree parsed,
                                SignatureMode mode = SignatureMode::kInterned);

/// (Re)computes the signature of `record`'s statement from the
/// statement's text and components and the record's output summary.
/// Idempotent; called by BuildRecordFromText and by QueryStore::Append
/// (for hand-built or transient-signature records).
void ComputeSimilaritySignature(QueryRecord* record,
                                SignatureMode mode = SignatureMode::kInterned);

/// Recomputes only the output-derived signature fields (`output_rows`,
/// `output_empty_computed`) from `record->summary`, leaving the token
/// vectors untouched (SetOutputSignature). Requires a previously
/// computed signature; Append and RefreshStatistics use it to fold in a
/// late-attached or replaced summary without redoing tokenization and
/// interning. Returns whether they changed.
bool UpdateOutputSignature(QueryRecord* record);

/// Sets the output-derived signature fields of `record`'s statement,
/// cloning a shared statement only when they differ from its current
/// ones. Returns whether they differed.
bool SetOutputSignature(QueryRecord* record, std::vector<uint64_t> output_rows,
                        bool output_empty_computed);

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_RECORD_BUILDER_H_
