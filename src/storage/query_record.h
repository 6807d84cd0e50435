#ifndef CQMS_STORAGE_QUERY_RECORD_H_
#define CQMS_STORAGE_QUERY_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/interner.h"
#include "db/value.h"
#include "sql/ast.h"
#include "sql/components.h"

namespace cqms::storage {

/// Identifier of a logged query within a QueryStore.
using QueryId = int64_t;

/// Identifier of a query session (assigned by the miner's sessionizer).
using SessionId = int64_t;

constexpr QueryId kInvalidQueryId = -1;
constexpr SessionId kInvalidSessionId = -1;

/// Runtime features captured by the Query Profiler (§4.1: "result
/// cardinality, execution time, and the query execution plan are already
/// incorporated in existing query profilers").
struct RuntimeStats {
  Micros execution_micros = 0;
  uint64_t result_rows = 0;
  uint64_t rows_scanned = 0;
  bool succeeded = true;
  std::string error;  ///< Status string for failed queries.
  /// Execution plan text captured from the engine (one operator per
  /// line: scans with pushed-down filters, join strategy, aggregation...).
  std::string plan;
};

/// Stored summary of a query's output — the paper's semantic query
/// feature ("the system also captures the query result", §4.1). The
/// profiler sizes the sample adaptively: long-running queries may store
/// their entire (small) output; fast huge outputs store little.
struct OutputSummary {
  uint64_t total_rows = 0;
  std::vector<std::string> column_names;
  std::vector<db::Row> sample_rows;
  bool complete = false;   ///< sample_rows is the entire output.
  size_t budget_rows = 0;  ///< The budget the policy granted.
};

/// Precomputed, interned similarity features of one record. Every string
/// set the similarity measures compare (tables, predicate skeletons,
/// qualified attributes, projections, text tokens) is interned through
/// the GlobalInterner() once at build/append time and stored as a sorted,
/// deduplicated Symbol vector; output sample rows are stored as sorted
/// 64-bit row hashes. Pairwise similarity then reduces to linear merges
/// over these vectors — zero allocations and zero string compares per
/// comparison. Invariant: each vector is sorted ascending with no
/// duplicates, so set cardinalities (and hence Jaccard scores) match the
/// string-set reference path exactly.
struct SimilaritySignature {
  std::vector<Symbol> tables;
  std::vector<Symbol> predicate_skeletons;
  std::vector<Symbol> attributes;   ///< Interned "rel.attr" strings.
  std::vector<Symbol> projections;
  std::vector<Symbol> text_tokens;  ///< ExtractWords() of the raw text.
  std::vector<uint64_t> output_rows;  ///< Fnv1a64 of printed sample rows.
  /// True when the output was computed and is known empty (total_rows == 0
  /// with named columns) — the one case where two sample-less summaries
  /// still compare as identical.
  bool output_empty_computed = false;
  bool valid = false;  ///< Set once the signature has been computed.
  /// True for probe records whose unseen strings got hash-derived ids
  /// instead of growing the global interner (see SignatureMode). Such a
  /// signature is fine to compare against interned ones but must not be
  /// stored: QueryStore::Append recomputes it in interned mode.
  bool transient = false;
};

/// A user note attached to a whole query or a fragment of it (§2.1).
struct Annotation {
  std::string author;
  Micros timestamp = 0;
  std::string text;
  /// Optional: the query fragment this annotation refers to (verbatim
  /// substring, e.g. one predicate). Empty = whole query.
  std::string fragment;
};

/// Maintenance flags (bitmask). §4.4: the CQMS flags queries invalidated
/// by schema changes, repairs them when possible, or marks them obsolete.
enum QueryFlags : uint32_t {
  kFlagNone = 0,
  kFlagSchemaBroken = 1u << 0,  ///< No longer binds against the catalog.
  kFlagRepaired = 1u << 1,      ///< Auto-repaired after schema change.
  kFlagObsolete = 1u << 2,      ///< Administratively retired.
  kFlagStatsStale = 1u << 3,    ///< Runtime stats predate data drift.
  kFlagDeleted = 1u << 4,       ///< Tombstoned by its owner or an admin.
};

/// One logged query with all profiled features. Copyable (the parse tree
/// is shared, immutable after profiling); the copy operations are
/// user-provided only to read `ast` atomically — see the member.
struct QueryRecord {
  QueryRecord() = default;
  /// Member-wise except `ast`, which is read through the shared_ptr
  /// atomic-access free functions: the copy-on-write clone in
  /// QueryStore::GetMutable copies a record that concurrent readers of
  /// a published view may be lazily materializing through Ast() at the
  /// same moment. Keep the member list in sync with the fields below.
  QueryRecord(const QueryRecord& other);
  QueryRecord& operator=(const QueryRecord& other);
  QueryRecord(QueryRecord&&) = default;
  QueryRecord& operator=(QueryRecord&&) = default;

  QueryId id = kInvalidQueryId;
  std::string text;              ///< Raw text as submitted.
  std::string canonical_text;    ///< See sql::CanonicalText.
  std::string skeleton;          ///< Canonical text with constants stripped.
  uint64_t fingerprint = 0;
  uint64_t skeleton_fingerprint = 0;
  std::string user;
  Micros timestamp = 0;

  /// Parsed statement; null for queries that failed to parse — and for
  /// records restored from a binary snapshot, which persist every
  /// parse-derived feature but not the tree itself. Consumers that need
  /// the tree must go through Ast(), which materializes it on demand;
  /// use parse_failed() (not a null check here) to test parsability.
  /// Concurrency: Ast() is the only code that writes this member on a
  /// shared record (set-once, via the shared_ptr atomic free functions);
  /// builder/rewrite code assigns it plainly, but only on records no
  /// reader can hold yet (pre-append, or the writer's post-COW clone).
  mutable std::shared_ptr<const sql::SelectStatement> ast;
  /// True when `text` is known to parse even while `ast` is not
  /// materialized (binary-snapshot restore). Set by BuildRecordFromText
  /// and the snapshot loader.
  bool text_parses = false;
  /// Syntactic features (empty when the query does not parse).
  sql::QueryComponents components;

  RuntimeStats stats;
  OutputSummary summary;
  /// Interned similarity features; computed in BuildRecordFromText for
  /// probe records and (re)finalized by QueryStore::Append once the
  /// profiler has attached the output summary. The record's MinHash
  /// sketch is a pure function of it (ComputeMinHashSketch) and is not
  /// stored: the LshIndex, the kNN probe and the clustering pair
  /// pruning derive it where they use it.
  SimilaritySignature signature;
  std::vector<Annotation> annotations;

  SessionId session_id = kInvalidSessionId;
  uint32_t flags = kFlagNone;

  /// Quality score in [0,1] maintained by Query Maintenance (§4.4).
  double quality = 0.5;

  bool HasFlag(QueryFlags f) const { return (flags & f) != 0; }
  /// text_parses is tested first so that when it is true — the only
  /// state in which a concurrent Ast() call may be writing `ast` —
  /// the short-circuit never reads the pointer (race-free without
  /// paying for an atomic load on this hot predicate).
  bool parse_failed() const { return !text_parses && ast == nullptr; }

  /// The parse tree, re-parsing `text` on first use for records restored
  /// from a binary snapshot. Null for parse failures — callers must
  /// null-check even after a parse_failed() test, since a corrupt
  /// snapshot could carry a parsed bit with unparsable text.
  /// Thread-safe on shared (published-view) records: the lazy
  /// materialization is a set-once compare-and-swap, so concurrent
  /// callers agree on one tree and the returned pointer stays valid for
  /// the record's lifetime.
  const sql::SelectStatement* Ast() const;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_QUERY_RECORD_H_
