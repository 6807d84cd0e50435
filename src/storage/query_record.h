#ifndef CQMS_STORAGE_QUERY_RECORD_H_
#define CQMS_STORAGE_QUERY_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/interner.h"
#include "common/shared_string.h"
#include "common/shared_value.h"
#include "db/value.h"
#include "sql/ast.h"
#include "sql/components.h"

namespace cqms::storage {

/// Identifier of a logged query within a QueryStore.
using QueryId = int64_t;

/// Dense identifier of a distinct live Statement within a QueryStore.
/// Ids of statements whose last record moved off are reused.
using StatementId = uint32_t;

/// Identifier of a query session (assigned by the miner's sessionizer).
using SessionId = int64_t;

constexpr QueryId kInvalidQueryId = -1;
constexpr SessionId kInvalidSessionId = -1;

/// Runtime features captured by the Query Profiler (§4.1: "result
/// cardinality, execution time, and the query execution plan are already
/// incorporated in existing query profilers"). The two strings are
/// shared: a QueryStore points every stored run of a statement whose
/// error or plan equals an earlier run's at that run's copy.
struct RuntimeStats {
  /// The engine's execution of the parsed statement, without the parse.
  Micros execution_micros = 0;
  uint64_t result_rows = 0;
  uint64_t rows_scanned = 0;
  bool succeeded = true;
  SharedString error;  ///< Status string for failed queries.
  /// Execution plan text captured from the engine (one operator per
  /// line: scans with pushed-down filters, join strategy, aggregation...).
  SharedString plan;
};

/// Stored summary of a query's output — the paper's semantic query
/// feature ("the system also captures the query result", §4.1). The
/// profiler sizes the sample adaptively: long-running queries may store
/// their entire (small) output; fast huge outputs store little. The two
/// lists are immutable and shared by the copies of a record; a writer
/// replaces a whole list. Neither is persisted, so a restored record
/// holds none.
struct OutputSummary {
  uint64_t total_rows = 0;
  SharedList<std::string> column_names;
  SharedList<db::Row> sample_rows;
  bool complete = false;     ///< sample_rows is the entire output.
  uint32_t budget_rows = 0;  ///< The budget the policy granted.
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

  bool operator==(const SimilaritySignature& other) const;
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

/// The parse tree of a Statement: set when the statement is built from
/// its text, or parsed from the text on first use (statements restored
/// from a binary snapshot, which persist every parse-derived feature but
/// not the tree). Copies read the source's pointer atomically — a writer
/// cloning a shared Statement may copy one that a reader of a published
/// view is materializing at the same moment.
class LazyParseTree {
 public:
  LazyParseTree() = default;
  explicit LazyParseTree(std::shared_ptr<const sql::SelectStatement> tree)
      : tree_(std::move(tree)) {}
  LazyParseTree(const LazyParseTree& other);
  LazyParseTree& operator=(const LazyParseTree& other);

  /// The tree, parsing `text` on first use. Null when `text` does not
  /// parse. Thread-safe: materialization is a set-once compare-and-swap,
  /// so concurrent callers agree on one tree, kept alive by this object.
  const sql::SelectStatement* Get(const std::string& text) const;

  /// The tree when some caller has already set or materialized it, else
  /// null. Never parses, so it leaves an unmaterialized tree that way
  /// (a profiled re-run of a restored statement parses a private tree
  /// rather than growing the shared one). Thread-safe like Get.
  std::shared_ptr<const sql::SelectStatement> IfMaterialized() const;

 private:
  mutable std::shared_ptr<const sql::SelectStatement> tree_;
};

/// Everything a logged query derives from its text. A QueryStore shares
/// one Statement among all of its records with an equal one (see
/// QueryStore::Append), so a statement re-run a thousand times is held
/// once. Immutable once a stored record holds it; writers edit a
/// record's statement only through QueryRecord::MutableStatement, which
/// clones a shared one first.
struct Statement {
  /// The text the fields below derive from and Ast() parses; equal to
  /// the `text` of every record holding this statement.
  std::string text;
  /// True when `text` parsed (the tree may still be unmaterialized).
  bool text_parses = false;
  std::string canonical_text;  ///< See sql::CanonicalText.
  std::string skeleton;        ///< Canonical text with constants stripped.
  uint64_t skeleton_fingerprint = 0;
  /// Syntactic features (empty when the query does not parse).
  sql::QueryComponents components;
  /// Interned similarity features; computed in BuildRecordFromText for
  /// probe records and (re)finalized by QueryStore::Append once the
  /// profiler has attached the output summary. The MinHash sketch is a
  /// pure function of it (ComputeMinHashSketch) and is not stored: the
  /// LshIndex, the kNN probe and the clustering pair pruning derive it
  /// where they use it.
  SimilaritySignature signature;
  LazyParseTree tree;

  /// The parse tree (see LazyParseTree); null for parse failures, and
  /// for a corrupt snapshot whose parsed bit lied about the text.
  const sql::SelectStatement* Ast() const {
    return text_parses ? tree.Get(text) : nullptr;
  }

  /// Exact equality of every field but `tree`, a cache of `text`.
  bool operator==(const Statement& other) const;
};

/// Read-only handle on the text of a record's shared Statement: reads
/// like a `const std::string` (see StringReader). Not assignable: a
/// writer sets the text through the statement (QueryRecord::
/// MutableStatement), and the record re-points the handle whenever it
/// changes statements.
class TextRef : public StringReader<TextRef> {
 public:
  const std::string& str() const { return *text_; }

 private:
  friend struct QueryRecord;
  explicit TextRef(const std::string* text) : text_(text) {}
  TextRef(const TextRef&) = default;
  TextRef& operator=(const TextRef&) = default;

  const std::string* text_;
};

/// Read-only handle on the sql::QueryComponents of a record's shared
/// Statement: binds to `const sql::QueryComponents&`, and `->` reaches
/// the members.
class ComponentsRef {
 public:
  operator const sql::QueryComponents&() const { return *components_; }
  const sql::QueryComponents* operator->() const { return components_; }

 private:
  friend struct QueryRecord;
  explicit ComponentsRef(const sql::QueryComponents* components)
      : components_(components) {}

  const sql::QueryComponents* components_;
};

/// One logged query: the fields of this run, plus a shared pointer to
/// the Statement its text derives. Copies share the statement and the
/// parse tree, the owner, error and plan strings, the output summary's
/// lists and the annotations; they copy only the per-run scalars. A
/// QueryStore holds its records by value in the chunks of its
/// RecordLog, so the record's size is the log's cost per run.
struct QueryRecord {
 private:
  /// Never null: a default-constructed record holds a shared empty
  /// statement (unparsed, no signature). Declared before `text` and
  /// `components`, which point into it.
  std::shared_ptr<Statement> statement_ = EmptyStatement();

 public:
  QueryId id = kInvalidQueryId;
  /// statement().text, read-only: the raw text as submitted.
  TextRef text{&statement_->text};
  /// Fnv1a64 of the statement's canonical text (0 for parse failures).
  uint64_t fingerprint = 0;
  /// The owner. A QueryStore points every stored record of one owner at
  /// one copy.
  SharedString user;
  Micros timestamp = 0;

  /// statement().components, read-only.
  ComponentsRef components{&statement_->components};

  RuntimeStats stats;
  OutputSummary summary;
  /// Oldest first; a writer replaces the whole list (QueryStore::
  /// Annotate appends by copying it).
  SharedList<Annotation> annotations;

  SessionId session_id = kInvalidSessionId;
  uint32_t flags = kFlagNone;

  /// Quality score in [0,1] maintained by Query Maintenance (§4.4).
  double quality = 0.5;

  const Statement& statement() const { return *statement_; }

  /// Writer-side edit access to the statement of a record no reader can
  /// hold yet (pre-append, or in a chunk of the log the writer owns).
  /// Clones the statement first unless this record is its only holder,
  /// so other records, QueryStore's sharing table and published views
  /// never see the edit. A hand-built record sets its text here.
  Statement* MutableStatement();

  bool HasFlag(QueryFlags f) const { return (flags & f) != 0; }
  bool parse_failed() const { return !statement_->text_parses; }

  /// The shared statement's parse tree (Statement::Ast). Null for parse
  /// failures — callers must null-check even after a parse_failed()
  /// test, since a corrupt snapshot could carry a parsed bit with
  /// unparsable text. The pointer stays valid while any record holds
  /// the statement.
  const sql::SelectStatement* Ast() const { return statement_->Ast(); }

 private:
  /// QueryStore points records at the statements it shares.
  friend class QueryStore;

  void set_statement(std::shared_ptr<Statement> statement) {
    statement_ = std::move(statement);
    text = TextRef(&statement_->text);
    components = ComponentsRef(&statement_->components);
  }
  static std::shared_ptr<Statement> EmptyStatement();
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_QUERY_RECORD_H_
