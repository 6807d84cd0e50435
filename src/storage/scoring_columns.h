#ifndef CQMS_STORAGE_SCORING_COLUMNS_H_
#define CQMS_STORAGE_SCORING_COLUMNS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "storage/query_record.h"

namespace cqms::storage {

/// Columnar copies of every field the meta-query scoring loop touches,
/// maintained by QueryStore alongside its secondary indexes.
///
/// The kNN/ranking inner loop visits thousands of candidates per call;
/// reading each one through the record deque costs a scattered struct
/// touch plus one heap hop per signature vector plus a fingerprint hash
/// lookup for popularity. This side-table packs the hot fields into
/// parallel vectors and concatenates the signatures into shared arenas,
/// so scoring streams cache lines instead of chasing pointers. Fields
/// that derive from a record's text live once per distinct statement
/// (QueryStore's dense StatementId); the per-run fields live per record:
///
///   - per record: flags / quality / timestamp / owner-Symbol scalars
///     and the record's StatementId;
///   - per statement: the similarity signature as spans into a Symbol
///     arena plus an output-row-hash arena, the lower-cased text in a
///     character arena (substring scans stop re-lowercasing the log per
///     call), and a popularity *slot* index into a shared
///     per-fingerprint count vector (popularity becomes two dependent
///     array loads, no hashing).
///
/// Coherence: QueryStore packs a statement's row when the statement
/// gains its first record and releases it when the last one moves off
/// (rewrite or output refresh); those edits only re-point the record.
/// A released row's runs stay in the arenas as garbage (`arena_garbage()`)
/// until Compact() reclaims them.
class ScoringColumns {
 public:
  /// Popularity slot of statements that carry no canonical fingerprint
  /// (parse failures); their popularity reads as 0.
  static constexpr uint32_t kNoPopularitySlot = 0xFFFFFFFFu;

  // Bits of SignatureRef::bits.
  static constexpr uint8_t kSigValid = 1u << 0;
  static constexpr uint8_t kSigParsed = 1u << 1;
  static constexpr uint8_t kSigOutputEmptyComputed = 1u << 2;

  /// Packed directory entry locating one statement's signature inside
  /// the arenas. Section order in the Symbol arena: tables, predicate
  /// skeletons, attributes, projections, text tokens — each sorted
  /// ascending and deduplicated, exactly the statement's
  /// SimilaritySignature vectors. All zero for a released statement id.
  struct SignatureRef {
    uint32_t begin = 0;  ///< First Symbol of this statement's runs.
    uint16_t n_tables = 0;
    uint16_t n_skeletons = 0;
    uint16_t n_attributes = 0;
    uint16_t n_projections = 0;
    uint16_t n_tokens = 0;
    uint8_t bits = 0;
    uint32_t out_begin = 0;  ///< First output-row hash.
    uint32_t n_output = 0;
    uint32_t text_begin = 0;  ///< First byte of the lowered text.
    uint32_t text_len = 0;
  };

  struct SymbolSpan {
    const Symbol* data = nullptr;
    size_t size = 0;
  };
  struct HashSpan {
    const uint64_t* data = nullptr;
    size_t size = 0;
  };

  /// Read handle on one statement's row. Invalidated, like the spans it
  /// hands out, by Compact() and by any mutation of the columns.
  class StatementRow {
   public:
    bool signature_valid() const { return (ref_->bits & kSigValid) != 0; }
    bool parse_failed() const { return (ref_->bits & kSigParsed) == 0; }
    bool output_empty_computed() const {
      return (ref_->bits & kSigOutputEmptyComputed) != 0;
    }
    SymbolSpan tables() const { return {syms(), ref_->n_tables}; }
    SymbolSpan skeletons() const {
      return {syms() + ref_->n_tables, ref_->n_skeletons};
    }
    SymbolSpan attributes() const {
      return {syms() + ref_->n_tables + ref_->n_skeletons,
              ref_->n_attributes};
    }
    SymbolSpan projections() const {
      return {syms() + ref_->n_tables + ref_->n_skeletons + ref_->n_attributes,
              ref_->n_projections};
    }
    SymbolSpan tokens() const {
      return {syms() + ref_->n_tables + ref_->n_skeletons +
                  ref_->n_attributes + ref_->n_projections,
              ref_->n_tokens};
    }
    HashSpan output_rows() const {
      return {cols_->out_arena_.data() + ref_->out_begin, ref_->n_output};
    }
    /// The statement's text, lower-cased once when the row was packed.
    std::string_view lowered_text() const {
      return std::string_view(cols_->text_arena_.data() + ref_->text_begin,
                              ref_->text_len);
    }
    /// Canonical-duplicate count of the statement's fingerprint over
    /// every stored record (0 for parse failures).
    uint64_t popularity() const {
      return pop_slot_ == kNoPopularitySlot ? 0 : cols_->pop_counts_[pop_slot_];
    }

   private:
    friend class ScoringColumns;
    StatementRow(const ScoringColumns* cols, StatementId s)
        : cols_(cols),
          ref_(&cols->sig_[s]),
          pop_slot_(cols->stmt_pop_slot_[s]) {}
    const Symbol* syms() const {
      return cols_->sym_arena_.data() + ref_->begin;
    }

    const ScoringColumns* cols_;
    const SignatureRef* ref_;
    uint32_t pop_slot_;
  };

  ScoringColumns() = default;
  /// Copies keep the source's spare capacity: QueryStore copies its
  /// columns on its first write after a publish (QueryStore::Own), and
  /// an exact-size copy would reallocate every per-record column on the
  /// append that follows.
  ScoringColumns(const ScoringColumns& other);
  ScoringColumns& operator=(const ScoringColumns&) = delete;

  /// Records with a row.
  size_t size() const { return flags_.size(); }

  // --- maintenance (QueryStore only) --------------------------------------

  /// Pre-sizes the per-record and per-statement vectors (bulk snapshot
  /// restore; arenas still grow on demand).
  void Reserve(size_t records, size_t statements);

  /// Packs the row of statement `s` (a new or reused id): signature runs
  /// and lowered text go to the arena tails.
  void SetStatement(StatementId s, const Statement& statement,
                    uint32_t pop_slot);

  /// Orphans the runs of a statement that lost its last record; they
  /// count as arena_garbage() until Compact().
  void ReleaseStatement(StatementId s);

  /// Appends the per-run row of a just-stored record. `record.id` must
  /// equal size(). `owner` is the interned record.user.
  void AppendRecord(const QueryRecord& record, StatementId statement,
                    Symbol owner);

  /// Re-points a record at the statement it now holds.
  void SetRecordStatement(QueryId id, StatementId statement) {
    stmt_[static_cast<size_t>(id)] = statement;
  }
  void SetFlags(QueryId id, uint32_t flags) {
    flags_[static_cast<size_t>(id)] = flags;
  }
  void SetQuality(QueryId id, double quality) {
    quality_[static_cast<size_t>(id)] = quality;
  }

  /// Creates a new popularity slot (count 0) and returns its index.
  uint32_t NewPopularitySlot();
  void AddSlotRef(uint32_t slot) { ++pop_counts_[slot]; }
  void ReleaseSlotRef(uint32_t slot) { --pop_counts_[slot]; }
  uint64_t slot_count(uint32_t slot) const { return pop_counts_[slot]; }
  uint32_t statement_pop_slot(StatementId s) const {
    return stmt_pop_slot_[s];
  }

  // --- hot reads ----------------------------------------------------------

  uint32_t flags(QueryId id) const { return flags_[static_cast<size_t>(id)]; }
  double quality(QueryId id) const { return quality_[static_cast<size_t>(id)]; }
  int64_t timestamp(QueryId id) const {
    return timestamp_[static_cast<size_t>(id)];
  }
  Symbol owner(QueryId id) const { return owner_[static_cast<size_t>(id)]; }
  StatementId statement_of(QueryId id) const {
    return stmt_[static_cast<size_t>(id)];
  }

  StatementRow statement_row(StatementId s) const {
    return StatementRow(this, s);
  }
  /// The row of the statement record `id` holds.
  StatementRow row_of(QueryId id) const {
    return statement_row(statement_of(id));
  }

  /// row_of(id).signature_valid(), for the miner's per-record views.
  bool signature_valid(QueryId id) const {
    return row_of(id).signature_valid();
  }

  /// Dead arena bytes (Symbol runs, output hashes and lowered text) of
  /// released statements — the signal the maintenance pass compares
  /// against its compaction threshold.
  size_t arena_garbage() const { return arena_garbage_; }

  /// Rebuilds the three arenas in statement-id order, dropping every
  /// orphaned run, and resets arena_garbage() to zero. Returns the bytes
  /// reclaimed. Invalidates any outstanding StatementRow, span or
  /// string_view handed out by the accessors (like a rehash); callers
  /// hold none across mutations, so maintenance runs this safely
  /// between queries.
  size_t Compact();

 private:
  // Per record.
  std::vector<uint32_t> flags_;
  std::vector<double> quality_;
  std::vector<int64_t> timestamp_;
  std::vector<Symbol> owner_;
  std::vector<StatementId> stmt_;
  // Per statement id.
  std::vector<SignatureRef> sig_;
  std::vector<uint32_t> stmt_pop_slot_;

  std::vector<uint64_t> pop_counts_;  ///< Count per popularity slot.
  std::vector<Symbol> sym_arena_;
  std::vector<uint64_t> out_arena_;
  std::string text_arena_;
  size_t arena_garbage_ = 0;  ///< Bytes, across all three arenas.
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_SCORING_COLUMNS_H_
