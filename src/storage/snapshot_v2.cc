#include "storage/snapshot_v2.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binary_codec.h"
#include "common/interner.h"
#include "common/sorted_vector.h"
#include "storage/persistence.h"

namespace cqms::storage {

namespace {

// On-disk layout:
//   magic "CQMSNAP2" (8 bytes)
//   fixed32 format version (= 4; 2 and 3 are still read)
//   sections, each framed as
//     u8 section id | fixed64 payload length | payload | fixed32 CRC32
//   terminated by an End section with an empty payload.
// Section order is fixed (Interner, Acl, Statements, Records,
// Durability, End): the interner slice must be decoded before any
// signature vector referencing it, and the statement table before any
// record referencing one of its entries.
//
// Version 4 split each record in two. A statement entry holds what a
// record derives from its text and its execution outcome, and is
// written once per distinct encoding; a record keeps an entry index
// plus the fields that differ between runs of one statement (owner,
// time, session, flags, quality, execution time, annotations).
// Versions 2 and 3 write every record whole. Version 3 dropped the
// per-record MinHash sketch (a pure function of the signature,
// re-derived at index time). A version-2 record with kBitV2Sketch set
// carries it as 64 little-endian u64 slots after the signature; the
// reader skips them. Older readers refuse a newer version, so they
// never misread it.
constexpr uint32_t kFormatVersion = 4;
constexpr uint32_t kOldestReadableVersion = 2;
constexpr uint32_t kStatementTableVersion = 4;
constexpr size_t kV2SketchBytes = 64 * sizeof(uint64_t);

enum SectionId : uint8_t {
  kSectionInterner = 1,
  kSectionAcl = 2,
  kSectionRecords = 3,
  /// Durability metadata: fixed64 WAL sequence covered by this snapshot
  /// (see DurableStore; 0 for plain SaveSnapshotV2 saves). Written after
  /// the records; readers that predate it skip unknown sections.
  kSectionDurability = 4,
  /// The statement table (version 4 on), written before the records.
  kSectionStatements = 5,
  kSectionEnd = 0xFF,
};

// Statement bit flags (one byte at the head of a version-4 statement
// entry, or of a version-2/3 record).
constexpr uint8_t kBitParsed = 1u << 0;
constexpr uint8_t kBitSigValid = 1u << 1;
constexpr uint8_t kBitOutputEmptyComputed = 1u << 2;
constexpr uint8_t kBitV2Sketch = 1u << 3;  ///< Written by version 2 only.

// The encoders below are templated on their writer: a ByteCounter pass
// sizes the output exactly, then a reserved BinaryWriter pass fills it.

template <typename Writer>
void PutSymbolRun(Writer* w, const std::vector<Symbol>& symbols) {
  // Signature vectors are sorted ascending, so delta varints stay tiny.
  w->PutVarint(symbols.size());
  Symbol prev = 0;
  for (Symbol s : symbols) {
    w->PutVarint(s - prev);
    prev = s;
  }
}

std::vector<Symbol> GetSymbolRun(BinaryReader* r) {
  uint64_t n = r->GetVarint();
  if (r->failed() || n > r->remaining()) {  // >= 1 byte per element
    r->Invalidate();
    return {};
  }
  std::vector<Symbol> out;
  out.reserve(std::min(n, kMaxDecodeReserve));
  Symbol prev = 0;
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    prev += static_cast<Symbol>(r->GetVarint());
    out.push_back(prev);
  }
  return out;
}

template <typename Writer>
void PutStringList(Writer* w, const std::vector<std::string>& v) {
  w->PutVarint(v.size());
  for (const std::string& s : v) w->PutString(s);
}

std::vector<std::string> GetStringList(BinaryReader* r) {
  uint64_t n = r->GetVarint();
  if (r->failed() || n > r->remaining()) {
    r->Invalidate();
    return {};
  }
  std::vector<std::string> out;
  out.reserve(std::min(n, kMaxDecodeReserve));
  for (uint64_t i = 0; i < n && !r->failed(); ++i) {
    out.push_back(r->GetString());
  }
  return out;
}

// Section framing in place: BeginSection writes the id and a length
// placeholder and returns where the payload starts; EndSection patches
// the length and appends the CRC of the payload bytes already in the
// buffer — no per-section buffer, no copy.
size_t BeginSection(BinaryWriter* w, uint8_t id) {
  w->PutU8(id);
  w->PutFixed64(0);
  return w->size();
}

void EndSection(BinaryWriter* w, size_t payload_begin) {
  const size_t len = w->size() - payload_begin;
  w->PatchFixed64(payload_begin - 8, len);
  w->PutFixed32(
      Crc32(std::string_view(w->data()).substr(payload_begin, len)));
}

size_t BeginSection(ByteCounter* w, uint8_t id) {
  w->PutU8(id);
  w->PutFixed64(0);
  return 0;
}

void EndSection(ByteCounter* w, size_t) { w->PutFixed32(0); }

// ---------------------------------------------------------------------------
// Save

/// One statement-table entry: everything `r` derives from its text and
/// its execution outcome.
template <typename Writer>
void EncodeStatement(Writer* w, const QueryRecord& r) {
  const Statement& statement = r.statement();
  const SimilaritySignature& signature = statement.signature;
  const bool parsed = !r.parse_failed();
  uint8_t bits = 0;
  if (parsed) bits |= kBitParsed;
  if (signature.valid) bits |= kBitSigValid;
  if (signature.output_empty_computed) bits |= kBitOutputEmptyComputed;
  w->PutU8(bits);
  w->PutString(r.text);

  w->PutVarint(r.stats.result_rows);
  w->PutVarint(r.stats.rows_scanned);
  w->PutU8(r.stats.succeeded ? 1 : 0);
  w->PutString(r.stats.error);
  w->PutString(r.stats.plan);

  if (parsed) {
    w->PutString(statement.canonical_text);
    w->PutString(statement.skeleton);
    w->PutFixed64(r.fingerprint);
    w->PutFixed64(statement.skeleton_fingerprint);
    const sql::QueryComponents& c = statement.components;
    PutStringList(w, c.tables);
    w->PutVarint(c.attributes.size());
    for (const auto& [rel, attr] : c.attributes) {
      w->PutString(rel);
      w->PutString(attr);
    }
    PutStringList(w, c.projections);
    w->PutVarint(c.predicates.size());
    for (const sql::PredicateFeature& p : c.predicates) {
      w->PutString(p.relation);
      w->PutString(p.attribute);
      w->PutString(p.op);
      w->PutString(p.constant);
      w->PutU8(p.is_join ? 1 : 0);
      w->PutString(p.rhs_relation);
      w->PutString(p.rhs_attribute);
    }
    PutStringList(w, c.group_by);
    PutStringList(w, c.order_by);
    PutStringList(w, c.aggregates);
    uint8_t cbits = 0;
    if (c.has_subquery) cbits |= 1u << 0;
    if (c.has_distinct) cbits |= 1u << 1;
    if (c.select_star) cbits |= 1u << 2;
    if (c.limit.has_value()) cbits |= 1u << 3;
    w->PutU8(cbits);
    w->PutZigzag(c.num_joins);
    w->PutZigzag(c.num_tables);
    w->PutZigzag(c.max_nesting_depth);
    if (c.limit.has_value()) w->PutZigzag(*c.limit);
  }

  if (signature.valid) {
    PutSymbolRun(w, signature.tables);
    PutSymbolRun(w, signature.predicate_skeletons);
    PutSymbolRun(w, signature.attributes);
    PutSymbolRun(w, signature.projections);
    PutSymbolRun(w, signature.text_tokens);
    PutDeltaU64s(w, signature.output_rows);
  }
}

/// The rest of a record: its statement-table index and the fields that
/// differ between runs of one statement.
template <typename Writer>
void EncodeRecord(Writer* w, const QueryRecord& r, uint32_t statement) {
  w->PutVarint(statement);
  w->PutString(r.user);
  w->PutZigzag(r.timestamp);
  w->PutZigzag(r.session_id);
  w->PutVarint(r.flags);
  w->PutDouble(r.quality);
  w->PutZigzag(r.stats.execution_micros);
  w->PutVarint(r.annotations.size());
  for (const Annotation& a : r.annotations) {
    w->PutString(a.author);
    w->PutZigzag(a.timestamp);
    w->PutString(a.text);
    w->PutString(a.fragment);
  }
}

/// The statement table of one encode: entry `e` is the statement of
/// record `first_use[e]`, and record `i` references entry `entry_of[i]`.
/// Entries are numbered in first-use order, so equal stores encode to
/// equal bytes.
struct StatementTable {
  std::vector<uint32_t> entry_of;
  std::vector<uint32_t> first_use;
};

/// True when EncodeStatement writes equal bytes for `a` and `b`, two
/// records holding one Statement: the fields it writes that can differ
/// under one statement are equal. The shared strings usually compare by
/// address.
bool SameEntryFields(const QueryRecord& a, const QueryRecord& b) {
  return a.stats.result_rows == b.stats.result_rows &&
         a.stats.rows_scanned == b.stats.rows_scanned &&
         a.stats.succeeded == b.stats.succeeded &&
         a.stats.error == b.stats.error && a.stats.plan == b.stats.plan &&
         a.fingerprint == b.fingerprint;
}

/// Deduplicates statements by the bytes EncodeStatement writes. A record
/// whose Statement object last used an entry whose first record has the
/// same entry fields (SameEntryFields) reuses it without being encoded.
/// Any other record is encoded and hashed; the map holds a hash per
/// entry, not the entry: a hash match is confirmed by matching the
/// entry's first record against the candidate's bytes, so the table's
/// memory stays a few words per record.
template <typename Source>  // QueryStore or ReadViewState
StatementTable BuildStatementTable(const Source& store) {
  const RecordLog& records = store.records();
  StatementTable table;
  table.entry_of.reserve(records.size());
  std::unordered_multimap<size_t, uint32_t> entries_by_hash;
  std::unordered_map<const Statement*, uint32_t> last_entry_of;
  BinaryWriter bytes;
  for (size_t i = 0; i < records.size(); ++i) {
    uint32_t& last = last_entry_of
                         .try_emplace(&records[i].statement(),
                                      static_cast<uint32_t>(-1))
                         .first->second;
    if (last != static_cast<uint32_t>(-1) &&
        SameEntryFields(records[table.first_use[last]], records[i])) {
      table.entry_of.push_back(last);
      continue;
    }
    bytes.Clear();
    EncodeStatement(&bytes, records[i]);
    const size_t hash = std::hash<std::string_view>()(bytes.data());
    uint32_t entry = static_cast<uint32_t>(table.first_use.size());
    auto [it, end] = entries_by_hash.equal_range(hash);
    for (; it != end; ++it) {
      ByteMatcher same(bytes.data());
      EncodeStatement(&same, records[table.first_use[it->second]]);
      if (same.matched()) {
        entry = it->second;
        break;
      }
    }
    if (entry == table.first_use.size()) {
      table.first_use.push_back(static_cast<uint32_t>(i));
      entries_by_hash.emplace(hash, entry);
    }
    table.entry_of.push_back(entry);
    last = entry;
  }
  return table;
}

/// One past the highest Symbol any stored record references — the
/// interner-table prefix the snapshot must carry. The *full* prefix is
/// serialized, not just the referenced subset: unreferenced ids inside
/// it (owner names interned between signature builds) would otherwise
/// leave gaps, a fresh process's BulkIntern would assign dense ids that
/// shift past every gap, and the identity fast path — the one a
/// production cold start takes, with no per-symbol remap lookups or
/// re-sorting — could never trigger outside the saving process itself.
/// Only statement entries carry signatures, so only they are scanned.
template <typename Source>  // QueryStore or ReadViewState
Symbol ReferencedSymbolLimit(const Source& store,
                             const StatementTable& statements) {
  Symbol limit = 0;
  auto bump = [&limit](const std::vector<Symbol>& symbols) {
    // Vectors are sorted ascending: the last entry is the max.
    if (!symbols.empty()) limit = std::max(limit, symbols.back() + 1);
  };
  for (uint32_t i : statements.first_use) {
    const SimilaritySignature& s = store.records()[i].statement().signature;
    bump(s.tables);
    bump(s.predicate_skeletons);
    bump(s.attributes);
    bump(s.projections);
    bump(s.text_tokens);
  }
  return limit;
}

// ---------------------------------------------------------------------------
// Load

/// old snapshot Symbol -> current process Symbol. Identity loads (fresh
/// process, or same process as the save) skip the per-symbol hash
/// lookups and the re-sort.
struct SymbolRemap {
  std::unordered_map<Symbol, Symbol> map;
  bool identity = true;

  void Apply(std::vector<Symbol>* symbols, bool* ok) const {
    if (identity) return;
    for (Symbol& s : *symbols) {
      auto it = map.find(s);
      if (it == map.end()) {
        *ok = false;  // signature references a symbol the table lacks
        return;
      }
      s = it->second;
    }
    // Distinct strings stay distinct under the remap, but the new ids
    // permute the order; signatures must stay sorted and deduplicated
    // for the merge kernels (dedup matters only for a forged table
    // carrying the same name under two ids).
    SortUnique(symbols);
  }
};

/// Statements or records decoded between two SnapshotConsumed reports.
constexpr uint64_t kConsumedStride = 4096;

Status CorruptSnapshot(const std::string& path, const std::string& what) {
  return Status::Corruption("corrupt v2 snapshot (" + what + "): " + path);
}

Status DecodeInterner(BinaryReader* r, SymbolRemap* remap,
                      const std::string& path) {
  uint64_t count = r->GetVarint();
  if (r->failed() || count > r->remaining()) {
    return CorruptSnapshot(path, "interner count");
  }
  std::vector<Symbol> old_ids;
  std::vector<std::string> names;
  old_ids.reserve(std::min(count, kMaxDecodeReserve));
  names.reserve(std::min(count, kMaxDecodeReserve));
  for (uint64_t i = 0; i < count && !r->failed(); ++i) {
    old_ids.push_back(static_cast<Symbol>(r->GetVarint()));
    names.push_back(r->GetString());
  }
  if (!r->AtEnd()) return CorruptSnapshot(path, "interner payload");
  std::vector<Symbol> new_ids = GlobalInterner().BulkIntern(names);
  remap->map.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    remap->map.emplace(old_ids[i], new_ids[i]);
    if (old_ids[i] != new_ids[i]) remap->identity = false;
  }
  return Status::Ok();
}

/// Registers the memberships and collects the visibility pairs: the
/// ACL section precedes the records, whose ids the pairs name, so the
/// loader applies them once the records are in (ApplyVisibility).
Status DecodeAcl(BinaryReader* r, QueryStore* store,
                 std::vector<std::pair<QueryId, Visibility>>* visibility,
                 const std::string& path) {
  uint64_t users = r->GetVarint();
  if (r->failed() || users > r->remaining()) {
    return CorruptSnapshot(path, "acl user count");
  }
  for (uint64_t i = 0; i < users; ++i) {
    std::string user = r->GetString();
    std::vector<std::string> groups = GetStringList(r);
    if (r->failed()) return CorruptSnapshot(path, "acl membership");
    store->acl().AddUser(user, groups);
  }
  uint64_t vis_count = r->GetVarint();
  if (r->failed() || vis_count > r->remaining()) {
    return CorruptSnapshot(path, "acl visibility count");
  }
  for (uint64_t i = 0; i < vis_count; ++i) {
    QueryId id = static_cast<QueryId>(r->GetVarint());
    uint8_t vis = r->GetU8();
    if (r->failed()) return CorruptSnapshot(path, "acl payload");
    if (vis > static_cast<uint8_t>(Visibility::kPublic)) {
      return CorruptSnapshot(path, "visibility value");
    }
    visibility->emplace_back(id, static_cast<Visibility>(vis));
  }
  if (!r->AtEnd()) return CorruptSnapshot(path, "acl payload");
  return Status::Ok();
}

/// Sets the decoded visibility of records the store holds; an id past
/// them is forged.
Status ApplyVisibility(
    const std::vector<std::pair<QueryId, Visibility>>& visibility,
    QueryStore* store, const std::string& path) {
  for (const auto& [id, v] : visibility) {
    if (id < 0 || static_cast<size_t>(id) >= store->size()) {
      return CorruptSnapshot(path, "visibility id");
    }
    // Owner/requester checks do not apply to a restore; the empty
    // owner==requester pair passes validation by construction.
    CQMS_RETURN_IF_ERROR(store->acl().SetVisibility(id, "", "", v));
  }
  return Status::Ok();
}

// The decoders below are shared by the version-2/3 record layout and
// the version-4 statement entry and record, which hold the same field
// groups in a different arrangement (see docs/persistence.md).

/// Owner, timestamp, session, flags, quality and execution time.
void DecodeRunFields(BinaryReader* r, QueryRecord* out) {
  out->user = r->GetString();
  out->timestamp = r->GetZigzag();
  out->session_id = r->GetZigzag();
  out->flags = static_cast<uint32_t>(r->GetVarint());
  out->quality = r->GetDouble();
  out->stats.execution_micros = r->GetZigzag();
}

/// Result rows, rows scanned, success, error and plan.
void DecodeOutcome(BinaryReader* r, RuntimeStats* stats) {
  stats->result_rows = r->GetVarint();
  stats->rows_scanned = r->GetVarint();
  stats->succeeded = r->GetU8() != 0;
  stats->error = r->GetString();
  stats->plan = r->GetString();
}

Status DecodeAnnotations(BinaryReader* r, QueryRecord* out,
                         const std::string& path) {
  uint64_t annotation_count = r->GetVarint();
  if (r->failed() || annotation_count > r->remaining()) {
    return CorruptSnapshot(path, "annotation count");
  }
  std::vector<Annotation> annotations;
  annotations.reserve(std::min(annotation_count, kMaxDecodeReserve));
  for (uint64_t i = 0; i < annotation_count && !r->failed(); ++i) {
    Annotation a;
    a.author = r->GetString();
    a.timestamp = r->GetZigzag();
    a.text = r->GetString();
    a.fragment = r->GetString();
    annotations.push_back(std::move(a));
  }
  out->annotations = std::move(annotations);
  return Status::Ok();
}

/// Canonical text, skeleton, fingerprints and components of a parsed
/// statement, into `out` and its (unshared) statement.
Status DecodeParsedFeatures(BinaryReader* r, QueryRecord* out,
                            const std::string& path) {
  Statement* statement = out->MutableStatement();
  statement->text_parses = true;  // the tree stays unparsed until Ast()
  statement->canonical_text = r->GetString();
  statement->skeleton = r->GetString();
  out->fingerprint = r->GetFixed64();
  statement->skeleton_fingerprint = r->GetFixed64();
  sql::QueryComponents& c = statement->components;
  c.tables = GetStringList(r);
  uint64_t attr_count = r->GetVarint();
  if (r->failed() || attr_count > r->remaining()) {
    return CorruptSnapshot(path, "attribute count");
  }
  c.attributes.reserve(std::min(attr_count, kMaxDecodeReserve));
  for (uint64_t i = 0; i < attr_count && !r->failed(); ++i) {
    std::string rel = r->GetString();
    std::string attr = r->GetString();
    c.attributes.emplace_back(std::move(rel), std::move(attr));
  }
  c.projections = GetStringList(r);
  uint64_t pred_count = r->GetVarint();
  if (r->failed() || pred_count > r->remaining()) {
    return CorruptSnapshot(path, "predicate count");
  }
  c.predicates.reserve(std::min(pred_count, kMaxDecodeReserve));
  for (uint64_t i = 0; i < pred_count && !r->failed(); ++i) {
    sql::PredicateFeature p;
    p.relation = r->GetString();
    p.attribute = r->GetString();
    p.op = r->GetString();
    p.constant = r->GetString();
    p.is_join = r->GetU8() != 0;
    p.rhs_relation = r->GetString();
    p.rhs_attribute = r->GetString();
    c.predicates.push_back(std::move(p));
  }
  c.group_by = GetStringList(r);
  c.order_by = GetStringList(r);
  c.aggregates = GetStringList(r);
  uint8_t cbits = r->GetU8();
  c.has_subquery = (cbits & (1u << 0)) != 0;
  c.has_distinct = (cbits & (1u << 1)) != 0;
  c.select_star = (cbits & (1u << 2)) != 0;
  c.num_joins = static_cast<int>(r->GetZigzag());
  c.num_tables = static_cast<int>(r->GetZigzag());
  c.max_nesting_depth = static_cast<int>(r->GetZigzag());
  if ((cbits & (1u << 3)) != 0) c.limit = r->GetZigzag();
  return Status::Ok();
}

/// The five Symbol runs and the output-row hashes, remapped into this
/// process's interner. Every writer has stored a signature with each
/// statement, so an entry without one is corrupt: the read path scores
/// every stored record through its signature.
Status DecodeSignature(BinaryReader* r, uint8_t bits, const SymbolRemap& remap,
                       SimilaritySignature* sig, const std::string& path) {
  if ((bits & kBitSigValid) == 0) {
    return CorruptSnapshot(path, "missing signature");
  }
  sig->tables = GetSymbolRun(r);
  sig->predicate_skeletons = GetSymbolRun(r);
  sig->attributes = GetSymbolRun(r);
  sig->projections = GetSymbolRun(r);
  sig->text_tokens = GetSymbolRun(r);
  sig->output_rows = GetDeltaU64s(r);
  sig->output_empty_computed = (bits & kBitOutputEmptyComputed) != 0;
  sig->valid = true;
  bool symbols_ok = true;
  remap.Apply(&sig->tables, &symbols_ok);
  remap.Apply(&sig->predicate_skeletons, &symbols_ok);
  remap.Apply(&sig->attributes, &symbols_ok);
  remap.Apply(&sig->projections, &symbols_ok);
  remap.Apply(&sig->text_tokens, &symbols_ok);
  if (!symbols_ok) return CorruptSnapshot(path, "dangling symbol");
  return Status::Ok();
}

/// The raw text, into the (unshared) statement of `out`.
void DecodeText(BinaryReader* r, QueryRecord* out) {
  out->MutableStatement()->text = r->GetString();
}

/// A version-2 or version-3 record: every field inline. Each record gets
/// its own statement; QueryStore::RestoreAppend shares equal ones.
Status DecodeWholeRecord(BinaryReader* r, uint32_t version,
                         const SymbolRemap& remap, QueryRecord* out,
                         const std::string& path) {
  uint8_t bits = r->GetU8();
  DecodeText(r, out);
  DecodeRunFields(r, out);
  DecodeOutcome(r, &out->stats);
  CQMS_RETURN_IF_ERROR(DecodeAnnotations(r, out, path));
  if ((bits & kBitParsed) != 0) {
    CQMS_RETURN_IF_ERROR(DecodeParsedFeatures(r, out, path));
  }
  CQMS_RETURN_IF_ERROR(DecodeSignature(
      r, bits, remap, &out->MutableStatement()->signature, path));
  // The LSH index re-derives the sketch from the (remapped) signature.
  if (version == 2 && (bits & kBitV2Sketch) != 0) r->Skip(kV2SketchBytes);
  if (r->failed()) return CorruptSnapshot(path, "record payload");
  return Status::Ok();
}

/// A version-4 statement entry, decoded into a record that carries only
/// the entry's fields; every record referencing the entry starts as a
/// copy of it, so all of them hold the entry's one Statement and its
/// one copy of the error and the plan.
Status DecodeStatement(BinaryReader* r, const SymbolRemap& remap,
                       QueryRecord* out, const std::string& path) {
  uint8_t bits = r->GetU8();
  DecodeText(r, out);
  DecodeOutcome(r, &out->stats);
  if ((bits & kBitParsed) != 0) {
    CQMS_RETURN_IF_ERROR(DecodeParsedFeatures(r, out, path));
  }
  CQMS_RETURN_IF_ERROR(DecodeSignature(
      r, bits, remap, &out->MutableStatement()->signature, path));
  if (r->failed()) return CorruptSnapshot(path, "statement payload");
  return Status::Ok();
}

/// A version-4 record: a copy of its statement entry completed with the
/// record's own fields.
Status DecodeRecord(BinaryReader* r, const std::vector<QueryRecord>& statements,
                    QueryRecord* out, const std::string& path) {
  uint64_t statement = r->GetVarint();
  if (r->failed() || statement >= statements.size()) {
    return CorruptSnapshot(path, "statement index");
  }
  *out = statements[statement];
  DecodeRunFields(r, out);
  CQMS_RETURN_IF_ERROR(DecodeAnnotations(r, out, path));
  if (r->failed()) return CorruptSnapshot(path, "record payload");
  return Status::Ok();
}

/// Records whose visibility differs from the kGroup default — the only
/// ones the ACL section lists.
template <typename Source>  // QueryStore or ReadViewState
std::vector<std::pair<QueryId, Visibility>> NonDefaultVisibility(
    const Source& store) {
  std::vector<std::pair<QueryId, Visibility>> vis;
  for (const QueryRecord& r : store.records()) {
    Visibility v = store.acl().GetVisibility(r.id);
    if (v != Visibility::kGroup) vis.emplace_back(r.id, v);
  }
  return vis;
}

/// Writes the whole file — magic, version and every framed section —
/// through `w`. `table` is the interner prefix [0, limit).
template <typename Writer, typename Source>
void EncodeSnapshotFile(
    const Source& store, const std::vector<std::string>& table, Symbol limit,
    const std::vector<std::pair<QueryId, Visibility>>& visibility,
    const StatementTable& statements, uint64_t wal_sequence, Writer* w) {
  w->PutBytes(kSnapshotV2Magic.data(), kSnapshotV2Magic.size());
  w->PutFixed32(kFormatVersion);

  // Interner section: the full table prefix covering every symbol the
  // signature vectors below are encoded in (see ReferencedSymbolLimit
  // for why the gaps are included).
  size_t section = BeginSection(w, kSectionInterner);
  w->PutVarint(limit);
  for (Symbol s = 0; s < limit; ++s) {
    w->PutVarint(s);
    w->PutString(table[s]);
  }
  EndSection(w, section);

  section = BeginSection(w, kSectionAcl);
  const auto& memberships = store.acl().memberships();
  w->PutVarint(memberships.size());
  for (const auto& [user, groups] : memberships) {
    w->PutString(user);
    w->PutVarint(groups.size());
    for (const std::string& g : groups) w->PutString(g);
  }
  w->PutVarint(visibility.size());
  for (const auto& [id, v] : visibility) {
    w->PutVarint(static_cast<uint64_t>(id));
    w->PutU8(static_cast<uint8_t>(v));
  }
  EndSection(w, section);

  const RecordLog& records = store.records();
  section = BeginSection(w, kSectionStatements);
  w->PutVarint(statements.first_use.size());
  for (uint32_t i : statements.first_use) EncodeStatement(w, records[i]);
  EndSection(w, section);

  section = BeginSection(w, kSectionRecords);
  w->PutVarint(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EncodeRecord(w, records[i], statements.entry_of[i]);
  }
  EndSection(w, section);

  section = BeginSection(w, kSectionDurability);
  w->PutFixed64(wal_sequence);
  EndSection(w, section);

  EndSection(w, BeginSection(w, kSectionEnd));
}

// The encoder reads only records(), size() and acl() from its source —
// exactly the surface QueryStore and ReadViewState share — so one body
// serves both: the live single-threaded save and the view-backed save
// that can run concurrently with the writer. The file is built in one
// buffer reserved to its exact size (a ByteCounter pass), so encoding
// never holds more than the image itself.
template <typename Source>
Status EncodeSnapshotV2Impl(const Source& store, uint64_t wal_sequence,
                            std::string* out) {
  const StatementTable statements = BuildStatementTable(store);
  Symbol limit = ReferencedSymbolLimit(store, statements);
  std::vector<std::string> table = GlobalInterner().ExportTable();
  if (limit > table.size()) {
    // Transient (hash-derived) ids must never reach a stored signature;
    // Append re-interns them.
    return Status::Internal("snapshot references unknown symbol below " +
                            std::to_string(limit));
  }
  const auto visibility = NonDefaultVisibility(store);

  ByteCounter counter;
  EncodeSnapshotFile(store, table, limit, visibility, statements,
                     wal_sequence, &counter);
  BinaryWriter w;
  w.Reserve(counter.size());
  EncodeSnapshotFile(store, table, limit, visibility, statements,
                     wal_sequence, &w);
  *out = w.Take();
  return Status::Ok();
}

/// The format version after the magic, or an error naming `label` when
/// this reader cannot decode it.
Status ReadVersion(std::string_view file, const std::string& label,
                   uint32_t* version) {
  if (file.size() < kSnapshotV2Magic.size() + 4 ||
      file.compare(0, kSnapshotV2Magic.size(), kSnapshotV2Magic) != 0) {
    return CorruptSnapshot(label, "bad magic");
  }
  BinaryReader header(file.substr(kSnapshotV2Magic.size(), 4));
  *version = header.GetFixed32();
  if (*version < kOldestReadableVersion || *version > kFormatVersion) {
    return Status::IoError("unsupported snapshot version " +
                           std::to_string(*version) + ": " + label);
  }
  return Status::Ok();
}

}  // namespace

Status SaveSnapshotV2(const QueryStore& store, const std::string& path,
                      uint64_t wal_sequence, Env* env) {
  std::string file;
  CQMS_RETURN_IF_ERROR(EncodeSnapshotV2(store, wal_sequence, &file));
  return WriteFileAtomic(path, file, env);
}

Status SaveSnapshotV2(const ReadViewState& view, const std::string& path,
                      uint64_t wal_sequence, Env* env) {
  std::string file;
  CQMS_RETURN_IF_ERROR(EncodeSnapshotV2(view, wal_sequence, &file));
  return WriteFileAtomic(path, file, env);
}

Status EncodeSnapshotV2(const QueryStore& store, uint64_t wal_sequence,
                        std::string* out) {
  return EncodeSnapshotV2Impl(store, wal_sequence, out);
}

Status EncodeSnapshotV2(const ReadViewState& view, uint64_t wal_sequence,
                        std::string* out) {
  return EncodeSnapshotV2Impl(view, wal_sequence, out);
}

Status VerifySnapshotV2(const std::string& path, Env* env) {
  std::string file;
  CQMS_RETURN_IF_ERROR(ReadFileToString(path, &file, env));
  return VerifySnapshotV2Image(file, path);
}

Status VerifySnapshotV2Image(std::string_view file, const std::string& path) {
  uint32_t version = 0;
  CQMS_RETURN_IF_ERROR(ReadVersion(file, path, &version));
  size_t pos = kSnapshotV2Magic.size() + 4;
  std::string_view view(file);
  bool saw_records = false;
  while (true) {
    if (file.size() - pos < 1 + 8) return CorruptSnapshot(path, "truncated");
    uint8_t section = static_cast<uint8_t>(file[pos]);
    BinaryReader frame(view.substr(pos + 1, 8));
    uint64_t len = frame.GetFixed64();
    pos += 1 + 8;
    if (len > file.size() - pos || file.size() - pos - len < 4) {
      return CorruptSnapshot(path, "truncated section");
    }
    std::string_view payload = view.substr(pos, len);
    pos += len;
    BinaryReader crc_reader(view.substr(pos, 4));
    uint32_t stored_crc = crc_reader.GetFixed32();
    pos += 4;
    if (Crc32(payload) != stored_crc) {
      return CorruptSnapshot(path, "section crc mismatch");
    }
    if (section == kSectionRecords) saw_records = true;
    if (section == kSectionEnd) {
      if (!saw_records) return CorruptSnapshot(path, "missing records");
      return Status::Ok();
    }
  }
}

Status LoadSnapshotV2FromString(QueryStore* store, std::string_view data,
                                const std::string& label,
                                uint64_t* wal_sequence,
                                const SnapshotConsumed& on_consumed) {
  if (wal_sequence != nullptr) *wal_sequence = 0;
  if (store->size() != 0) {
    return Status::InvalidArgument("LoadSnapshotV2 requires an empty store");
  }
  uint32_t version = 0;
  CQMS_RETURN_IF_ERROR(ReadVersion(data, label, &version));

  SymbolRemap remap;
  std::vector<QueryRecord> statements;
  std::vector<std::pair<QueryId, Visibility>> visibility;
  bool saw_interner = false;
  bool saw_statements = false;
  bool saw_records = false;
  size_t pos = kSnapshotV2Magic.size() + 4;
  while (true) {
    if (data.size() - pos < 1 + 8) return CorruptSnapshot(label, "truncated");
    uint8_t section = static_cast<uint8_t>(data[pos]);
    BinaryReader frame(data.substr(pos + 1, 8));
    uint64_t len = frame.GetFixed64();
    pos += 1 + 8;
    if (len > data.size() - pos || data.size() - pos - len < 4) {
      return CorruptSnapshot(label, "truncated section");
    }
    std::string_view payload = data.substr(pos, len);
    const size_t payload_begin = pos;
    pos += len;
    BinaryReader crc_reader(data.substr(pos, 4));
    uint32_t stored_crc = crc_reader.GetFixed32();
    pos += 4;
    if (Crc32(payload) != stored_crc) {
      return CorruptSnapshot(label, "section crc mismatch");
    }

    BinaryReader r(payload);
    // Every kConsumedStride entries of the two large sections, the
    // bytes the decode has passed.
    auto report = [&](uint64_t decoded) {
      if (on_consumed && decoded % kConsumedStride == 0) {
        on_consumed(payload_begin + (len - r.remaining()));
      }
    };
    switch (section) {
      case kSectionInterner:
        CQMS_RETURN_IF_ERROR(DecodeInterner(&r, &remap, label));
        saw_interner = true;
        break;
      case kSectionAcl:
        CQMS_RETURN_IF_ERROR(DecodeAcl(&r, store, &visibility, label));
        break;
      case kSectionStatements: {
        if (version < kStatementTableVersion) break;  // unknown there
        if (!saw_interner || saw_statements || saw_records) {
          return CorruptSnapshot(label, "misplaced statement table");
        }
        uint64_t count = r.GetVarint();
        if (r.failed() || count > r.remaining()) {
          return CorruptSnapshot(label, "statement count");
        }
        // Not sized from the count: a decoded entry is far larger than
        // its bytes, so the table grows only with entries that decode.
        for (uint64_t i = 0; i < count; ++i) {
          QueryRecord statement;
          CQMS_RETURN_IF_ERROR(DecodeStatement(&r, remap, &statement, label));
          // Each entry's error and plan are shared once, here; the
          // records that copy the entry then hold the store's copies.
          store->ShareRunStrings(&statement);
          statements.push_back(std::move(statement));
          report(i + 1);
        }
        if (!r.AtEnd()) return CorruptSnapshot(label, "statements payload");
        saw_statements = true;
        break;
      }
      case kSectionRecords: {
        if (!saw_interner || saw_records) {
          return CorruptSnapshot(label, "misplaced records");
        }
        const bool whole = version < kStatementTableVersion;
        if (!whole && !saw_statements) {
          return CorruptSnapshot(label, "records before statement table");
        }
        // Every record takes at least one byte, so a larger count is
        // forged; checking it first keeps the reservation bounded by
        // the input.
        uint64_t count = r.GetVarint();
        if (r.failed() || count > r.remaining()) {
          return CorruptSnapshot(label, "record count");
        }
        // A format-4 image names its statement count; older ones hold
        // at most one statement per record.
        store->ReserveForRestore(count, whole ? count : statements.size(),
                                 remap.map.size());
        for (uint64_t i = 0; i < count; ++i) {
          QueryRecord record;
          CQMS_RETURN_IF_ERROR(
              whole ? DecodeWholeRecord(&r, version, remap, &record, label)
                    : DecodeRecord(&r, statements, &record, label));
          store->RestoreAppend(std::move(record),
                               /*run_strings_shared=*/!whole);
          report(i + 1);
        }
        if (!r.AtEnd()) return CorruptSnapshot(label, "records payload");
        saw_records = true;
        break;
      }
      case kSectionDurability:
        if (wal_sequence != nullptr) *wal_sequence = r.GetFixed64();
        if (r.failed()) return CorruptSnapshot(label, "durability payload");
        break;
      case kSectionEnd:
        if (!saw_records) return CorruptSnapshot(label, "missing records");
        if (on_consumed) on_consumed(pos);
        return ApplyVisibility(visibility, store, label);
      default:
        // Unknown section from a newer minor revision: CRC verified,
        // skip.
        break;
    }
    if (on_consumed) on_consumed(pos);
  }
}

Status LoadSnapshotV2(QueryStore* store, const std::string& path,
                      uint64_t* wal_sequence, Env* env) {
  if (wal_sequence != nullptr) *wal_sequence = 0;
  std::string file;
  CQMS_RETURN_IF_ERROR(ReadFileToString(path, &file, env));
  return LoadSnapshotV2FromString(store, file, path, wal_sequence);
}

}  // namespace cqms::storage
