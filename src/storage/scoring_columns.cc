#include "storage/scoring_columns.h"

#include <algorithm>

#include "common/string_util.h"

namespace cqms::storage {

namespace {

uint16_t Clamp16(size_t n) {
  return static_cast<uint16_t>(std::min<size_t>(n, 0xFFFF));
}

}  // namespace

void ScoringColumns::Reserve(size_t records) {
  flags_.reserve(records);
  quality_.reserve(records);
  timestamp_.reserve(records);
  owner_.reserve(records);
  pop_slot_.reserve(records);
  sig_.reserve(records);
  pop_counts_.reserve(records);
}

ScoringColumns::SignatureRef ScoringColumns::PackRecord(
    const QueryRecord& record) {
  const SimilaritySignature& sig = record.statement().signature;
  SignatureRef ref;
  ref.begin = static_cast<uint32_t>(sym_arena_.size());
  // Signature vectors are bounded by the tokens of one SQL statement, so
  // the u16 section lengths cannot saturate in practice. If a
  // machine-generated monster ever does overflow one, the section is
  // clamped and the row is marked signature-invalid below, so scoring
  // falls back to the record path instead of silently diverging from it.
  ref.n_tables = Clamp16(sig.tables.size());
  ref.n_skeletons = Clamp16(sig.predicate_skeletons.size());
  ref.n_attributes = Clamp16(sig.attributes.size());
  ref.n_projections = Clamp16(sig.projections.size());
  ref.n_tokens = Clamp16(sig.text_tokens.size());
  const bool clamped = ref.n_tables != sig.tables.size() ||
                       ref.n_skeletons != sig.predicate_skeletons.size() ||
                       ref.n_attributes != sig.attributes.size() ||
                       ref.n_projections != sig.projections.size() ||
                       ref.n_tokens != sig.text_tokens.size();
  auto append_run = [this](const std::vector<Symbol>& v, uint16_t n) {
    sym_arena_.insert(sym_arena_.end(), v.begin(), v.begin() + n);
  };
  append_run(sig.tables, ref.n_tables);
  append_run(sig.predicate_skeletons, ref.n_skeletons);
  append_run(sig.attributes, ref.n_attributes);
  append_run(sig.projections, ref.n_projections);
  append_run(sig.text_tokens, ref.n_tokens);

  ref.out_begin = static_cast<uint32_t>(out_arena_.size());
  ref.n_output = static_cast<uint32_t>(sig.output_rows.size());
  out_arena_.insert(out_arena_.end(), sig.output_rows.begin(),
                    sig.output_rows.end());

  std::string lowered = ToLower(record.text);
  ref.text_begin = static_cast<uint32_t>(text_arena_.size());
  ref.text_len = static_cast<uint32_t>(lowered.size());
  text_arena_ += lowered;

  ref.bits = 0;
  if (sig.valid && !clamped) ref.bits |= kSigValid;
  if (!record.parse_failed()) ref.bits |= kSigParsed;
  if (sig.output_empty_computed) ref.bits |= kSigOutputEmptyComputed;
  return ref;
}

void ScoringColumns::AppendRecord(const QueryRecord& record, uint32_t pop_slot,
                                  Symbol owner) {
  flags_.push_back(record.flags);
  quality_.push_back(record.quality);
  timestamp_.push_back(record.timestamp);
  owner_.push_back(owner);
  pop_slot_.push_back(pop_slot);
  sig_.push_back(PackRecord(record));
}

void ScoringColumns::RewriteRecord(const QueryRecord& record,
                                   uint32_t pop_slot) {
  size_t idx = static_cast<size_t>(record.id);
  const SignatureRef& old = sig_[idx];
  arena_garbage_ += sizeof(Symbol) * (old.n_tables + old.n_skeletons +
                                      old.n_attributes + old.n_projections +
                                      old.n_tokens) +
                    sizeof(uint64_t) * old.n_output + old.text_len;
  pop_slot_[idx] = pop_slot;
  flags_[idx] = record.flags;
  sig_[idx] = PackRecord(record);
}

bool ScoringColumns::SyncOutput(const QueryRecord& record) {
  size_t idx = static_cast<size_t>(record.id);
  SignatureRef& ref = sig_[idx];
  const SimilaritySignature& sig = record.statement().signature;
  // Stats refresh usually re-executes to the same output; reuse the
  // existing run when the hashes are unchanged instead of orphaning it.
  bool unchanged =
      ref.n_output == sig.output_rows.size() &&
      std::equal(sig.output_rows.begin(), sig.output_rows.end(),
                 out_arena_.begin() + ref.out_begin);
  if (!unchanged) {
    arena_garbage_ += sizeof(uint64_t) * ref.n_output;
    ref.out_begin = static_cast<uint32_t>(out_arena_.size());
    ref.n_output = static_cast<uint32_t>(sig.output_rows.size());
    out_arena_.insert(out_arena_.end(), sig.output_rows.begin(),
                      sig.output_rows.end());
  }
  const uint8_t old_bits = ref.bits;
  if (sig.output_empty_computed) {
    ref.bits |= kSigOutputEmptyComputed;
  } else {
    ref.bits &= static_cast<uint8_t>(~kSigOutputEmptyComputed);
  }
  return !unchanged || ref.bits != old_bits;
}

size_t ScoringColumns::Compact() {
  // Size the fresh arenas exactly: one pass summing the live runs, one
  // pass copying them. Directory entries are rewritten in id order, so
  // the compacted arenas are also append-ordered again.
  size_t live_syms = 0, live_out = 0, live_text = 0;
  for (const SignatureRef& ref : sig_) {
    live_syms += static_cast<size_t>(ref.n_tables) + ref.n_skeletons +
                 ref.n_attributes + ref.n_projections + ref.n_tokens;
    live_out += ref.n_output;
    live_text += ref.text_len;
  }
  const size_t reclaimed =
      sizeof(Symbol) * (sym_arena_.size() - live_syms) +
      sizeof(uint64_t) * (out_arena_.size() - live_out) +
      (text_arena_.size() - live_text);

  std::vector<Symbol> new_sym;
  new_sym.reserve(live_syms);
  std::vector<uint64_t> new_out;
  new_out.reserve(live_out);
  std::string new_text;
  new_text.reserve(live_text);
  for (SignatureRef& ref : sig_) {
    const size_t n_syms = static_cast<size_t>(ref.n_tables) + ref.n_skeletons +
                          ref.n_attributes + ref.n_projections + ref.n_tokens;
    const uint32_t begin = static_cast<uint32_t>(new_sym.size());
    new_sym.insert(new_sym.end(), sym_arena_.begin() + ref.begin,
                   sym_arena_.begin() + ref.begin + n_syms);
    ref.begin = begin;
    const uint32_t out_begin = static_cast<uint32_t>(new_out.size());
    new_out.insert(new_out.end(), out_arena_.begin() + ref.out_begin,
                   out_arena_.begin() + ref.out_begin + ref.n_output);
    ref.out_begin = out_begin;
    const uint32_t text_begin = static_cast<uint32_t>(new_text.size());
    new_text.append(text_arena_, ref.text_begin, ref.text_len);
    ref.text_begin = text_begin;
  }
  sym_arena_ = std::move(new_sym);
  out_arena_ = std::move(new_out);
  text_arena_ = std::move(new_text);
  arena_garbage_ = 0;
  return reclaimed;
}

uint32_t ScoringColumns::NewPopularitySlot() {
  pop_counts_.push_back(0);
  return static_cast<uint32_t>(pop_counts_.size() - 1);
}

bool ScoringColumns::TokenPresent(QueryId id, Symbol token) const {
  SymbolSpan span = tokens(id);
  return std::binary_search(span.data, span.data + span.size, token);
}

}  // namespace cqms::storage
