#include "storage/scoring_columns.h"

#include <algorithm>

#include "common/string_util.h"

namespace cqms::storage {

namespace {

uint16_t Clamp16(size_t n) {
  return static_cast<uint16_t>(std::min<size_t>(n, 0xFFFF));
}

/// Makes `*to` a copy of `from` with at least `from`'s capacity.
template <typename Container>
void CopyWithCapacity(const Container& from, Container* to) {
  to->reserve(from.capacity());
  to->assign(from.begin(), from.end());
}

size_t RunBytes(const ScoringColumns::SignatureRef& ref) {
  return sizeof(Symbol) * (static_cast<size_t>(ref.n_tables) +
                           ref.n_skeletons + ref.n_attributes +
                           ref.n_projections + ref.n_tokens) +
         sizeof(uint64_t) * ref.n_output + ref.text_len;
}

}  // namespace

ScoringColumns::ScoringColumns(const ScoringColumns& other)
    : arena_garbage_(other.arena_garbage_) {
  CopyWithCapacity(other.flags_, &flags_);
  CopyWithCapacity(other.quality_, &quality_);
  CopyWithCapacity(other.timestamp_, &timestamp_);
  CopyWithCapacity(other.owner_, &owner_);
  CopyWithCapacity(other.stmt_, &stmt_);
  CopyWithCapacity(other.sig_, &sig_);
  CopyWithCapacity(other.stmt_pop_slot_, &stmt_pop_slot_);
  CopyWithCapacity(other.pop_counts_, &pop_counts_);
  CopyWithCapacity(other.sym_arena_, &sym_arena_);
  CopyWithCapacity(other.out_arena_, &out_arena_);
  CopyWithCapacity(other.text_arena_, &text_arena_);
}

void ScoringColumns::Reserve(size_t records, size_t statements) {
  flags_.reserve(records);
  quality_.reserve(records);
  timestamp_.reserve(records);
  owner_.reserve(records);
  stmt_.reserve(records);
  sig_.reserve(statements);
  stmt_pop_slot_.reserve(statements);
  pop_counts_.reserve(statements);
}

void ScoringColumns::SetStatement(StatementId s, const Statement& statement,
                                  uint32_t pop_slot) {
  const SimilaritySignature& sig = statement.signature;
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

  std::string lowered = ToLower(statement.text);
  ref.text_begin = static_cast<uint32_t>(text_arena_.size());
  ref.text_len = static_cast<uint32_t>(lowered.size());
  text_arena_ += lowered;

  ref.bits = 0;
  if (sig.valid && !clamped) ref.bits |= kSigValid;
  if (statement.text_parses) ref.bits |= kSigParsed;
  if (sig.output_empty_computed) ref.bits |= kSigOutputEmptyComputed;

  if (s >= sig_.size()) {
    sig_.resize(static_cast<size_t>(s) + 1);
    stmt_pop_slot_.resize(static_cast<size_t>(s) + 1, kNoPopularitySlot);
  }
  sig_[s] = ref;
  stmt_pop_slot_[s] = pop_slot;
}

void ScoringColumns::ReleaseStatement(StatementId s) {
  arena_garbage_ += RunBytes(sig_[s]);
  sig_[s] = SignatureRef();
  stmt_pop_slot_[s] = kNoPopularitySlot;
}

void ScoringColumns::AppendRecord(const QueryRecord& record,
                                  StatementId statement, Symbol owner) {
  flags_.push_back(record.flags);
  quality_.push_back(record.quality);
  timestamp_.push_back(record.timestamp);
  owner_.push_back(owner);
  stmt_.push_back(statement);
}

size_t ScoringColumns::Compact() {
  // Size the fresh arenas exactly: one pass summing the live runs, one
  // pass copying them. Released rows are all zero and copy nothing, and
  // rows are rewritten in statement-id order.
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

}  // namespace cqms::storage
