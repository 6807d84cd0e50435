#include "storage/query_record.h"

#include <atomic>

#include "sql/parser.h"

namespace cqms::storage {

QueryRecord::QueryRecord(const QueryRecord& other)
    : id(other.id),
      text(other.text),
      canonical_text(other.canonical_text),
      skeleton(other.skeleton),
      fingerprint(other.fingerprint),
      skeleton_fingerprint(other.skeleton_fingerprint),
      user(other.user),
      timestamp(other.timestamp),
      // Atomic load: `other` may be a shared view record whose Ast() a
      // concurrent reader is materializing right now.
      ast(std::atomic_load_explicit(&other.ast, std::memory_order_acquire)),
      text_parses(other.text_parses),
      components(other.components),
      stats(other.stats),
      summary(other.summary),
      signature(other.signature),
      annotations(other.annotations),
      session_id(other.session_id),
      flags(other.flags),
      quality(other.quality) {}

QueryRecord& QueryRecord::operator=(const QueryRecord& other) {
  if (this != &other) *this = QueryRecord(other);  // copy, then move-assign
  return *this;
}

const sql::SelectStatement* QueryRecord::Ast() const {
  std::shared_ptr<const sql::SelectStatement> cur =
      std::atomic_load_explicit(&ast, std::memory_order_acquire);
  if (cur == nullptr && text_parses) {
    auto parsed = sql::Parse(text);
    // A failure here means the snapshot's parsed bit lied about the
    // text; leave ast null and let the caller's null check skip the
    // record rather than crashing a background pass.
    if (!parsed.ok()) return nullptr;
    std::shared_ptr<const sql::SelectStatement> fresh =
        std::move(parsed).value();
    // Set-once: the first materializer wins; losers adopt the winner's
    // tree (cur is reloaded by the failed CAS) so every caller returns
    // the same pointer, kept alive by the member for the record's life.
    if (std::atomic_compare_exchange_strong_explicit(
            &ast, &cur, fresh, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      cur = std::move(fresh);
    }
  }
  return cur.get();
}

}  // namespace cqms::storage
