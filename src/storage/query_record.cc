#include "storage/query_record.h"

#include <atomic>

#include "sql/parser.h"

namespace cqms::storage {

bool SimilaritySignature::operator==(const SimilaritySignature& other) const {
  return tables == other.tables &&
         predicate_skeletons == other.predicate_skeletons &&
         attributes == other.attributes && projections == other.projections &&
         text_tokens == other.text_tokens && output_rows == other.output_rows &&
         output_empty_computed == other.output_empty_computed &&
         valid == other.valid && transient == other.transient;
}

LazyParseTree::LazyParseTree(const LazyParseTree& other)
    : tree_(std::atomic_load_explicit(&other.tree_,
                                      std::memory_order_acquire)) {}

LazyParseTree& LazyParseTree::operator=(const LazyParseTree& other) {
  if (this != &other) {
    tree_ = std::atomic_load_explicit(&other.tree_, std::memory_order_acquire);
  }
  return *this;
}

const sql::SelectStatement* LazyParseTree::Get(const std::string& text) const {
  std::shared_ptr<const sql::SelectStatement> cur =
      std::atomic_load_explicit(&tree_, std::memory_order_acquire);
  if (cur == nullptr) {
    auto parsed = sql::Parse(text);
    // A failure here means a snapshot's parsed bit lied about the text;
    // return null and let the caller's null check skip the record rather
    // than crashing a background pass.
    if (!parsed.ok()) return nullptr;
    std::shared_ptr<const sql::SelectStatement> fresh =
        std::move(parsed).value();
    // Set-once: the first materializer wins; losers adopt the winner's
    // tree (cur is reloaded by the failed CAS) so every caller returns
    // the same pointer.
    if (std::atomic_compare_exchange_strong_explicit(
            &tree_, &cur, fresh, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      cur = std::move(fresh);
    }
  }
  return cur.get();
}

std::shared_ptr<const sql::SelectStatement> LazyParseTree::IfMaterialized()
    const {
  return std::atomic_load_explicit(&tree_, std::memory_order_acquire);
}

bool Statement::operator==(const Statement& other) const {
  return text == other.text && text_parses == other.text_parses &&
         canonical_text == other.canonical_text && skeleton == other.skeleton &&
         skeleton_fingerprint == other.skeleton_fingerprint &&
         components == other.components && signature == other.signature;
}

Statement* QueryRecord::MutableStatement() {
  if (statement_.use_count() != 1) {
    set_statement(std::make_shared<Statement>(*statement_));
  }
  return statement_.get();
}

std::shared_ptr<Statement> QueryRecord::EmptyStatement() {
  // Shared by every default-constructed record; its use count never
  // drops to one, so MutableStatement always clones it.
  static const std::shared_ptr<Statement> empty = std::make_shared<Statement>();
  return empty;
}

}  // namespace cqms::storage
