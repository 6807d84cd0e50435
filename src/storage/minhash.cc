#include "storage/minhash.h"

#include <algorithm>

#include "common/hash.h"
#include "common/interner.h"
#include "common/sorted_vector.h"
#include "common/string_util.h"
#include "sql/token.h"
#include "storage/query_record.h"

namespace cqms::storage {

namespace {

/// Per-field salts keep "watertemp" the table distinct from "watertemp"
/// the text token: the element hash mixes (salt << 32) | symbol, and
/// Symbols occupy the low 32 bits.
enum FieldSalt : uint64_t {
  kSaltTable = 1,
  kSaltPredicateSkeleton = 2,
  kSaltAttribute = 3,
  kSaltProjection = 4,
  kSaltTextToken = 5,
};

uint64_t ElementHash(uint64_t salt, Symbol symbol) {
  return HashMix((salt << 32) | static_cast<uint64_t>(symbol));
}

void AppendElements(uint64_t salt, const std::vector<Symbol>& symbols,
                    std::vector<uint64_t>* out) {
  for (Symbol s : symbols) out->push_back(ElementHash(salt, s));
}

/// True for text tokens that are SQL reserved words. Hash-derived
/// transient Symbols resolve to an empty name and pass through — fine,
/// every keyword is interned by the first logged query, so real probes
/// see the real ids. Sketches are derived wherever they are used (every
/// LSH insert/remove, snapshot restore, kNN probe and clustering
/// build), so the answer is memoized per thread and Symbol: an interned
/// name never changes, and the interner mutex round-trip plus the
/// upper-casing are paid once per distinct token instead of once per
/// token of every sketch.
bool IsKeywordToken(Symbol s) {
  enum : uint8_t { kUnknown = 0, kKeyword = 1, kWord = 2 };
  // Interner ids are dense from 0; larger ids (transient ones set the
  // high bit) bypass the memo rather than size it.
  constexpr Symbol kMemoLimit = 1u << 24;
  thread_local std::vector<uint8_t> memo;
  if (s < memo.size() && memo[s] != kUnknown) return memo[s] == kKeyword;
  std::string_view name = GlobalInterner().NameOf(s);
  if (name.empty()) return false;  // unknown id: nothing to memoize
  const bool keyword = sql::IsReservedKeyword(ToUpper(name));
  if (s < kMemoLimit) {
    if (s >= memo.size()) {
      memo.resize(std::min<size_t>(kMemoLimit,
                                   std::max<size_t>(s + 1, 2 * memo.size())));
    }
    memo[s] = keyword ? kKeyword : kWord;
  }
  return keyword;
}

}  // namespace

std::vector<uint64_t> SketchElements(const SimilaritySignature& signature) {
  std::vector<uint64_t> elements;
  elements.reserve(signature.tables.size() + signature.predicate_skeletons.size() +
                   signature.attributes.size() + signature.projections.size() +
                   signature.text_tokens.size());
  AppendElements(kSaltTable, signature.tables, &elements);
  AppendElements(kSaltPredicateSkeleton, signature.predicate_skeletons, &elements);
  AppendElements(kSaltAttribute, signature.attributes, &elements);
  AppendElements(kSaltProjection, signature.projections, &elements);
  for (Symbol s : signature.text_tokens) {
    if (!IsKeywordToken(s)) elements.push_back(ElementHash(kSaltTextToken, s));
  }
  SortUnique(&elements);
  return elements;
}

MinHashSketch ComputeMinHashSketch(const SimilaritySignature& signature) {
  MinHashSketch sketch;
  if (!signature.valid) return sketch;
  for (uint64_t element : SketchElements(signature)) {
    // Kirsch-Mitzenmacher: g_i(e) = h1(e) + (i+1) * h2(e), with h2
    // forced odd so the stride is a bijection of the 64-bit ring.
    uint64_t h1 = HashMix(element);
    uint64_t h2 = HashMix(element ^ 0x9e3779b97f4a7c15ULL) | 1ULL;
    uint64_t g = h1;
    for (size_t i = 0; i < MinHashSketch::kSize; ++i) {
      g += h2;
      sketch.mins[i] = std::min(sketch.mins[i], g);
    }
  }
  sketch.valid = true;
  return sketch;
}

double EstimateJaccard(const MinHashSketch& a, const MinHashSketch& b) {
  size_t matches = 0;
  for (size_t i = 0; i < MinHashSketch::kSize; ++i) {
    if (a.mins[i] == b.mins[i]) ++matches;
  }
  return static_cast<double>(matches) / static_cast<double>(MinHashSketch::kSize);
}

}  // namespace cqms::storage
