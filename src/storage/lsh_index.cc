#include "storage/lsh_index.h"

#include <algorithm>

#include "common/hash.h"
#include "common/sorted_vector.h"

namespace cqms::storage {

LshIndex::LshIndex(LshParams params) : params_(params) {
  if (params_.bands == 0) params_.bands = 1;
  if (params_.rows == 0) params_.rows = 1;
  // The banding must fit the sketch; shrink bands rather than read past
  // the end of the slot array.
  if (params_.bands * params_.rows > MinHashSketch::kSize) {
    params_.bands = MinHashSketch::kSize / params_.rows;
    if (params_.bands == 0) {
      params_.bands = 1;
      params_.rows = MinHashSketch::kSize;
    }
  }
  buckets_.resize(params_.bands);
}

uint64_t LshIndex::BandKey(const MinHashSketch& sketch, size_t band) const {
  // No band salt needed: each band has its own bucket map, so keys from
  // different bands never meet.
  uint64_t key = 0x8f1bbcdc8f1bbcdcULL;
  const size_t start = band * params_.rows;
  for (size_t r = 0; r < params_.rows; ++r) {
    key = HashCombine(key, sketch.mins[start + r]);
  }
  return key;
}

void LshIndex::Reserve(size_t statements) {
  for (auto& band : buckets_) band.reserve(statements);
}

void LshIndex::Insert(StatementId id, const MinHashSketch& sketch) {
  if (!sketch.valid || sketch.empty()) return;
  for (size_t band = 0; band < params_.bands; ++band) {
    InsertSorted(&buckets_[band][BandKey(sketch, band)], id);
  }
  id_bound_ = std::max(id_bound_, static_cast<size_t>(id) + 1);
}

void LshIndex::Remove(StatementId id, const MinHashSketch& sketch) {
  if (!sketch.valid || sketch.empty()) return;
  for (size_t band = 0; band < params_.bands; ++band) {
    auto it = buckets_[band].find(BandKey(sketch, band));
    if (it == buckets_[band].end()) continue;
    EraseSorted(&it->second, id);
    if (it->second.empty()) buckets_[band].erase(it);
  }
}

std::vector<StatementId> LshIndex::Candidates(const MinHashSketch& sketch,
                                              size_t probe_bands,
                                              LshProbeScratch* scratch) const {
  std::vector<StatementId> out;
  if (!sketch.valid || sketch.empty()) return out;
  if (scratch == nullptr) {
    // Per-thread scratch: safe to share across indexes because the
    // epoch stamp invalidates whatever a previous probe (of any index)
    // left behind, and the table only ever grows.
    thread_local LshProbeScratch tls_scratch;
    scratch = &tls_scratch;
  }
  size_t limit = probe_bands == 0 ? params_.bands
                                  : std::min(probe_bands, params_.bands);
  // Bucket posting lists overlap heavily (near-duplicates co-bucket in
  // every band), so dedup with an epoch-stamped scratch table instead
  // of sort+unique over the concatenation: O(total postings) per call
  // with no per-call zeroing or allocation (the table grows once to the
  // id bound and is invalidated by bumping the epoch).
  const uint64_t epoch = ++scratch->epoch_;
  if (scratch->seen_epoch_.size() < id_bound_) {
    scratch->seen_epoch_.resize(id_bound_, 0);
  }
  for (size_t band = 0; band < limit; ++band) {
    auto it = buckets_[band].find(BandKey(sketch, band));
    if (it == buckets_[band].end()) continue;
    for (StatementId id : it->second) {
      uint64_t& stamp = scratch->seen_epoch_[id];
      if (stamp != epoch) {
        stamp = epoch;
        out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t LshIndex::entry_count() const {
  size_t total = 0;
  for (const auto& band : buckets_) {
    for (const auto& [key, ids] : band) total += ids.size();
  }
  return total;
}

bool LshIndex::ContainsExactlyOnce(StatementId id,
                                   const MinHashSketch& sketch) const {
  if (!sketch.valid || sketch.empty()) return false;
  for (size_t band = 0; band < params_.bands; ++band) {
    auto it = buckets_[band].find(BandKey(sketch, band));
    if (it == buckets_[band].end()) return false;
    if (std::count(it->second.begin(), it->second.end(), id) != 1) return false;
  }
  return true;
}

}  // namespace cqms::storage
