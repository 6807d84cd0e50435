#include "miner/association_rules.h"

#include <algorithm>
#include <set>

namespace cqms::miner {

namespace {

using Itemset = std::vector<std::string>;  // sorted

/// The (sorted, deduplicated) transaction items of one parsed record —
/// shared by the batch builder and the incremental state so both
/// produce literally the same transactions.
Itemset ItemsOf(const storage::QueryRecord& record,
                const AssociationMinerOptions& options) {
  std::set<std::string> items;
  for (const std::string& t : record.components->tables) items.insert("t:" + t);
  if (options.include_predicates) {
    for (const auto& p : record.components->predicates) {
      if (!p.is_join) items.insert("p:" + p.Skeleton());
    }
  }
  if (options.include_attributes) {
    for (const auto& [rel, attr] : record.components->attributes) {
      items.insert("a:" + rel + "." + attr);
    }
  }
  return Itemset(items.begin(), items.end());
}

bool Contains(const Itemset& haystack, const Itemset& needle) {
  return std::includes(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end());
}

/// Counts occurrences of each candidate itemset across transactions.
std::map<Itemset, size_t> CountSupport(
    const std::vector<std::vector<std::string>>& transactions,
    const std::vector<Itemset>& candidates) {
  std::map<Itemset, size_t> counts;
  for (const auto& tx : transactions) {
    for (const Itemset& c : candidates) {
      if (Contains(tx, c)) ++counts[c];
    }
  }
  return counts;
}

/// Apriori candidate generation: joins frequent (k)-itemsets sharing a
/// (k-1)-prefix; prunes candidates with an infrequent subset.
std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& frequent,
                                        const std::set<Itemset>& frequent_set) {
  std::vector<Itemset> candidates;
  for (size_t i = 0; i < frequent.size(); ++i) {
    for (size_t j = i + 1; j < frequent.size(); ++j) {
      const Itemset& a = frequent[i];
      const Itemset& b = frequent[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) continue;
      Itemset joined = a;
      joined.push_back(b.back());
      std::sort(joined.begin(), joined.end());
      // Prune: every (k-1)-subset must be frequent.
      bool all_frequent = true;
      for (size_t drop = 0; drop < joined.size(); ++drop) {
        Itemset subset;
        for (size_t x = 0; x < joined.size(); ++x) {
          if (x != drop) subset.push_back(joined[x]);
        }
        if (frequent_set.count(subset) == 0) {
          all_frequent = false;
          break;
        }
      }
      if (all_frequent) candidates.push_back(std::move(joined));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

/// Rules with a single consequent from the frequent-itemset lattice —
/// the tail both mining paths share, so a given `all_counts` always
/// yields the identical rule list.
std::vector<AssociationRule> RulesFromCounts(
    const std::map<Itemset, size_t>& all_counts, double n,
    const AssociationMinerOptions& options) {
  std::vector<AssociationRule> rules;
  for (const auto& [itemset, count] : all_counts) {
    if (itemset.size() < 2) continue;
    for (size_t drop = 0; drop < itemset.size(); ++drop) {
      Itemset antecedent;
      for (size_t x = 0; x < itemset.size(); ++x) {
        if (x != drop) antecedent.push_back(itemset[x]);
      }
      auto it = all_counts.find(antecedent);
      if (it == all_counts.end() || it->second == 0) continue;
      double confidence =
          static_cast<double>(count) / static_cast<double>(it->second);
      if (confidence < options.min_confidence) continue;
      AssociationRule rule;
      rule.antecedent = antecedent;
      rule.consequent = itemset[drop];
      rule.count = count;
      rule.support = static_cast<double>(count) / n;
      rule.confidence = confidence;
      rules.push_back(std::move(rule));
    }
  }

  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) return a.confidence > b.confidence;
              if (a.support != b.support) return a.support > b.support;
              return a.consequent < b.consequent;
            });
  return rules;
}

}  // namespace

std::vector<std::vector<std::string>> BuildTransactions(
    const storage::QueryStore& store, const std::vector<storage::QueryId>& ids,
    const AssociationMinerOptions& options) {
  std::vector<std::vector<std::string>> transactions;
  transactions.reserve(ids.size());
  for (storage::QueryId id : ids) {
    const storage::QueryRecord* r = store.Get(id);
    if (r == nullptr || r->parse_failed()) continue;
    Itemset items = ItemsOf(*r, options);
    if (!items.empty()) transactions.push_back(std::move(items));
  }
  return transactions;
}

std::vector<AssociationRule> MineAssociationRules(
    const std::vector<std::vector<std::string>>& transactions,
    const AssociationMinerOptions& options) {
  if (transactions.empty()) return {};
  const double n = static_cast<double>(transactions.size());
  const size_t min_count = static_cast<size_t>(
      std::max(1.0, options.min_support * n));

  // L1: frequent single items.
  std::map<std::string, size_t> item_counts;
  for (const auto& tx : transactions) {
    for (const std::string& item : tx) ++item_counts[item];
  }
  std::vector<Itemset> frequent;
  std::map<Itemset, size_t> all_counts;
  for (const auto& [item, count] : item_counts) {
    if (count >= min_count) {
      frequent.push_back({item});
      all_counts[{item}] = count;
    }
  }
  std::sort(frequent.begin(), frequent.end());

  // Lk for k = 2 .. max_antecedent_size + 1.
  const size_t max_size = options.max_antecedent_size + 1;
  std::vector<Itemset> current = frequent;
  for (size_t k = 2; k <= max_size && current.size() > 1; ++k) {
    std::set<Itemset> frequent_set(current.begin(), current.end());
    std::vector<Itemset> candidates = GenerateCandidates(current, frequent_set);
    if (candidates.empty()) break;
    std::map<Itemset, size_t> counts = CountSupport(transactions, candidates);
    std::vector<Itemset> next;
    for (const auto& [itemset, count] : counts) {
      if (count >= min_count) {
        next.push_back(itemset);
        all_counts[itemset] = count;
      }
    }
    std::sort(next.begin(), next.end());
    current = std::move(next);
  }

  return RulesFromCounts(all_counts, n, options);
}

void AssociationMinerState::Rebuild(const storage::QueryStore& store,
                                    const std::vector<storage::QueryId>& ids,
                                    const AssociationMinerOptions& options) {
  options_ = options;
  transactions_.clear();
  item_counts_.clear();
  tracked_.clear();
  last_fresh_counts_ = 0;
  for (storage::QueryId id : ids) {
    Resync(store, id);
  }
}

void AssociationMinerState::AddTransaction(storage::QueryId id,
                                           std::vector<std::string> items) {
  for (const std::string& item : items) ++item_counts_[item];
  for (auto& [itemset, tracked] : tracked_) {
    if (Contains(items, itemset)) ++tracked.count;
  }
  transactions_.emplace(id, std::move(items));
}

void AssociationMinerState::RemoveTransaction(storage::QueryId id) {
  auto it = transactions_.find(id);
  if (it == transactions_.end()) return;
  const Itemset& items = it->second;
  for (const std::string& item : items) {
    auto cit = item_counts_.find(item);
    if (cit != item_counts_.end() && --cit->second == 0) {
      item_counts_.erase(cit);
    }
  }
  for (auto tit = tracked_.begin(); tit != tracked_.end();) {
    if (Contains(items, tit->first) && --tit->second.count == 0) {
      tit = tracked_.erase(tit);
    } else {
      ++tit;
    }
  }
  transactions_.erase(it);
}

void AssociationMinerState::Resync(const storage::QueryStore& store,
                                   storage::QueryId id) {
  RemoveTransaction(id);
  const storage::QueryRecord* r = store.Get(id);
  if (r == nullptr || r->parse_failed() ||
      r->HasFlag(storage::kFlagDeleted)) {
    return;
  }
  Itemset items = ItemsOf(*r, options_);
  if (items.empty()) return;
  AddTransaction(id, std::move(items));
}

std::vector<AssociationRule> AssociationMinerState::Mine() {
  last_fresh_counts_ = 0;
  ++mine_generation_;
  if (transactions_.empty()) return {};
  const double n = static_cast<double>(transactions_.size());
  const size_t min_count =
      static_cast<size_t>(std::max(1.0, options_.min_support * n));

  // L1 straight from the maintained single-item counts.
  std::vector<Itemset> frequent;
  std::map<Itemset, size_t> all_counts;
  for (const auto& [item, count] : item_counts_) {
    if (count >= min_count) {
      frequent.push_back({item});
      all_counts[{item}] = count;
    }
  }
  std::sort(frequent.begin(), frequent.end());

  // Lk: identical candidate lattice to the batch path, but counts come
  // from the memo; only never-before-tracked candidates pay a
  // transaction scan (and are tracked from then on).
  const size_t max_size = options_.max_antecedent_size + 1;
  std::vector<Itemset> current = frequent;
  for (size_t k = 2; k <= max_size && current.size() > 1; ++k) {
    std::set<Itemset> frequent_set(current.begin(), current.end());
    std::vector<Itemset> candidates = GenerateCandidates(current, frequent_set);
    if (candidates.empty()) break;
    std::vector<Itemset> next;
    for (const Itemset& c : candidates) {
      auto tit = tracked_.find(c);
      size_t count;
      if (tit != tracked_.end()) {
        count = tit->second.count;
        tit->second.last_needed_gen = mine_generation_;
      } else {
        count = 0;
        for (const auto& [id, tx] : transactions_) {
          if (Contains(tx, c)) ++count;
        }
        ++last_fresh_counts_;
        // Track even zero counts: the candidate will be regenerated on
        // every future Mine() while its subsets stay frequent, and the
        // memo keeps those re-counts O(delta).
        tracked_[c] = TrackedCount{count, mine_generation_};
      }
      if (count >= min_count) {
        // Matches the batch path, which iterates a sorted counts map —
        // candidates are sorted, so `next` stays sorted too.
        next.push_back(c);
        all_counts[c] = count;
      }
    }
    current = std::move(next);
  }

  // Sweep candidates the frequency structure moved away from: anything
  // not needed for kRetainGenerations consecutive mines gets dropped
  // (and recounted from scratch in the unlikely event it returns), so
  // the memo — and the per-dirty-id resync cost, which scans it — stays
  // proportional to the current lattice instead of all history.
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    if (it->second.last_needed_gen + kRetainGenerations <= mine_generation_) {
      it = tracked_.erase(it);
    } else {
      ++it;
    }
  }

  return RulesFromCounts(all_counts, n, options_);
}

std::vector<std::pair<std::string, double>> SuggestFromRules(
    const std::vector<AssociationRule>& rules,
    const std::vector<std::string>& context, size_t limit) {
  std::set<std::string> have(context.begin(), context.end());
  std::vector<std::pair<std::string, double>> suggestions;
  std::set<std::string> suggested;
  for (const AssociationRule& rule : rules) {
    if (suggestions.size() >= limit) break;
    if (have.count(rule.consequent) > 0) continue;
    if (suggested.count(rule.consequent) > 0) continue;
    bool applicable = true;
    for (const std::string& item : rule.antecedent) {
      if (have.count(item) == 0) {
        applicable = false;
        break;
      }
    }
    if (!applicable) continue;
    suggestions.emplace_back(rule.consequent, rule.confidence);
    suggested.insert(rule.consequent);
  }
  return suggestions;
}

}  // namespace cqms::miner
