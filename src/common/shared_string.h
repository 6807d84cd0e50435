#ifndef CQMS_COMMON_SHARED_STRING_H_
#define CQMS_COMMON_SHARED_STRING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/shared_value.h"

namespace cqms {

/// Read access to a string held elsewhere, for a handle type `Handle`
/// with a `const std::string& str() const`: binds to `const
/// std::string&` and `std::string_view`, compares with strings and other
/// handles, concatenates and prints like a std::string, and `->` reaches
/// the string's members.
template <typename Handle>
class StringReader {
 public:
  operator const std::string&() const { return self().str(); }
  operator std::string_view() const { return self().str(); }
  const std::string* operator->() const { return &self().str(); }
  bool empty() const { return self().str().empty(); }

  /// Two handles on one copy compare by address.
  friend bool operator==(const Handle& a, const Handle& b) {
    return &a.str() == &b.str() || a.str() == b.str();
  }
  friend bool operator!=(const Handle& a, const Handle& b) {
    return !(a == b);
  }
  friend bool operator==(const Handle& a, std::string_view b) {
    return a.str() == b;
  }
  friend bool operator!=(const Handle& a, std::string_view b) {
    return a.str() != b;
  }
  friend bool operator==(std::string_view a, const Handle& b) {
    return a == b.str();
  }
  friend bool operator!=(std::string_view a, const Handle& b) {
    return a != b.str();
  }
  friend std::string operator+(const std::string& a, const Handle& b) {
    return a + b.str();
  }
  friend std::string operator+(const Handle& a, const char* b) {
    return a.str() + b;
  }
  friend std::ostream& operator<<(std::ostream& os, const Handle& h) {
    return os << h.str();
  }

 private:
  const Handle& self() const { return static_cast<const Handle&>(*this); }
};

/// An immutable string that any number of owners can hold as one copy:
/// one pointer (a SharedValue), so copying a SharedString copies a
/// pointer, and a SharedStringTable points an equal value at another
/// holder's copy. An empty value holds no copy at all. Assigning a
/// std::string replaces the value with a fresh, unshared copy; the copy
/// a SharedString pointed at is never edited, so a holder on another
/// thread keeps reading the old value.
class SharedString : public StringReader<SharedString> {
 public:
  SharedString& operator=(std::string value) {
    value_ = value.empty() ? SharedValue<std::string>()
                           : SharedValue<std::string>(std::move(value));
    return *this;
  }

  const std::string& str() const {
    static const std::string empty;
    const std::string* value = value_.get();
    return value != nullptr ? *value : empty;
  }

 private:
  friend class SharedStringTable;

  SharedValue<std::string> value_;
};

/// The copies of equal SharedStrings, keyed by content: Share points a
/// value at the table's copy equal to it, or enters the value's own.
/// The table holds one handle on each copy, so a copy every record let
/// go of stays until the next sweep, which runs when the table has
/// doubled since the last one and drops the copies only the table
/// holds (a later equal value reuses such a copy until then). Not
/// synchronized: one thread shares and sweeps, while other threads may
/// copy and drop handles on the copies. That is safe because a handle
/// is only ever made by copying a live one: a copy whose count is one
/// has no holder left to copy it from.
class SharedStringTable {
 public:
  void Share(SharedString* value) {
    if (value->empty()) return;
    ++lookups_;
    const size_t hash = std::hash<std::string_view>()(value->str());
    auto [it, end] = copies_.equal_range(hash);
    for (; it != end; ++it) {
      if (it->second == *value) {
        *value = it->second;
        return;
      }
    }
    copies_.emplace(hash, *value);
    if (copies_.size() >= sweep_at_) Sweep();
  }

  /// Share calls that looked a non-empty value up, over the table's
  /// lifetime.
  uint64_t lookups() const { return lookups_; }

 private:
  void Sweep() {
    for (auto it = copies_.begin(); it != copies_.end();) {
      it = it->second.value_.use_count() == 1 ? copies_.erase(it)
                                               : std::next(it);
    }
    sweep_at_ = std::max<size_t>(kMinSweep, 2 * copies_.size());
  }

  static constexpr size_t kMinSweep = 64;
  std::unordered_multimap<size_t, SharedString> copies_;
  size_t sweep_at_ = kMinSweep;
  uint64_t lookups_ = 0;
};

}  // namespace cqms

#endif  // CQMS_COMMON_SHARED_STRING_H_
