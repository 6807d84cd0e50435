#ifndef CQMS_COMMON_SHARED_STRING_H_
#define CQMS_COMMON_SHARED_STRING_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>

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
/// copying a SharedString copies a pointer, and a SharedStringTable
/// points an equal value at another holder's copy. An empty value holds
/// no copy at all. Assigning a std::string replaces the value with a fresh,
/// unshared copy; the copy a SharedString pointed at is never edited,
/// so a holder on another thread keeps reading the old value.
class SharedString : public StringReader<SharedString> {
 public:
  SharedString& operator=(std::string value) {
    value_ = value.empty()
                 ? nullptr
                 : std::make_shared<const std::string>(std::move(value));
    return *this;
  }

  const std::string& str() const {
    static const std::string empty;
    return value_ != nullptr ? *value_ : empty;
  }

 private:
  friend class SharedStringTable;

  std::shared_ptr<const std::string> value_;
};

/// The copies of equal SharedStrings, keyed by content and held weakly:
/// Share points a value at a live copy equal to it, or registers the
/// value's own. The table keeps no copy alive; a copy every holder let
/// go of is freed as usual, and its entry is dropped by the next lookup
/// that meets it or the next sweep, which runs when the table has
/// doubled since the last one. Not synchronized: one thread shares.
class SharedStringTable {
 public:
  void Share(SharedString* value) {
    if (value->empty()) return;
    ++lookups_;
    const std::string& mine = value->str();
    const size_t hash = std::hash<std::string_view>()(mine);
    auto [it, end] = copies_.equal_range(hash);
    while (it != end) {
      std::shared_ptr<const std::string> copy = it->second.lock();
      if (copy == nullptr) {
        it = copies_.erase(it);
        continue;
      }
      if (copy == value->value_) return;
      if (*copy == mine) {
        value->value_ = std::move(copy);
        return;
      }
      ++it;
    }
    copies_.emplace(hash, value->value_);
    if (copies_.size() >= sweep_at_) Sweep();
  }

  /// Share calls that looked a non-empty value up, over the table's
  /// lifetime.
  uint64_t lookups() const { return lookups_; }

 private:
  void Sweep() {
    for (auto it = copies_.begin(); it != copies_.end();) {
      it = it->second.expired() ? copies_.erase(it) : std::next(it);
    }
    sweep_at_ = std::max<size_t>(kMinSweep, 2 * copies_.size());
  }

  static constexpr size_t kMinSweep = 64;
  std::unordered_multimap<size_t, std::weak_ptr<const std::string>> copies_;
  size_t sweep_at_ = kMinSweep;
  uint64_t lookups_ = 0;
};

}  // namespace cqms

#endif  // CQMS_COMMON_SHARED_STRING_H_
