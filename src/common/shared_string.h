#ifndef CQMS_COMMON_SHARED_STRING_H_
#define CQMS_COMMON_SHARED_STRING_H_

#include <memory>
#include <ostream>
#include <string>
#include <string_view>

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
/// copying a SharedString copies a pointer, and ShareIfEqual points an
/// equal value at another holder's copy. An empty value holds no copy
/// at all. Assigning a std::string replaces the value with a fresh,
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

  /// Points this value at `other`'s copy when the two are equal.
  /// Returns whether they now share one.
  bool ShareIfEqual(const SharedString& other) {
    if (value_ == other.value_) return true;
    if (str() != other.str()) return false;
    value_ = other.value_;
    return true;
  }

 private:
  std::shared_ptr<const std::string> value_;
};

}  // namespace cqms

#endif  // CQMS_COMMON_SHARED_STRING_H_
