#ifndef CQMS_COMMON_SHARED_VALUE_H_
#define CQMS_COMMON_SHARED_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace cqms {

/// A handle on an immutable T that any number of handles hold as one
/// copy, counted in the copy itself: a handle is one pointer, null when
/// it holds nothing. Copying a handle bumps the count; the last handle
/// let go of frees the copy. Handles on one copy may be copied and
/// dropped on any threads; the copy is never edited, so a holder on
/// another thread keeps reading it.
template <typename T>
class SharedValue {
 public:
  SharedValue() = default;
  explicit SharedValue(T value) : node_(new Node(std::move(value))) {}
  SharedValue(const SharedValue& other) noexcept : node_(other.node_) {
    if (node_ != nullptr) node_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SharedValue(SharedValue&& other) noexcept
      : node_(std::exchange(other.node_, nullptr)) {}
  SharedValue& operator=(SharedValue other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~SharedValue() {
    if (node_ != nullptr &&
        node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node_;
    }
  }

  /// The value, or null when the handle holds none.
  const T* get() const { return node_ != nullptr ? &node_->value : nullptr; }

  /// Handles on this copy (0 when none is held). Exact only while no
  /// other thread copies a handle on it: use_count() == 1 proves the
  /// caller's handle is the only one, since a handle is only ever made
  /// by copying a live one.
  uint32_t use_count() const {
    return node_ != nullptr ? node_->refs.load(std::memory_order_acquire) : 0;
  }

 private:
  struct Node {
    explicit Node(T v) : value(std::move(v)) {}
    std::atomic<uint32_t> refs{1};
    const T value;
  };

  Node* node_ = nullptr;
};

/// An immutable list held as one SharedValue: one pointer, null when
/// empty, so copying a list (a record, a chunk of records) copies a
/// pointer. Readers index and iterate it like a const std::vector;
/// writers replace the whole list.
template <typename T>
class SharedList {
 public:
  SharedList() = default;
  SharedList(std::vector<T> items)  // NOLINT(runtime/explicit)
      : items_(items.empty() ? SharedValue<std::vector<T>>()
                             : SharedValue<std::vector<T>>(std::move(items))) {}
  SharedList(std::initializer_list<T> items)
      : SharedList(std::vector<T>(items)) {}

  bool empty() const { return items_.get() == nullptr; }
  size_t size() const { return empty() ? 0 : items_.get()->size(); }
  const T& operator[](size_t i) const { return (*items_.get())[i]; }
  const T& back() const { return items_.get()->back(); }
  const T* begin() const { return empty() ? nullptr : items_.get()->data(); }
  const T* end() const { return begin() + size(); }

 private:
  SharedValue<std::vector<T>> items_;
};

}  // namespace cqms

#endif  // CQMS_COMMON_SHARED_VALUE_H_
