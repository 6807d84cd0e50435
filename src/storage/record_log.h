#ifndef CQMS_STORAGE_RECORD_LOG_H_
#define CQMS_STORAGE_RECORD_LOG_H_

#include <cstddef>
#include <deque>
#include <iterator>
#include <memory>

#include "storage/query_record.h"

namespace cqms::storage {

/// The QueryStore's record log: an append-only sequence of records held
/// through shared_ptr so published read views can reference a record
/// without copying it. Iteration and indexing dereference transparently
/// — `for (const QueryRecord& r : store.records())` reads exactly as it
/// did when the log was a plain deque.
///
/// The shared_ptr indirection is what makes record-level copy-on-write
/// possible: when a mutation targets a record that a published view's
/// log still references (use_count > 1), QueryStore::GetMutable clones
/// it and swaps the pointer, so readers of the old view keep an
/// unchanged record while the log moves on. The log itself is shared
/// with published views and copied on the writer's first change to it
/// after a publish, so a reference into it is good only until the next
/// mutation.
class RecordLog {
 public:
  /// Random-access iterator dereferencing to `const QueryRecord&`.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = QueryRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const QueryRecord*;
    using reference = const QueryRecord&;

    const_iterator() = default;
    explicit const_iterator(
        std::deque<std::shared_ptr<QueryRecord>>::const_iterator it)
        : it_(it) {}

    reference operator*() const { return **it_; }
    pointer operator->() const { return it_->get(); }
    reference operator[](difference_type n) const { return *it_[n]; }

    const_iterator& operator++() { ++it_; return *this; }
    const_iterator operator++(int) { const_iterator t = *this; ++it_; return t; }
    const_iterator& operator--() { --it_; return *this; }
    const_iterator operator--(int) { const_iterator t = *this; --it_; return t; }
    const_iterator& operator+=(difference_type n) { it_ += n; return *this; }
    const_iterator& operator-=(difference_type n) { it_ -= n; return *this; }
    friend const_iterator operator+(const_iterator a, difference_type n) {
      return const_iterator(a.it_ + n);
    }
    friend const_iterator operator+(difference_type n, const_iterator a) {
      return const_iterator(a.it_ + n);
    }
    friend const_iterator operator-(const_iterator a, difference_type n) {
      return const_iterator(a.it_ - n);
    }
    friend difference_type operator-(const_iterator a, const_iterator b) {
      return a.it_ - b.it_;
    }
    friend bool operator==(const_iterator a, const_iterator b) { return a.it_ == b.it_; }
    friend bool operator!=(const_iterator a, const_iterator b) { return a.it_ != b.it_; }
    friend bool operator<(const_iterator a, const_iterator b) { return a.it_ < b.it_; }
    friend bool operator>(const_iterator a, const_iterator b) { return a.it_ > b.it_; }
    friend bool operator<=(const_iterator a, const_iterator b) { return a.it_ <= b.it_; }
    friend bool operator>=(const_iterator a, const_iterator b) { return a.it_ >= b.it_; }

   private:
    std::deque<std::shared_ptr<QueryRecord>>::const_iterator it_;
  };
  using iterator = const_iterator;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;
  using value_type = QueryRecord;
  using size_type = size_t;

  size_t size() const { return impl_.size(); }
  bool empty() const { return impl_.empty(); }

  const QueryRecord& operator[](size_t i) const { return *impl_[i]; }
  const QueryRecord& front() const { return *impl_.front(); }
  const QueryRecord& back() const { return *impl_.back(); }

  const_iterator begin() const { return const_iterator(impl_.begin()); }
  const_iterator end() const { return const_iterator(impl_.end()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  // --- writer side (QueryStore) -------------------------------------------

  void push_back(std::shared_ptr<QueryRecord> record) {
    impl_.push_back(std::move(record));
  }

  /// The owning pointer of record `i` — what a view publication copies.
  const std::shared_ptr<QueryRecord>& ptr(size_t i) const { return impl_[i]; }

  /// Mutable pointer slot, for the copy-on-write swap in GetMutable.
  std::shared_ptr<QueryRecord>& mutable_ptr(size_t i) { return impl_[i]; }

 private:
  std::deque<std::shared_ptr<QueryRecord>> impl_;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_RECORD_LOG_H_
