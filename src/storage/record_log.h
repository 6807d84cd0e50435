#ifndef CQMS_STORAGE_RECORD_LOG_H_
#define CQMS_STORAGE_RECORD_LOG_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "storage/query_record.h"

namespace cqms::storage {

/// The QueryStore's record log: an append-only sequence of records held
/// by value in fixed-size chunks of kChunkRecords, each chunk held
/// through a shared_ptr from a directory. Iteration and indexing read
/// like a deque's — `for (const QueryRecord& r : store.records())`.
///
/// A published read view shares the directory (and so every chunk)
/// with the store; the writer copies the directory on its first change
/// after a publish (QueryStore::Own), and the copy shares every chunk
/// but owns none. A write then copies the one chunk it touches, the
/// first time it touches it, and owns the copy until the next publish:
/// readers of the view keep the old chunk, unchanged. The writer knows
/// which chunks it owns from its own state (the copy starts owning
/// none), never from a use count, which races with readers dropping
/// views on other threads. A reference into the log is good only until
/// the next mutation.
class RecordLog {
 public:
  /// Records per chunk: a write after a publish copies this many
  /// records at most, and the directory holds one pointer per chunk,
  /// so a smaller chunk costs more at large logs (the directory) and a
  /// larger one at small logs (the chunk).
  static constexpr size_t kChunkRecords = 64;

  /// Random-access iterator dereferencing to `const QueryRecord&`.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = QueryRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const QueryRecord*;
    using reference = const QueryRecord&;

    const_iterator() = default;
    const_iterator(const RecordLog* log, size_t i) : log_(log), i_(i) {}

    reference operator*() const { return (*log_)[i_]; }
    pointer operator->() const { return &(*log_)[i_]; }
    reference operator[](difference_type n) const {
      return (*log_)[i_ + static_cast<size_t>(n)];
    }

    const_iterator& operator++() { ++i_; return *this; }
    const_iterator operator++(int) { const_iterator t = *this; ++i_; return t; }
    const_iterator& operator--() { --i_; return *this; }
    const_iterator operator--(int) { const_iterator t = *this; --i_; return t; }
    const_iterator& operator+=(difference_type n) {
      i_ += static_cast<size_t>(n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      i_ -= static_cast<size_t>(n);
      return *this;
    }
    friend const_iterator operator+(const_iterator a, difference_type n) {
      return a += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator a) {
      return a += n;
    }
    friend const_iterator operator-(const_iterator a, difference_type n) {
      return a -= n;
    }
    friend difference_type operator-(const_iterator a, const_iterator b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const_iterator a, const_iterator b) { return a.i_ == b.i_; }
    friend bool operator!=(const_iterator a, const_iterator b) { return a.i_ != b.i_; }
    friend bool operator<(const_iterator a, const_iterator b) { return a.i_ < b.i_; }
    friend bool operator>(const_iterator a, const_iterator b) { return a.i_ > b.i_; }
    friend bool operator<=(const_iterator a, const_iterator b) { return a.i_ <= b.i_; }
    friend bool operator>=(const_iterator a, const_iterator b) { return a.i_ >= b.i_; }

   private:
    const RecordLog* log_ = nullptr;
    size_t i_ = 0;
  };
  using iterator = const_iterator;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;
  using value_type = QueryRecord;
  using size_type = size_t;

  RecordLog() = default;
  /// Shares every chunk of `other` and owns none of them.
  RecordLog(const RecordLog& other)
      : chunks_(other.chunks_),
        owned_(other.chunks_.size(), false),
        size_(other.size_) {}
  RecordLog& operator=(const RecordLog&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const QueryRecord& operator[](size_t i) const {
    return (*chunks_[i / kChunkRecords])[i % kChunkRecords];
  }
  const QueryRecord& front() const { return (*this)[0]; }
  const QueryRecord& back() const { return (*this)[size_ - 1]; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  // --- writer side (QueryStore) -------------------------------------------

  void push_back(QueryRecord&& record) {
    if (size_ % kChunkRecords == 0) {
      chunks_.push_back(NewChunk());
      owned_.push_back(true);
    }
    OwnChunk(size_ / kChunkRecords).push_back(std::move(record));
    ++size_;
  }

  /// Record `i` for the writer to edit in place, in a chunk it owns.
  QueryRecord& mutable_at(size_t i) {
    return OwnChunk(i / kChunkRecords)[i % kChunkRecords];
  }

 private:
  /// Up to kChunkRecords records. Each chunk reserves room for all of
  /// them when it is made, so an append never moves a record.
  using Chunk = std::vector<QueryRecord>;

  /// A new chunk holding copies of `records`.
  static std::shared_ptr<Chunk> NewChunk(const Chunk& records = {}) {
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(kChunkRecords);
    chunk->assign(records.begin(), records.end());
    return chunk;
  }

  /// Chunk `c`, copied first unless the writer owns it.
  Chunk& OwnChunk(size_t c) {
    if (!owned_[c]) {
      chunks_[c] = NewChunk(*chunks_[c]);
      owned_[c] = true;
    }
    return *chunks_[c];
  }

  /// The directory.
  std::vector<std::shared_ptr<Chunk>> chunks_;
  /// owned_[c]: chunk c was made by this directory's writer since the
  /// directory was copied, so no published view holds it.
  std::vector<bool> owned_;
  size_t size_ = 0;
};

}  // namespace cqms::storage

#endif  // CQMS_STORAGE_RECORD_LOG_H_
