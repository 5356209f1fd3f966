#ifndef MARLIN_COMMON_RING_BUFFER_H_
#define MARLIN_COMMON_RING_BUFFER_H_

/// \file ring_buffer.h
/// \brief Fixed-layout FIFO window for per-vessel sliding state.
///
/// The event rules keep short sliding windows per vessel (loiter window and
/// its monotonic min/max deques, spoof-jump history). `std::deque`
/// allocates and frees a chunk every ~64 elements as the window slides; this
/// ring keeps one power-of-two buffer that only grows, so a steady-state
/// slide performs zero allocations.

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/cache_line.h"

namespace marlin {

/// The control block (vector header + head + size) is line-aligned: the
/// per-vessel windows live as values inside per-shard flat tables, and the
/// alignment keeps one vessel's slide (head/size rewrites) from dirtying
/// the line a neighbouring slot's reads go through.
template <typename T>
class alignas(kCacheLineBytes) RingBuffer {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// \brief Element `i` positions behind the front (0 = oldest).
  T& operator[](size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  /// \brief Drops all elements; capacity is retained.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    const size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace marlin

#endif  // MARLIN_COMMON_RING_BUFFER_H_
