#ifndef MARLIN_STREAM_QUEUE_H_
#define MARLIN_STREAM_QUEUE_H_

/// \file queue.h
/// \brief Bounded blocking queue — the backpressure boundary between
/// pipeline stages (paper §2.1: in-situ processing must be communication
/// efficient; a bounded queue is where that pressure becomes visible).
///
/// It carries both inter-stage hops, and both are batch-granular: the
/// coordinator → shard hop moves one task per shard per window, and the
/// shard → enrichment hop moves the producer's batch of points per window
/// task (or per half queue depth) in one `PushEvictOldest`. That is a few
/// thousand hand-offs per pass, so one lock per hand-off is noise. The
/// items live in a `RingBuffer` that grows to the deepest backlog and then
/// never allocates: a `std::deque` allocates a block every few enrichment
/// points, which the worker then frees on another thread.
///
/// Condition variables are always notified *after* the mutex is released:
/// notifying under the lock makes the woken thread immediately block on
/// the very mutex the notifier still holds (hurry-up-and-wait), adding a
/// futex round-trip per hand-off on contended hops.

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "common/ring_buffer.h"
#include "stream/hop_stats.h"

namespace marlin {

/// \brief Thread-safe bounded queue with blocking push/pop and close().
///
/// After Close(), pushes are rejected and pops drain the remaining items
/// then return std::nullopt — the conventional end-of-stream protocol.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Blocks until space is available; returns false if closed.
  bool Push(T item) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (items_.size() >= capacity_ && !closed_) ++stats_.push_waits;
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
      PushLocked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// \brief Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      PushLocked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// \brief Lossy batch push for latency-critical producers: never blocks.
  /// Moves every item of `*items` in, in order, and clears it; each item
  /// that finds the queue full evicts the oldest queued item first — the
  /// backpressure policy of side-stages that must not stall the hot path.
  /// `*evicted` receives the number of items discarded, so the result is
  /// the same as pushing the items one at a time. Returns false only when
  /// the queue is closed (the batch is left untouched, nothing is evicted).
  bool PushEvictOldest(std::vector<T>* items, size_t* evicted) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      *evicted = 0;
      if (closed_) return false;
      for (T& item : *items) {
        // The emptiness check makes capacity 0 safe (degenerates to a
        // size-1 always-evict slot rather than popping an empty ring).
        if (!items_.empty() && items_.size() >= capacity_) {
          items_.pop_front();
          ++*evicted;
        }
        PushLocked(std::move(item));
      }
    }
    items->clear();
    not_empty_.notify_one();
    return true;
  }

  /// \brief Blocks until an item arrives; std::nullopt once closed & drained.
  std::optional<T> Pop() {
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (items_.empty() && !closed_) ++stats_.pop_waits;
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      if (items_.empty()) return std::nullopt;
      item = PopLocked();
    }
    not_full_.notify_one();
    return item;
  }

  /// \brief Blocking batch pop: waits for at least one item (or close),
  /// then drains up to `max_items` in one lock acquisition. Returns the
  /// number of items appended to `out`; 0 means closed-and-drained.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (items_.empty() && !closed_) ++stats_.pop_waits;
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      out->reserve(out->size() + std::min(items_.size(), max_items));
      while (!items_.empty() && n < max_items) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
        ++n;
      }
      if (n > 0) {
        stats_.popped += n;
        ++stats_.batch_hist[QueueHopStats::BatchBucket(n)];
      }
    }
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// \brief Non-blocking pop.
  std::optional<T> TryPop() {
    std::optional<T> item;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item = PopLocked();
    }
    not_full_.notify_one();
    return item;
  }

  /// \brief Marks end-of-stream; wakes all waiters.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// \brief Snapshot of the hop counters (`notifies` stays 0: a condvar
  /// signal is not counted).
  QueueHopStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  /// Caller holds mutex_.
  void PushLocked(T item) {
    items_.push_back(std::move(item));
    ++stats_.pushed;
    stats_.depth_high_water = std::max(stats_.depth_high_water, items_.size());
  }

  /// Caller holds mutex_; the queue is non-empty.
  T PopLocked() {
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    ++stats_.batch_hist[0];
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  RingBuffer<T> items_;
  bool closed_ = false;
  QueueHopStats stats_;  ///< guarded by mutex_
};

}  // namespace marlin

#endif  // MARLIN_STREAM_QUEUE_H_
