#ifndef MARLIN_STREAM_SPSC_RING_H_
#define MARLIN_STREAM_SPSC_RING_H_

/// \file spsc_ring.h
/// \brief Cache-line-aware lock-free single-producer/single-consumer ring —
/// the hot-hop fabric between pipeline stages (paper §2.1: in-situ stream
/// processing must be communication efficient; after the decode path went
/// allocation-free, the mutex+condvar hand-off was the dominant remaining
/// per-item cost).
///
/// Every hot hop in the sharded pipeline is single-producer/single-consumer:
/// the coordinator is the only thread pushing a shard worker's commands, and
/// a shard core is the only thread feeding its enrichment side-stage. That
/// restriction buys a wait-free fast path: one atomic store publishes an
/// item, one atomic store consumes it, no lock, no syscall, no shared line
/// bounced between the two sides.
///
/// Mechanical sympathy:
///  * The producer half (`tail_` + its cached view of `head_`) and the
///    consumer half (`head_` + its cached view of `tail_`) live on separate
///    `alignas(64)` cache lines, so the producer's publish never invalidates
///    the line the consumer spins on and vice versa.
///  * Each side batches its view of the opposite index: the producer only
///    re-reads `head_` when its cached copy says the ring is full, the
///    consumer only re-reads `tail_` when its cached copy says the ring is
///    empty — in steady state an N-item burst costs one cross-core line
///    transfer instead of N.
///  * `PopBatch` drains runs of items per index update and `PushBatch`
///    publishes runs per index update, so hand-off traffic moves in
///    cache-line multiples rather than item by item.
///  * Wake-ups are batched and gated: a side parks on a C++20 atomic
///    doorbell only after spinning, and the opposite side rings the bell
///    only when a waiter has registered — an uncontended push/pop performs
///    zero notifies (`BoundedQueue` notified a condvar on every operation).
///
/// Close/drain protocol (identical to `BoundedQueue`): after `Close()`,
/// pushes are rejected and pops drain the remaining items then report
/// end-of-stream (`std::nullopt` / 0).
///
/// The blocking slow paths use the eventcount pattern: a waiter registers
/// (`*_waiters_`), re-checks the condition, then waits on the doorbell's
/// value; a publisher stores its index and rings the doorbell only when
/// the waiter count is non-zero. The Dekker-style StoreLoad ordering that
/// makes the lost-wake-up interleaving impossible is paid asymmetrically
/// (common/asymmetric_barrier.h): the waiter issues a `membarrier` syscall
/// between registering and re-checking, so the publisher's fast path is a
/// plain release store plus a relaxed waiter-count load — no fence, no
/// `xchg`. Where membarrier is unavailable (non-Linux, TSan) both sides
/// fall back to the symmetric protocol: the index store, waiter-count
/// load, registration, and re-check are all seq_cst, so they fall in one
/// total order and either the publisher observes the registered waiter or
/// the waiter's re-check observes the published index.

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/asymmetric_barrier.h"
#include "common/cache_line.h"
#include "stream/hop_stats.h"

namespace marlin {

/// \brief Bounded lock-free SPSC ring with blocking push/pop and close().
///
/// Exactly one thread may call the producer surface (`Push`, `TryPush`,
/// `PushBatch`) and exactly one thread the consumer surface (`Pop`,
/// `PopBatch`). `Close` may be called from any thread, but must be ordered
/// after the producer's final push (the usual owner-teardown protocol:
/// producers quiesce, owner closes, consumer drains) — a push racing Close
/// may be either rejected or delivered, whereas the mutex queue serializes
/// the two. Every pipeline hop already follows that protocol.
template <typename T>
class SpscRing {
 public:
  /// \brief Capacity is rounded up to a power of two (minimum 2) so index
  /// arithmetic is a mask, never a divide.
  explicit SpscRing(size_t min_capacity)
      : buf_(std::bit_ceil(std::max<size_t>(2, min_capacity))),
        mask_(buf_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return buf_.size(); }

  /// \brief Approximate backlog (exact when both sides are quiescent).
  size_t size() const {
    const uint64_t t = tail_.load(std::memory_order_acquire);
    const uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(t - h);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// \brief Blocks until space is available; returns false if closed.
  bool Push(T item) {
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (!WaitNotFull(t)) return false;
    buf_[t & mask_] = std::move(item);
    Publish(t + 1);
    return true;
  }

  /// \brief Non-blocking push; returns false when full or closed (the item
  /// is left untouched on failure so the caller can count or retry it).
  bool TryPush(T& item) {
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - cached_head_ >= buf_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (t - cached_head_ >= buf_.size()) {
        BumpRelaxed(&push_waits_);
        return false;
      }
    }
    if (closed_.load(std::memory_order_acquire)) return false;
    buf_[t & mask_] = std::move(item);
    Publish(t + 1);
    return true;
  }

  /// \brief Blocking batch push: publishes all `n` items with one index
  /// store per free-space run (typically one for the whole batch). Returns
  /// the number of items actually pushed — short only when the ring closes
  /// mid-batch.
  size_t PushBatch(T* items, size_t n) {
    size_t pushed = 0;
    uint64_t t = tail_.load(std::memory_order_relaxed);
    while (pushed < n) {
      if (!WaitNotFull(t)) break;
      // The free-space run visible right now; publish it in one store.
      const size_t room =
          static_cast<size_t>(buf_.size() - (t - cached_head_));
      const size_t take = std::min(room, n - pushed);
      for (size_t i = 0; i < take; ++i) {
        buf_[(t + i) & mask_] = std::move(items[pushed + i]);
      }
      t += take;
      pushed += take;
      Publish(t);
    }
    return pushed;
  }

  /// \brief Blocks until an item arrives; std::nullopt once closed+drained.
  std::optional<T> Pop() {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (!WaitNotEmpty(h)) return std::nullopt;
    MaxRelaxed(&depth_high_water_, static_cast<size_t>(cached_tail_ - h));
    T item = std::move(buf_[h & mask_]);
    Consume(h + 1);
    ObserveBatch(1);
    return item;
  }

  /// \brief Blocking batch pop: waits for at least one item (or close),
  /// then drains up to `max_items` with one index store. Returns the number
  /// of items appended to `out`; 0 means closed-and-drained.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (!WaitNotEmpty(h)) return 0;
    size_t avail = static_cast<size_t>(cached_tail_ - h);
    if (avail < max_items) {
      // The cached view would cut the batch short; one extra cross-line
      // read picks up anything published since and keeps batches maximal.
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<size_t>(cached_tail_ - h);
    }
    MaxRelaxed(&depth_high_water_, avail);
    const size_t take = std::min(avail, max_items);
    out->reserve(out->size() + take);
    for (size_t i = 0; i < take; ++i) {
      out->push_back(std::move(buf_[(h + i) & mask_]));
    }
    Consume(h + take);
    ObserveBatch(take);
    return take;
  }

  /// \brief Marks end-of-stream; wakes both sides.
  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    // Parked waiters sleep on the doorbells, not on the indices; bump both
    // so their value-changed re-check observes the close.
    pop_doorbell_.fetch_add(1, std::memory_order_release);
    pop_doorbell_.notify_all();
    push_doorbell_.fetch_add(1, std::memory_order_release);
    push_doorbell_.notify_all();
  }

  /// \brief Snapshot of the hop counters (relaxed reads; safe while both
  /// sides run, exact at quiescent points).
  QueueHopStats stats() const {
    QueueHopStats s;
    s.pushed = tail_.load(std::memory_order_acquire);
    s.popped = head_.load(std::memory_order_acquire);
    s.push_waits = push_waits_.load(std::memory_order_relaxed);
    s.pop_waits = pop_waits_.load(std::memory_order_relaxed);
    s.notifies = notifies_.load(std::memory_order_relaxed);
    s.depth_high_water = depth_high_water_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < QueueHopStats::kBatchBuckets; ++i) {
      s.batch_hist[i] = batch_hist_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  /// Spin budget before a side parks on its doorbell. Short on purpose: the
  /// hops this ring serves hand off window-sized batches, so a busy peer
  /// publishes within a few hundred cycles and an idle peer should sleep,
  /// not burn a core (the CI host has one).
  static constexpr int kSpinIters = 128;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  /// Producer slow path: returns true with `cached_head_` refreshed so that
  /// `tail - cached_head_ < capacity`; false when the ring is closed.
  bool WaitNotFull(uint64_t tail) {
    if (tail - cached_head_ < buf_.size()) {
      return !closed_.load(std::memory_order_acquire);
    }
    cached_head_ = head_.load(std::memory_order_acquire);
    if (tail - cached_head_ < buf_.size()) {
      return !closed_.load(std::memory_order_acquire);
    }
    BumpRelaxed(&push_waits_);
    // A full ring is by definition the deepest backlog (rare path, so the
    // cross-line store is paid only when the producer is stalled anyway).
    MaxRelaxed(&depth_high_water_, buf_.size());
    while (true) {
      for (int i = 0; i < kSpinIters; ++i) {
        cached_head_ = head_.load(std::memory_order_acquire);
        if (tail - cached_head_ < buf_.size()) {
          return !closed_.load(std::memory_order_acquire);
        }
        if (closed_.load(std::memory_order_acquire)) return false;
        CpuRelax();
      }
      // Park: register, barrier, re-check, wait on the doorbell value. The
      // heavy barrier (or the seq_cst pairing with Consume() in fallback
      // mode) prevents a lost wake-up.
      push_waiters_.fetch_add(1, std::memory_order_seq_cst);
      AsymmetricHeavyBarrier();
      const uint32_t bell = push_doorbell_.load(std::memory_order_seq_cst);
      cached_head_ = head_.load(std::memory_order_seq_cst);
      if (tail - cached_head_ >= buf_.size() &&
          !closed_.load(std::memory_order_seq_cst)) {
        push_doorbell_.wait(bell, std::memory_order_acquire);
      }
      push_waiters_.fetch_sub(1, std::memory_order_relaxed);
      if (tail - cached_head_ < buf_.size()) {
        return !closed_.load(std::memory_order_acquire);
      }
      if (closed_.load(std::memory_order_acquire)) return false;
    }
  }

  /// Consumer slow path: returns true with `cached_tail_` refreshed so that
  /// `cached_tail_ > head`; false when closed and drained.
  bool WaitNotEmpty(uint64_t head) {
    if (cached_tail_ != head) return true;
    cached_tail_ = tail_.load(std::memory_order_acquire);
    if (cached_tail_ != head) return true;
    BumpRelaxed(&pop_waits_);
    while (true) {
      for (int i = 0; i < kSpinIters; ++i) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (cached_tail_ != head) return true;
        if (closed_.load(std::memory_order_acquire)) {
          // Close() precedes any post-close state; one more tail read
          // decides drained-vs-racing-push definitively.
          cached_tail_ = tail_.load(std::memory_order_acquire);
          return cached_tail_ != head;
        }
        CpuRelax();
      }
      pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
      AsymmetricHeavyBarrier();
      const uint32_t bell = pop_doorbell_.load(std::memory_order_seq_cst);
      cached_tail_ = tail_.load(std::memory_order_seq_cst);
      if (cached_tail_ == head &&
          !closed_.load(std::memory_order_seq_cst)) {
        pop_doorbell_.wait(bell, std::memory_order_acquire);
      }
      pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
      if (cached_tail_ != head) return true;
      if (closed_.load(std::memory_order_acquire)) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        return cached_tail_ != head;
      }
    }
  }

  /// Stats-only max (a racing larger value may win; exact at quiescence).
  static void MaxRelaxed(std::atomic<size_t>* a, size_t v) {
    if (v > a->load(std::memory_order_relaxed)) {
      a->store(v, std::memory_order_relaxed);
    }
  }

  /// Publishes the new tail and rings the consumer's doorbell iff a waiter
  /// registered — the batched-wake-up contract.
  void Publish(uint64_t new_tail) {
    if (light_barrier_) {
      // Waiters pay the StoreLoad barrier (membarrier in the park path).
      tail_.store(new_tail, std::memory_order_release);
      if (pop_waiters_.load(std::memory_order_relaxed) == 0) return;
    } else {
      // Symmetric fallback: seq_cst store + load pair with the park path.
      tail_.store(new_tail, std::memory_order_seq_cst);
      if (pop_waiters_.load(std::memory_order_seq_cst) == 0) return;
    }
    pop_doorbell_.fetch_add(1, std::memory_order_release);
    pop_doorbell_.notify_all();
    BumpRelaxed(&notifies_);
  }

  /// Publishes the new head and rings the producer's doorbell iff a waiter
  /// registered.
  void Consume(uint64_t new_head) {
    if (light_barrier_) {
      head_.store(new_head, std::memory_order_release);
      if (push_waiters_.load(std::memory_order_relaxed) == 0) return;
    } else {
      head_.store(new_head, std::memory_order_seq_cst);
      if (push_waiters_.load(std::memory_order_seq_cst) == 0) return;
    }
    push_doorbell_.fetch_add(1, std::memory_order_release);
    push_doorbell_.notify_all();
    BumpRelaxed(&notifies_);
  }

  void ObserveBatch(size_t n) {
    BumpRelaxed(&batch_hist_[QueueHopStats::BatchBucket(n)]);
  }

  /// Stats counters are single-writer, so a plain load+store increment
  /// avoids the full barrier a `lock xadd` would put on the fast path.
  static void BumpRelaxed(std::atomic<uint64_t>* a) {
    a->store(a->load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }

  // --- Consumer half: owned by the popping thread. `head_` is written
  // here only; the producer reads it rarely (cache-miss amortized through
  // `cached_head_`). ---
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;  ///< consumer's last observed tail
  std::atomic<uint64_t> pop_waits_{0};
  std::atomic<size_t> depth_high_water_{0};
  std::atomic<uint64_t> batch_hist_[QueueHopStats::kBatchBuckets] = {};

  // --- Producer half. ---
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;  ///< producer's last observed head
  std::atomic<uint64_t> push_waits_{0};

  // --- Shared cold state: touched on the park/close paths only. ---
  alignas(kCacheLineBytes) std::atomic<bool> closed_{false};
  std::atomic<uint32_t> push_waiters_{0};
  std::atomic<uint32_t> pop_waiters_{0};
  std::atomic<uint32_t> push_doorbell_{0};
  std::atomic<uint32_t> pop_doorbell_{0};
  std::atomic<uint64_t> notifies_{0};

  std::vector<T> buf_;
  const size_t mask_;
  /// True when membarrier lets the publish fast path skip its barrier
  /// (read-only after construction, shared by both sides).
  const bool light_barrier_ = AsymmetricBarrierSupported();
};

}  // namespace marlin

#endif  // MARLIN_STREAM_SPSC_RING_H_
