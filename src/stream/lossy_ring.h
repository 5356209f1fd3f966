#ifndef MARLIN_STREAM_LOSSY_RING_H_
#define MARLIN_STREAM_LOSSY_RING_H_

/// \file lossy_ring.h
/// \brief Lock-free SPSC ring whose overload policy is *evict-oldest*, the
/// same policy as `BoundedQueue::PushEvictOldest` — the input hop of the
/// enrichment side-stage (stream/side_stage.h).
///
/// It is the only lock-free queue in the pipeline, because its hop is the
/// only per-item one: every clean point a shard core produces crosses it.
/// The ring keeps the newest items and evicts the oldest, so a saturated
/// side-stage never holds a *stale* prefix of the stream.
///
/// Design: a Vyukov-style bounded queue specialised to one producer. Every
/// cell carries a sequence number that encodes its lap state:
///   * `seq == index`       — free for the producer's push at `index`
///   * `seq == index + 1`   — published, waiting for a consume at `index`
///   * `seq == index + cap` — consumed, free for the next lap
/// The producer owns `tail_` exclusively (plain push, no CAS on the fast
/// path). `head_` is shared: the consumer CASes it forward to claim an item,
/// and the producer CASes it forward to *evict* the oldest published item
/// when the ring is full — the one overload case. The CAS arbitration means
/// an eviction and a concurrent consume of the same slot cannot both win,
/// so items are delivered exactly once or counted exactly once, preserving
/// the `accepted == delivered + dropped` completeness invariant.
///
/// Close/drain protocol matches `BoundedQueue`: after `Close()`, pushes are
/// rejected and pops drain the remaining items then report end-of-stream.
/// The consumer parks on a doorbell after spinning. The doorbell is
/// *deferred*: a push publishes without ringing it until the backlog
/// reaches half the capacity, so a burst costs at most one wake-up
/// syscall per half ring, not one per item. Below that mark the producer rings it
/// explicitly (`Wake`) at the end of a burst; a consumer with its own
/// latency budget may otherwise sit parked on a non-empty ring. Either
/// ring happens only when a waiter registered. The park protocol runs
/// seq_cst on both sides, so either the producer observes the registered
/// waiter or the waiter's re-check observes the published item.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/cache_line.h"
#include "stream/hop_stats.h"

namespace marlin {

/// \brief Bounded lock-free SPSC ring with evict-oldest overload semantics.
///
/// Exactly one thread may call the producer surface (`PushEvictOldest`) and
/// exactly one thread the consumer surface (`Pop`, `PopBatch`). `Close` may
/// be called from any thread once the producer has quiesced.
template <typename T>
class SpscLossyRing {
 public:
  /// \brief Capacity is rounded up to a power of two (minimum 2) so index
  /// arithmetic is a mask, never a divide.
  explicit SpscLossyRing(size_t min_capacity)
      : cells_(std::bit_ceil(std::max<size_t>(2, min_capacity))),
        mask_(cells_.size() - 1) {
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  SpscLossyRing(const SpscLossyRing&) = delete;
  SpscLossyRing& operator=(const SpscLossyRing&) = delete;

  size_t capacity() const { return cells_.size(); }

  /// \brief Approximate backlog (exact when both sides are quiescent).
  size_t size() const {
    const uint64_t t = tail_.load(std::memory_order_acquire);
    const uint64_t h = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(t > h ? t - h : 0);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// \brief Never blocks: a full ring evicts the *oldest* queued item to
  /// make room (each eviction counted into `*evicted`). Returns false only
  /// when the ring is closed — the item is rejected and `*evicted` is 0.
  /// Wakes a parked consumer only once the ring is half full (see `Wake`).
  bool PushEvictOldest(T item, size_t* evicted) {
    *evicted = 0;
    if (closed_.load(std::memory_order_acquire)) return false;
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[t & mask_];
    while (cell.seq.load(std::memory_order_acquire) != t) {
      // The slot still holds lap t-capacity. Either the ring is genuinely
      // full (evict the head) or the consumer claimed the slot and is about
      // to free it (spin briefly).
      uint64_t h = head_.load(std::memory_order_relaxed);
      if (t - h >= cells_.size()) {
        if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
          // Won the oldest published item against the consumer; discard it
          // and recycle its slot.
          Cell& victim = cells_[h & mask_];
          T discarded = std::move(victim.item);
          (void)discarded;
          victim.seq.store(h + cells_.size(), std::memory_order_release);
          ++*evicted;
          BumpRelaxed(&push_overflows_);
        }
      } else {
        CpuRelax();  // consumer mid-consume of the slot we need
      }
      if (closed_.load(std::memory_order_acquire)) return false;
    }
    cell.item = std::move(item);
    cell.seq.store(t + 1, std::memory_order_release);
    // A stale head only overstates the depth: the half-full wake is never
    // missed, at worst rung early.
    const size_t depth =
        static_cast<size_t>(t + 1 - head_.load(std::memory_order_relaxed));
    MaxRelaxed(&depth_high_water_, depth);
    tail_.store(t + 1, std::memory_order_seq_cst);
    if (depth >= cells_.size() / 2) Wake();
    return true;
  }

  /// \brief Rings the doorbell if the consumer is parked, so it drains what
  /// was published. Call after the producer's last push of a burst; safe
  /// from any thread that happens-after that push (the seq_cst tail store
  /// and waiter check pair with the consumer's park, as in `Close`).
  void Wake() {
    if (pop_waiters_.load(std::memory_order_seq_cst) != 0) {
      pop_doorbell_.fetch_add(1, std::memory_order_release);
      pop_doorbell_.notify_all();
      BumpRelaxed(&notifies_);
    }
  }

  /// \brief Blocks until an item arrives; std::nullopt once closed+drained.
  std::optional<T> Pop() {
    std::vector<T> one;
    if (PopClaim(&one, 1) == 0) return std::nullopt;
    return std::move(one.front());
  }

  /// \brief Blocking batch pop: waits for at least one item (or close),
  /// then drains up to `max_items`. Returns the number appended to `out`;
  /// 0 means closed-and-drained.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    return PopClaim(out, max_items);
  }

  /// \brief Marks end-of-stream; wakes the parked consumer.
  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    pop_doorbell_.fetch_add(1, std::memory_order_release);
    pop_doorbell_.notify_all();
  }

  /// \brief Snapshot of the hop counters. `pushed` counts accepted items,
  /// `popped` delivered items; evictions appear in `push_waits` (the
  /// overload indicator of this ring) and never in `popped`.
  QueueHopStats stats() const {
    QueueHopStats s;
    s.pushed = tail_.load(std::memory_order_acquire);
    s.popped = popped_.load(std::memory_order_relaxed);
    s.push_waits = push_overflows_.load(std::memory_order_relaxed);
    s.pop_waits = pop_waits_.load(std::memory_order_relaxed);
    s.notifies = notifies_.load(std::memory_order_relaxed);
    s.depth_high_water = depth_high_water_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < QueueHopStats::kBatchBuckets; ++i) {
      s.batch_hist[i] = batch_hist_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T item{};
  };

  static constexpr int kSpinIters = 128;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

  /// Consumer: claim up to `max_items` published items via one head CAS.
  /// Retries when the producer's evictor wins the CAS.
  size_t PopClaim(std::vector<T>* out, size_t max_items) {
    if (max_items == 0) return 0;
    while (true) {
      uint64_t h = head_.load(std::memory_order_relaxed);
      const uint64_t t = tail_.load(std::memory_order_acquire);
      if (t != h) {
        // Cells [h, t) are published (the producer publishes each cell's
        // seq before advancing tail). Claim a run with one CAS; losing the
        // race to the evictor just means retrying from the new head.
        const size_t take =
            std::min(static_cast<size_t>(t - h), max_items);
        if (!head_.compare_exchange_strong(h, h + take,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
          continue;
        }
        out->reserve(out->size() + take);
        for (size_t i = 0; i < take; ++i) {
          Cell& cell = cells_[(h + i) & mask_];
          // The claim CAS ordered us after the publish; the per-cell check
          // is a pure invariant guard on the lap encoding.
          while (cell.seq.load(std::memory_order_acquire) != h + i + 1) {
            CpuRelax();
          }
          out->push_back(std::move(cell.item));
          cell.seq.store(h + i + cells_.size(), std::memory_order_release);
        }
        popped_.fetch_add(take, std::memory_order_relaxed);
        BumpRelaxed(&batch_hist_[QueueHopStats::BatchBucket(take)]);
        return take;
      }
      if (closed_.load(std::memory_order_seq_cst)) {
        // Close() precedes post-close state; one more tail read decides
        // drained-vs-racing-push definitively.
        if (tail_.load(std::memory_order_seq_cst) != h) continue;
        return 0;
      }
      BumpRelaxed(&pop_waits_);
      if (!WaitNotEmpty(h)) return 0;
    }
  }

  /// Parks until tail moves past `head` or the ring closes. Returns false
  /// only when closed-and-drained.
  bool WaitNotEmpty(uint64_t head) {
    while (true) {
      for (int i = 0; i < kSpinIters; ++i) {
        if (tail_.load(std::memory_order_acquire) != head) return true;
        if (closed_.load(std::memory_order_acquire)) {
          return tail_.load(std::memory_order_seq_cst) != head;
        }
        CpuRelax();
      }
      pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
      const uint32_t bell = pop_doorbell_.load(std::memory_order_seq_cst);
      if (tail_.load(std::memory_order_seq_cst) == head &&
          !closed_.load(std::memory_order_seq_cst)) {
        pop_doorbell_.wait(bell, std::memory_order_acquire);
      }
      pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
      if (tail_.load(std::memory_order_acquire) != head) return true;
      if (closed_.load(std::memory_order_acquire)) {
        return tail_.load(std::memory_order_seq_cst) != head;
      }
    }
  }

  static void MaxRelaxed(std::atomic<size_t>* a, size_t v) {
    if (v > a->load(std::memory_order_relaxed)) {
      a->store(v, std::memory_order_relaxed);
    }
  }

  static void BumpRelaxed(std::atomic<uint64_t>* a) {
    a->store(a->load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }

  // Shared claim index: consumer CASes to consume, producer CASes to evict.
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> popped_{0};
  std::atomic<uint64_t> pop_waits_{0};
  std::atomic<uint64_t> batch_hist_[QueueHopStats::kBatchBuckets] = {};

  // Producer half: tail_ written by the producer only.
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};
  std::atomic<uint64_t> push_overflows_{0};
  std::atomic<size_t> depth_high_water_{0};

  // Cold state: park/close paths only.
  alignas(kCacheLineBytes) std::atomic<bool> closed_{false};
  std::atomic<uint32_t> pop_waiters_{0};
  std::atomic<uint32_t> pop_doorbell_{0};
  std::atomic<uint64_t> notifies_{0};

  std::vector<Cell> cells_;
  const size_t mask_;
};

}  // namespace marlin

#endif  // MARLIN_STREAM_LOSSY_RING_H_
