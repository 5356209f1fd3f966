#ifndef MARLIN_STREAM_HOP_STATS_H_
#define MARLIN_STREAM_HOP_STATS_H_

/// \file hop_stats.h
/// \brief Per-hop queue instrumentation shared by both inter-stage hops,
/// which both run on the mutex `BoundedQueue` (stream/queue.h):
/// coordinator → shard and shard → enrichment.

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace marlin {

/// \brief Per-hop queue instrumentation. Mergeable across shards.
struct QueueHopStats {
  uint64_t pushed = 0;       ///< items accepted by the hop
  uint64_t popped = 0;       ///< items delivered by the hop
  uint64_t push_waits = 0;   ///< producer found the hop full (blocked)
  uint64_t pop_waits = 0;    ///< consumer found the hop empty (blocked)
  /// Always 0: a mutex hop does not count its condvar signals. Kept only
  /// because the end-to-end benchmark still reports it.
  uint64_t notifies = 0;
  size_t depth_high_water = 0;  ///< deepest observed backlog
  /// Pop-batch size histogram: how many items each consumer wake-up
  /// actually carried. Buckets: 1, 2–3, 4–7, 8–15, ≥16.
  static constexpr size_t kBatchBuckets = 5;
  uint64_t batch_hist[kBatchBuckets] = {};

  static size_t BatchBucket(size_t n) {
    if (n <= 1) return 0;
    if (n <= 3) return 1;
    if (n <= 7) return 2;
    if (n <= 15) return 3;
    return 4;
  }

  uint64_t batches() const {
    uint64_t total = 0;
    for (uint64_t b : batch_hist) total += b;
    return total;
  }

  double MeanBatch() const {
    const uint64_t n = batches();
    return n == 0 ? 0.0
                  : static_cast<double>(popped) / static_cast<double>(n);
  }

  void Merge(const QueueHopStats& other) {
    pushed += other.pushed;
    popped += other.popped;
    push_waits += other.push_waits;
    pop_waits += other.pop_waits;
    notifies += other.notifies;
    depth_high_water = std::max(depth_high_water, other.depth_high_water);
    for (size_t i = 0; i < kBatchBuckets; ++i) {
      batch_hist[i] += other.batch_hist[i];
    }
  }
};

}  // namespace marlin

#endif  // MARLIN_STREAM_HOP_STATS_H_
