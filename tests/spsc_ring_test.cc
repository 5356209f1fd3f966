// Tests for the lock-free SPSC lossy ring against the mutex BoundedQueue
// reference (evict-oldest overload: identical shed sets), and the hop-stats
// invariants the mutex queue reports for the coordinator → shard hop.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stream/lossy_ring.h"
#include "stream/queue.h"

namespace marlin {
namespace {

// --- Hop stats of the mutex queue -----------------------------------------

TEST(HopStatsTest, BoundedQueueCountsPushedPoppedAndBatches) {
  BoundedQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) queue.Push(i);
  std::vector<int> out;
  queue.PopBatch(&out, 16);  // one batch of 10 → bucket 8–15
  const QueueHopStats s = queue.stats();
  EXPECT_EQ(s.pushed, 10u);
  EXPECT_EQ(s.popped, 10u);
  EXPECT_EQ(s.depth_high_water, 10u);
  EXPECT_EQ(s.batch_hist[QueueHopStats::BatchBucket(10)], 1u);
  EXPECT_DOUBLE_EQ(s.MeanBatch(), 10.0);
  EXPECT_EQ(s.push_waits, 0u);
  EXPECT_EQ(s.pop_waits, 0u);
  EXPECT_EQ(s.notifies, 0u);  // a mutex hop does not count condvar signals
}

// Two-thread stress through the Push/PopBatch/Close surface; asserts FIFO
// delivery and the hop-stats invariants.
TEST(HopStatsTest, BoundedQueueStressAndStatsInvariants) {
  BoundedQueue<uint64_t> queue(16);
  constexpr uint64_t kCount = 100000;
  std::thread producer([&queue] {
    for (uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(queue.Push(i));
    queue.Close();
  });
  Rng rng(3);
  std::vector<uint64_t> out;
  uint64_t expected = 0;
  while (true) {
    out.clear();
    const size_t n = queue.PopBatch(&out, 1 + rng.NextBounded(31));
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  const QueueHopStats s = queue.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
  EXPECT_LE(s.depth_high_water, queue.capacity());
  // Each pop-batch carried between 1 and 31 items, so the batch count is
  // bracketed by the item count on both sides.
  EXPECT_GE(s.batches(), kCount / 31);
  EXPECT_LE(s.batches(), kCount);
}

// --- Evict-oldest: SpscLossyRing vs BoundedQueue::PushEvictOldest ---------

// Overfills the ring with no consumer: exactly `capacity` newest items
// survive in FIFO order and every eviction is counted. (stream_test pins
// the same behaviour for BoundedQueue::PushEvictOldest.)
TEST(LossyRingTest, OverfillEvictsOldest) {
  SpscLossyRing<int> ring(4);
  size_t total_dropped = 0;
  for (int i = 0; i < 100; ++i) {
    size_t dropped = 0;
    EXPECT_TRUE(ring.PushEvictOldest(i, &dropped));
    total_dropped += dropped;
  }
  EXPECT_EQ(ring.size(), ring.capacity());
  EXPECT_EQ(total_dropped, 100 - ring.capacity());
  ring.Close();
  size_t dropped = 0;
  EXPECT_FALSE(ring.PushEvictOldest(101, &dropped));  // closed: rejected
  EXPECT_EQ(dropped, 0u);
  std::vector<int> survivors;
  while (auto item = ring.Pop()) survivors.push_back(*item);
  ASSERT_EQ(survivors.size(), ring.capacity());
  for (size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[i], static_cast<int>(100 - ring.capacity() + i));
  }
}

// Runs the exact same interleaved evict-oldest push / pop script against
// the lock-free lossy ring and the mutex reference queue and requires that
// they shed the *identical* item set — not just the same count.
TEST(LossyRingTest, ShedsSameItemsAsBoundedQueue) {
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    SpscLossyRing<int> ring(8);
    BoundedQueue<int> queue(8);
    std::vector<int> ring_out, queue_out;
    size_t ring_dropped = 0, queue_dropped = 0;
    int next = 0;
    for (int step = 0; step < 300; ++step) {
      if (rng.NextBounded(3) != 0) {  // push-heavy: force overload
        size_t d = 0;
        ASSERT_TRUE(ring.PushEvictOldest(next, &d));
        ring_dropped += d;
        d = 0;
        ASSERT_TRUE(queue.PushEvictOldest(next, &d));
        queue_dropped += d;
        ++next;
      } else {
        std::vector<int> r, q;
        const size_t want = 1 + rng.NextBounded(3);
        if (ring.size() > 0) ring.PopBatch(&r, want);
        if (queue.size() > 0) queue.PopBatch(&q, want);
        EXPECT_EQ(r, q) << "round " << round << " step " << step;
        ring_out.insert(ring_out.end(), r.begin(), r.end());
        queue_out.insert(queue_out.end(), q.begin(), q.end());
      }
    }
    ring.Close();
    queue.Close();
    while (auto item = ring.Pop()) ring_out.push_back(*item);
    while (auto item = queue.Pop()) queue_out.push_back(*item);
    // Identical survivors (and therefore identical shed sets), and both
    // uphold accepted == delivered + dropped.
    EXPECT_EQ(ring_out, queue_out) << "round " << round;
    EXPECT_EQ(ring_dropped, queue_dropped);
    EXPECT_EQ(ring_out.size() + ring_dropped, static_cast<size_t>(next));
  }
}

}  // namespace
}  // namespace marlin
