// Tests for the mutex BoundedQueue that carries both inter-stage hops: the
// hop-stats invariants it reports, and its lossy batch push (evict-oldest
// overload) against a reference that takes the same items one at a time.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "common/rng.h"
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

// --- Evict-oldest: batch push vs one-at-a-time ----------------------------

// Runs one interleaved push / pop script against the queue, which takes
// each push as a batch of 1–8 items, and against a reference that takes
// the same items one at a time and evicts its oldest when full. The batch
// push must shed the *identical* item set — not just the same count — so
// evicting the wrong end or miscounting fails.
TEST(LossyPushTest, BatchShedsSameItemsAsOneAtATime) {
  constexpr size_t kCapacity = 6;  // a batch of 7–8 also sheds its own head
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    BoundedQueue<int> queue(kCapacity);
    std::deque<int> reference;
    std::vector<int> queue_out, reference_out;
    size_t queue_dropped = 0, reference_dropped = 0;
    int next = 0;
    for (int step = 0; step < 300; ++step) {
      if (rng.NextBounded(3) != 0) {  // push-heavy: force overload
        std::vector<int> batch;
        const size_t n = 1 + rng.NextBounded(8);
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(next);
          if (reference.size() >= kCapacity) {
            reference.pop_front();
            ++reference_dropped;
          }
          reference.push_back(next);
          ++next;
        }
        size_t d = 0;
        ASSERT_TRUE(queue.PushEvictOldest(&batch, &d));
        EXPECT_TRUE(batch.empty());
        queue_dropped += d;
      } else {
        std::vector<int> q, r;
        const size_t want = 1 + rng.NextBounded(3);
        if (queue.size() > 0) queue.PopBatch(&q, want);
        while (!reference.empty() && r.size() < want) {
          r.push_back(reference.front());
          reference.pop_front();
        }
        EXPECT_EQ(q, r) << "round " << round << " step " << step;
        queue_out.insert(queue_out.end(), q.begin(), q.end());
        reference_out.insert(reference_out.end(), r.begin(), r.end());
      }
      ASSERT_EQ(queue_dropped, reference_dropped)
          << "round " << round << " step " << step;
    }
    queue.Close();
    while (auto item = queue.Pop()) queue_out.push_back(*item);
    reference_out.insert(reference_out.end(), reference.begin(),
                         reference.end());
    // Identical survivors (and therefore identical shed sets), and
    // accepted == delivered + dropped.
    EXPECT_EQ(queue_out, reference_out) << "round " << round;
    EXPECT_EQ(queue_out.size() + queue_dropped, static_cast<size_t>(next));
    EXPECT_LE(queue.stats().depth_high_water, queue.capacity());
  }
}

}  // namespace
}  // namespace marlin
