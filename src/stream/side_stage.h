#ifndef MARLIN_STREAM_SIDE_STAGE_H_
#define MARLIN_STREAM_SIDE_STAGE_H_

/// \file side_stage.h
/// \brief Asynchronous side-stage: a worker fed off the hot path through a
/// bounded lossy channel (paper §2.2: joining streams with contextual
/// sources must not stall ingest when those sources are slow).
///
/// A side-stage receives items from exactly one producer (`Submit`), applies
/// a transform on its own thread, and delivers the results either to a
/// registered sink or to a bounded drain buffer. Backpressure is *lossy by
/// design*: when the transform cannot keep up the *oldest* queued item is
/// evicted and counted — the producer never blocks and the stage keeps the
/// freshest data (the input hop is an `SpscLossyRing`, stream/lossy_ring.h).
/// `Flush` is the end-of-stream barrier: after it returns, every submitted
/// item has been either delivered or counted as dropped, so
/// `submitted == processed + queue_dropped` is the completeness invariant.
///
/// Doorbell contract: `Submit` publishes without waking a parked worker;
/// the ring wakes it itself once half full. The producer rings it with
/// `Wake` at the end of each burst (the shard core: once per window task),
/// and `Flush` rings it before it waits, so a burst shorter than half the
/// ring costs one wake-up, not one per item, and no item waits longer than
/// its burst.
///
/// Ordering: the ring is FIFO and the worker is single, so delivery
/// order is submission order (minus evicted items — drops thin the stream
/// but never reorder it). A synchronous mode (`Options::async = false`)
/// runs the transform inline on the producer thread with identical
/// accounting, giving a deterministic single-threaded reference for the
/// async stage.
///
/// Fault isolation: a transform that throws loses only that item — counted
/// in `transform_failed`, never tearing down the worker thread — so the
/// completeness invariant generalises to
/// `submitted == processed + queue_dropped + transform_failed`.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "stream/lossy_ring.h"
#include "stream/rate.h"

namespace marlin {

/// \brief Wall-clock share of the transform attributed to one named
/// upstream source — which context join (zones vs weather vs registry, for
/// the enrichment stage) is actually eating the stage's budget.
struct SourceLatency {
  uint64_t calls = 0;     ///< attributed transform invocations
  uint64_t total_us = 0;  ///< summed wall-clock microseconds
  uint64_t max_us = 0;    ///< slowest single call

  double MeanUs() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(total_us) /
                            static_cast<double>(calls);
  }

  void Merge(const SourceLatency& other) {
    calls += other.calls;
    total_us += other.total_us;
    max_us = std::max(max_us, other.max_us);
  }
};

/// \brief Side-stage instrumentation. Mergeable across shards.
struct SideStageStats {
  uint64_t submitted = 0;       ///< items handed to Submit
  uint64_t processed = 0;       ///< items transformed and delivered
  uint64_t queue_dropped = 0;   ///< evicted unprocessed (input backpressure)
  uint64_t output_dropped = 0;  ///< delivered but evicted from drain buffer
  uint64_t transform_failed = 0;  ///< transform threw; item lost, counted
  size_t max_queue_depth = 0;   ///< high-water mark of the input queue
  /// Producer → worker hop counters (waits, batch-size histogram; its
  /// depth high-water equals `max_queue_depth`). Zero in sync mode.
  QueueHopStats hop;
  LatencyReservoir latency{512};  ///< submit → delivered, wall-clock ms
  /// Per-source attribution, filled by the transform through
  /// `AsyncSideStage::AttributeSource`. Empty when the transform does not
  /// attribute.
  /// Transparent comparator: the per-point attribution looks sources up
  /// by `std::string_view` without building a key.
  std::map<std::string, SourceLatency, std::less<>> source_latency;

  uint64_t dropped() const { return queue_dropped + output_dropped; }

  void Merge(const SideStageStats& other) {
    submitted += other.submitted;
    processed += other.processed;
    queue_dropped += other.queue_dropped;
    output_dropped += other.output_dropped;
    transform_failed += other.transform_failed;
    max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
    hop.Merge(other.hop);
    latency.Merge(other.latency);
    for (const auto& [name, source] : other.source_latency) {
      source_latency[name].Merge(source);
    }
  }
};

/// \brief Single-producer async side-stage over a transform `In -> Out`.
template <typename In, typename Out>
class AsyncSideStage {
 public:
  struct Options {
    /// Run the transform on a dedicated worker (true) or inline on the
    /// producer thread (false — the sequential reference mode).
    bool async = true;
    /// Input ring depth; overflow evicts the oldest queued item.
    size_t queue_depth = 1024;
    /// Drain-buffer capacity when no sink is registered; overflow evicts
    /// the oldest buffered output.
    size_t output_capacity = 8192;
    /// Worker pops up to this many items per ring acquisition.
    size_t max_batch = 64;
  };

  using Transform = std::function<Out(const In&)>;
  using Sink = std::function<void(const Out&)>;

  AsyncSideStage(const Options& options, Transform transform)
      : options_(options),
        transform_(std::move(transform)),
        channel_(std::max<size_t>(1, options.queue_depth)) {
    if (options_.async) worker_ = std::thread([this] { WorkerLoop(); });
  }

  ~AsyncSideStage() {
    channel_.Close();  // worker drains the remaining items, then exits
    if (worker_.joinable()) worker_.join();
  }

  AsyncSideStage(const AsyncSideStage&) = delete;
  AsyncSideStage& operator=(const AsyncSideStage&) = delete;

  /// \brief Registers the consumer callback. Must be installed before the
  /// first Submit; in async mode it runs on the worker thread.
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  /// \brief Hands one item to the stage. Never blocks: a full channel
  /// evicts an item (counted in `queue_dropped`). Single producer. Does not
  /// wake a parked worker below half the ring depth: end the burst with
  /// `Wake` (or `Flush`).
  /// Counter note: in async mode `submitted` is a producer-owned relaxed
  /// atomic, bumped *before* the push, and the stats lock is taken only
  /// when the push evicted (or was rejected). The ring's release/acquire
  /// hand-off and the stats lock order each bump before any count of that
  /// item, so a `stats()` snapshot never reads fewer `submitted` than
  /// `processed + queue_dropped + transform_failed`, never reads a smaller
  /// `submitted` than an earlier snapshot, and the two sides are equal at
  /// every quiescent point (Flush).
  void Submit(const In& item) {
    const TimePoint now = Clock::now();
    if (!options_.async) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.submitted;
      }
      std::optional<Out> out;
      try {
        out.emplace(transform_(item));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.transform_failed;
        complete_cv_.notify_all();
        return;
      }
      Deliver(std::move(*out), now);
      return;
    }
    submitted_.store(submitted_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    size_t evicted = 0;
    const bool pushed = channel_.PushEvictOldest(Item{item, now}, &evicted);
    if (!pushed) ++evicted;  // closed: account the rejected item itself
    if (evicted == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.queue_dropped += evicted;
    complete_cv_.notify_all();
  }

  /// \brief Moves the buffered outputs (delivery order) into `out`;
  /// returns how many. Only meaningful without a sink.
  size_t Drain(std::vector<Out>* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t n = output_.size();
    out->reserve(out->size() + n);
    for (Out& o : output_) out->push_back(std::move(o));
    output_.clear();
    return n;
  }

  /// \brief Ends a burst of Submits: wakes the worker if it is parked.
  /// Call from the producer, or from a thread that happens-after its last
  /// Submit. No-op in sync mode (nothing is ever queued).
  void Wake() { channel_.Wake(); }

  /// \brief End-of-stream barrier: rings the doorbell, then blocks until
  /// every submitted item has been delivered or dropped. Call from a
  /// quiescent producer (no concurrent Submit).
  void Flush() {
    Wake();
    std::unique_lock<std::mutex> lock(mutex_);
    complete_cv_.wait(lock, [this] {
      return stats_.processed + stats_.queue_dropped +
                 stats_.transform_failed >=
             SubmittedLocked();
    });
  }

  /// \brief Attributes `micros` of transform wall-clock to the named
  /// upstream source. Call from inside the transform — it runs on the
  /// worker thread in async mode, the producer thread in sync mode; either
  /// way the stats lock serialises the update.
  void AttributeSource(std::string_view name, uint64_t micros) {
    const std::pair<std::string_view, uint64_t> one[] = {{name, micros}};
    AttributeSources(one);
  }

  /// \brief Batched attribution: one stats-lock acquisition for all of a
  /// transform invocation's sources (the per-point hot path).
  void AttributeSources(
      std::span<const std::pair<std::string_view, uint64_t>> sources) {
    if (sources.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, micros] : sources) {
      auto it = stats_.source_latency.find(name);
      if (it == stats_.source_latency.end()) {
        it = stats_.source_latency.emplace(std::string(name), SourceLatency())
                 .first;
      }
      SourceLatency& source = it->second;
      ++source.calls;
      source.total_us += micros;
      source.max_us = std::max(source.max_us, micros);
    }
  }

  /// \brief Snapshot of the stage counters (safe while the worker runs).
  SideStageStats stats() const {
    QueueHopStats hop;
    if (options_.async) hop = channel_.stats();
    std::lock_guard<std::mutex> lock(mutex_);
    SideStageStats s = stats_;
    s.submitted = SubmittedLocked();
    s.hop = hop;
    s.max_queue_depth = std::max(s.max_queue_depth, hop.depth_high_water);
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  struct Item {
    In payload;
    TimePoint submitted_at;
  };

  void WorkerLoop() {
    std::vector<Item> batch;
    std::vector<std::pair<Out, DurationMs>> done;
    while (channel_.PopBatch(&batch, std::max<size_t>(1, options_.max_batch)) >
           0) {
      // Transform (and sink delivery) run without the stats lock; the
      // bookkeeping for the whole batch is one lock acquisition.
      uint64_t failed = 0;
      for (Item& item : batch) {
        std::optional<Out> out;
        try {
          out.emplace(transform_(item.payload));
        } catch (...) {
          // Lose only this item; the worker (and the rest of the batch)
          // carries on.
          ++failed;
          continue;
        }
        const DurationMs latency_ms = MillisSince(item.submitted_at);
        if (sink_) sink_(*out);
        done.emplace_back(std::move(*out), latency_ms);
      }
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [out, latency_ms] : done) {
        ++stats_.processed;
        stats_.latency.Observe(latency_ms);
        if (!sink_) PushOutput(std::move(out));
      }
      stats_.transform_failed += failed;
      done.clear();
      batch.clear();
      complete_cv_.notify_all();
    }
  }

  void Deliver(Out out, TimePoint submitted_at) {
    const DurationMs latency_ms = MillisSince(submitted_at);
    if (sink_) sink_(out);  // user code runs outside the stats lock
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.processed;
    stats_.latency.Observe(latency_ms);
    if (!sink_) PushOutput(std::move(out));
    complete_cv_.notify_all();
  }

  /// Caller holds mutex_. Sync mode counts under the lock; async mode in
  /// the producer's atomic.
  uint64_t SubmittedLocked() const {
    return stats_.submitted + submitted_.load(std::memory_order_relaxed);
  }

  static DurationMs MillisSince(TimePoint start) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 start)
        .count();
  }

  /// Caller holds mutex_.
  void PushOutput(Out out) {
    while (output_.size() >= std::max<size_t>(1, options_.output_capacity)) {
      output_.pop_front();
      ++stats_.output_dropped;
    }
    output_.push_back(std::move(out));
  }

  const Options options_;
  const Transform transform_;
  Sink sink_;  ///< written before the first Submit, read by the worker
  /// The Submit caller is the stage's single producer and the worker its
  /// single consumer, so the SPSC contract holds.
  SpscLossyRing<Item> channel_;
  std::thread worker_;
  /// Async-mode `submitted`, written only by the producer (see Submit).
  std::atomic<uint64_t> submitted_{0};
  mutable std::mutex mutex_;
  std::condition_variable complete_cv_;
  std::deque<Out> output_;  ///< drain buffer (sink-less mode)
  SideStageStats stats_;
};

}  // namespace marlin

#endif  // MARLIN_STREAM_SIDE_STAGE_H_
