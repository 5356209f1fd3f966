#ifndef MARLIN_STREAM_DEAD_LETTER_H_
#define MARLIN_STREAM_DEAD_LETTER_H_

/// \file dead_letter.h
/// \brief Dead-letter quarantine: every record the pipeline rejects or
/// drops is either retained with its raw payload or at minimum *counted*,
/// never silently discarded — the counted-not-silent invariant of the
/// fault-tolerance layer (and the production trimming ROADMAP direction 1
/// calls for before shards go remote).
///
/// Two intake paths:
///   * `Push` (`PushHeld` for a closed window's rejects, in arrival order)
///     retains the raw rejected line/frame with a reason code, up to
///     `capacity` entries; overflow evicts the oldest retained payload but
///     keeps its count (data at risk never disappears from the ledger, only
///     its bytes do).
///   * `PushCount` records drops whose payload is already gone (e.g. a
///     degraded shard dropping routed messages wholesale) — counted only.
///
/// Both pipelines expose `DrainDeadLetters` for operators to pull the
/// retained payloads, and surface the counters through
/// `PipelineMetrics::health`. Thread-safe: the decode reject path runs on
/// the coordinator while degraded shard workers count drops concurrently.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"

namespace marlin {

/// \brief Why a record was dead-lettered.
enum class DeadLetterReason : uint8_t {
  kBadSentence = 0,   ///< NMEA frame failed parse/checksum
  kBadPayload = 1,    ///< sentence parsed but the AIS payload was undecodable
  kDegradedDrop = 2,  ///< dropped by a shard in counted-drop (degraded) mode
  kWorkerFailure = 3, ///< lost to a worker failure past the restart budget
  kFrameCorrupt = 4,  ///< wire frame failed magic/CRC/structure checks
  kFrameOversized = 5,  ///< wire frame declared a payload beyond the cap
};
inline constexpr size_t kDeadLetterReasonCount = 6;

inline const char* DeadLetterReasonName(DeadLetterReason reason) {
  switch (reason) {
    case DeadLetterReason::kBadSentence: return "bad_sentence";
    case DeadLetterReason::kBadPayload: return "bad_payload";
    case DeadLetterReason::kDegradedDrop: return "degraded_drop";
    case DeadLetterReason::kWorkerFailure: return "worker_failure";
    case DeadLetterReason::kFrameCorrupt: return "frame_corrupt";
    case DeadLetterReason::kFrameOversized: return "frame_oversized";
  }
  return "unknown";
}

/// \brief One retained rejected record.
struct DeadLetter {
  Timestamp ingest_time = kInvalidTimestamp;
  DeadLetterReason reason = DeadLetterReason::kBadSentence;
  std::string payload;  ///< the raw line/frame as received
};

/// \brief Mergeable dead-letter counters (part of `PipelineHealth`).
struct DeadLetterStats {
  uint64_t enqueued = 0;      ///< records retained with payload (ever)
  uint64_t counted_only = 0;  ///< records counted without payload retention
  uint64_t evicted = 0;       ///< retained payloads lost to capacity
  size_t depth = 0;           ///< currently retained (undrained) records
  uint64_t by_reason[kDeadLetterReasonCount] = {};

  /// Every record that left the healthy path, payload retained or not.
  uint64_t total() const { return enqueued + counted_only; }

  void Merge(const DeadLetterStats& o) {
    enqueued += o.enqueued;
    counted_only += o.counted_only;
    evicted += o.evicted;
    depth += o.depth;
    for (size_t i = 0; i < kDeadLetterReasonCount; ++i) {
      by_reason[i] += o.by_reason[i];
    }
  }
};

/// \brief Bounded, drainable, thread-safe quarantine queue.
class DeadLetterQueue {
 public:
  explicit DeadLetterQueue(size_t capacity = 1024)
      : capacity_(capacity > 0 ? capacity : 1) {}

  /// \brief Retains one rejected record (evicting the oldest at capacity).
  void Push(DeadLetterReason reason, std::string_view payload,
            Timestamp ingest_time) {
    std::lock_guard<std::mutex> lock(mutex_);
    PushLocked(DeadLetter{ingest_time, reason, std::string(payload)});
  }

  /// \brief Retains every record of `held` in order, as `Push` would, and
  /// clears it: the release of the rejects a pipeline holds with its open
  /// window until the window closes.
  void PushHeld(std::vector<DeadLetter>* held) {
    if (held->empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (DeadLetter& letter : *held) PushLocked(std::move(letter));
    held->clear();
  }

  /// \brief Counts `n` dropped records whose payloads are already gone.
  void PushCount(DeadLetterReason reason, uint64_t n) {
    if (n == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.counted_only += n;
    stats_.by_reason[static_cast<size_t>(reason)] += n;
  }

  /// \brief Moves all retained records (oldest first) into `out`; returns
  /// how many.
  size_t Drain(std::vector<DeadLetter>* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t n = queue_.size();
    out->reserve(out->size() + n);
    for (DeadLetter& dl : queue_) out->push_back(std::move(dl));
    queue_.clear();
    return n;
  }

  DeadLetterStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    DeadLetterStats s = stats_;
    s.depth = queue_.size();
    return s;
  }

 private:
  void PushLocked(DeadLetter letter) {
    while (queue_.size() >= capacity_) {
      queue_.pop_front();
      ++stats_.evicted;
    }
    ++stats_.enqueued;
    ++stats_.by_reason[static_cast<size_t>(letter.reason)];
    queue_.push_back(std::move(letter));
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<DeadLetter> queue_;
  DeadLetterStats stats_;
};

}  // namespace marlin

#endif  // MARLIN_STREAM_DEAD_LETTER_H_
