#ifndef MARLIN_CORE_SUPERVISOR_H_
#define MARLIN_CORE_SUPERVISOR_H_

/// \file supervisor.h
/// \brief Worker supervision: failure accounting, bounded replay state, and
/// the pipeline-wide health snapshot.
///
/// The sharded pipeline's worker threads (shard cores, side stages) execute
/// under a supervisor discipline instead of letting an exception tear the
/// thread (and with it the coordinator's latch) down:
///
///   * A failing shard worker is caught, attributed
///     (`SupervisorStats::failures_by_site`), and restarted: its
///     `PipelineShardCore` is rebuilt from scratch and the raw routed
///     batches buffered in a bounded per-shard `ReplayBuffer` are replayed
///     in order. Reconstruction, synopses, event detection and the archive
///     are all deterministic functions of the input batches, so the rebuilt
///     core is byte-identical to one that never crashed — the
///     supervised-restart equivalence test holds the pipeline to exactly
///     that.
///   * A restart budget caps retries. A worker that keeps dying (or whose
///     replay history was truncated by the buffer bound, making a
///     deterministic rebuild impossible) degrades to counted-drop mode:
///     subsequent batches are dropped *and counted* into the dead-letter
///     ledger rather than wedging or crashing the coordinator.
///   * Side-stage transforms fail softer: a throwing enrichment transform
///     drops only that item, counted.
///
/// `PipelineHealth` is the operator-facing roll-up of all of it, exposed on
/// both pipelines via `PipelineMetrics::health`.

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "stream/dead_letter.h"

namespace marlin {

/// \brief Supervision knobs, embedded in `PipelineConfig`. Supervision
/// itself is always on: every `ShardedPipeline` worker buffers its routed
/// windows for replay and contains its failures.
struct SupervisionOptions {
  /// Restarts allowed per worker before it degrades to counted-drop mode.
  size_t restart_budget = 3;
  /// Replay-buffer bound, in buffered routed messages per shard. The buffer
  /// always retains the in-flight window; once the bound would evict an
  /// older window the history is truncated and freed, after which a failure
  /// can no longer be repaired by replay (full-history determinism is lost)
  /// and the worker degrades instead.
  size_t replay_max_messages = 1 << 16;
};

/// \brief Mergeable supervision counters (part of `PipelineHealth`).
struct SupervisorStats {
  uint64_t failures = 0;           ///< worker exceptions caught
  uint64_t restarts = 0;           ///< cores rebuilt + replayed
  uint64_t windows_replayed = 0;   ///< buffered windows re-processed
  uint64_t messages_replayed = 0;  ///< buffered messages re-processed
  uint64_t degraded_workers = 0;   ///< workers in counted-drop mode
  uint64_t degraded_dropped_messages = 0;  ///< messages dropped while degraded
  /// Enrichment submissions suppressed during replay (replayed points would
  /// otherwise double-enrich; counted as data at risk, not re-enriched).
  uint64_t enrichment_suppressed = 0;
  /// Failure attribution: injected faults report their site name, real
  /// exceptions their what(). std::map for deterministic iteration.
  std::map<std::string, uint64_t> failures_by_site;

  void Merge(const SupervisorStats& o) {
    failures += o.failures;
    restarts += o.restarts;
    windows_replayed += o.windows_replayed;
    messages_replayed += o.messages_replayed;
    degraded_workers += o.degraded_workers;
    degraded_dropped_messages += o.degraded_dropped_messages;
    enrichment_suppressed += o.enrichment_suppressed;
    for (const auto& [site, n] : o.failures_by_site) {
      failures_by_site[site] += n;
    }
  }
};

/// \brief Operator-facing roll-up of the fault-tolerance layer, refreshed at
/// the same quiescent points as the rest of `PipelineMetrics`.
struct PipelineHealth {
  SupervisorStats supervisor;
  DeadLetterStats dead_letter;
  uint64_t enrichment_transform_failures = 0;  ///< side-stage items lost
  uint64_t archive_put_failures = 0;           ///< blocks not durable
  uint64_t archive_points_at_risk = 0;         ///< points in those blocks

  /// Records that left the healthy path in any form. Dead-letter `total()`
  /// already folds in degraded drops and parse rejects (they are pushed
  /// there), so nothing is double-counted.
  uint64_t DataAtRisk() const {
    return dead_letter.total() + enrichment_transform_failures +
           archive_points_at_risk;
  }
};

/// \brief Bounded FIFO of per-window raw input, the fuel for a supervised
/// restart. Owned by its worker thread — no locking.
///
/// Truncation is terminal: a history that lost its oldest window can never
/// rebuild a core, so the first eviction frees every held record and later
/// appends are no-ops until `Clear`. The owner may skip building records
/// once `truncated()` is set.
///
/// `Record` supplies `uint64_t seq` (coordinator-assigned window sequence;
/// the two records of a Finish window share one) and a `messages` vector.
template <typename Record>
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t max_messages) : max_messages_(max_messages) {}

  /// \brief Appends the record. Past the bound, if an older window would
  /// have to be evicted, the history is truncated instead: every record is
  /// freed and `truncated()` set. A window alone past the bound (only
  /// records carrying the just-appended seq) is kept: the in-flight window
  /// must stay replayable for the restart that is about to consume it.
  void Append(Record record) {
    if (truncated_) return;
    total_ += record.messages.size();
    windows_.push_back(std::move(record));
    if (total_ > max_messages_ &&
        windows_.front().seq != windows_.back().seq) {
      windows_.clear();
      total_ = 0;
      truncated_ = true;
    }
  }

  const std::deque<Record>& windows() const { return windows_; }

  /// \brief True once the bound forced an eviction: a rebuild can no longer
  /// replay full history, so the next failure degrades instead. Sticky
  /// until `Clear`; the held history is empty while it is set.
  bool truncated() const { return truncated_; }

  size_t total_messages() const { return total_; }

  void Clear() {
    windows_.clear();
    total_ = 0;
    truncated_ = false;
  }

 private:
  size_t max_messages_;
  size_t total_ = 0;
  bool truncated_ = false;
  std::deque<Record> windows_;
};

}  // namespace marlin

#endif  // MARLIN_CORE_SUPERVISOR_H_
