#ifndef MARLIN_CORE_SHARD_H_
#define MARLIN_CORE_SHARD_H_

/// \file shard.h
/// \brief The per-MMSI stateful half of the Figure-2 pipeline, factored out
/// of `MaritimePipeline` so it can run once (sequential reference) or N
/// times (one instance per shard of a `ShardedPipeline`).
///
/// Every stage whose state is keyed by vessel lives here: trajectory
/// reconstruction, synopses, single-vessel event rules, enrichment, the
/// store partition, and the coverage model. Message decoding (stateful
/// across the *whole* stream) and vessel-pair rules (global live picture)
/// stay with the pipeline coordinator.
///
/// A shard core is strictly single-threaded on its ingest path: determinism
/// of the sharded pipeline rests on each vessel's reports flowing through
/// exactly one core in arrival order. The one exception is *enrichment*,
/// which runs as an `AsyncSideStage` off the hot path: clean points are
/// handed to a per-core worker through a bounded drop-oldest queue, so a
/// slow context source (weather service, registry) can never stall ingest.
/// The sequential pipeline runs the same stage synchronously, which keeps
/// the 1-shard == sequential determinism guarantee intact for enriched
/// output.

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "ais/types.h"
#include "context/registry.h"
#include "context/weather.h"
#include "context/zones.h"
#include "core/anomaly.h"
#include "core/enrichment.h"
#include "core/events.h"
#include "core/integrity.h"
#include "core/reconstruction.h"
#include "core/synopses.h"
#include "storage/archive.h"
#include "storage/trajectory_store.h"
#include "stream/rate.h"
#include "stream/side_stage.h"
#include "uncertainty/openworld.h"

namespace marlin {

struct PipelineConfig;  // core/pipeline.h

/// \brief Consumer callback for the enriched output stream. In the sharded
/// pipeline it is invoked on the enrichment worker threads (one per shard)
/// and must be thread-safe; per-vessel event-time order is preserved either
/// way, because every vessel lives on exactly one FIFO stage.
using EnrichedSink = std::function<void(const EnrichedPoint&)>;

/// \brief One shard's worth of per-vessel pipeline state.
class PipelineShardCore {
 public:
  /// \brief Context sources may be null; the corresponding enrichment is
  /// skipped. `config` must outlive the core. `async_enrichment` selects
  /// whether the enrichment side-stage runs on its own worker (sharded
  /// pipeline) or inline on the caller thread (sequential reference).
  /// `shard_index` names this core's partition of the historical archive
  /// (directory suffix "shard_<i>"); the sequential pipeline is index 0.
  PipelineShardCore(const PipelineConfig& config, bool async_enrichment,
                    const ZoneDatabase* zones, const WeatherProvider* weather,
                    const VesselRegistry* registry_a,
                    const VesselRegistry* registry_b, size_t shard_index = 0);

  // Self-referential (config reference, enrichment_ points at
  // source_quality_): copying or moving would leave dangling internals.
  PipelineShardCore(const PipelineShardCore&) = delete;
  PipelineShardCore& operator=(const PipelineShardCore&) = delete;

  /// \brief Registers static & voyage data (ship type → event rules).
  void ProcessStatic(const StaticVoyageData& sv);

  /// \brief Runs one position report through reconstruction → synopses →
  /// store → enrichment → vessel event rules. Vessel events are appended to
  /// `events`; one `PairObservation` per clean point is appended to `pairs`
  /// for the downstream pair-rule stage.
  void ProcessPosition(const PositionReport& report, Timestamp ingest_time,
                       std::vector<DetectedEvent>* events,
                       std::vector<PairObservation>* pairs);

  /// \brief Flushes reorder buffers at end of stream. `ingest_time` is the
  /// stream's last observed ingest timestamp: flushed points enter the
  /// latency reservoir against it, so end-of-stream points are measured the
  /// same way streamed ones are (kInvalidTimestamp skips the observation).
  void Flush(Timestamp ingest_time, std::vector<DetectedEvent>* events,
             std::vector<PairObservation>* pairs);

  /// \brief Registers the enriched-output consumer. Install before the
  /// first ProcessPosition; with async enrichment it runs on the stage
  /// worker thread.
  void SetEnrichedSink(EnrichedSink sink) {
    enrichment_stage_.SetSink(std::move(sink));
  }

  /// \brief Moves buffered enriched points (delivery order) into `out`;
  /// returns how many. Only meaningful when no sink is registered.
  size_t DrainEnriched(std::vector<EnrichedPoint>* out) {
    return enrichment_stage_.Drain(out);
  }

  /// \brief Barrier: returns once every submitted point has been enriched
  /// (delivered to the sink / drain buffer) or counted as dropped.
  void FlushEnrichment() { enrichment_stage_.Flush(); }

  /// \brief Ends a burst of clean points: moves the points batched since
  /// the last hand-off to the async enrichment worker in one queue lock
  /// (the sharded pipeline: once per window task).
  void HandOffEnrichment() { enrichment_stage_.HandOff(); }

  /// \brief While set, clean points skip the enrichment side-stage and are
  /// counted instead. The supervisor sets this during a restart's history
  /// replay: re-submitting replayed points would emit duplicate enriched
  /// output downstream (the original submissions already left the stage),
  /// so they are suppressed and surface in `PipelineHealth` as data at
  /// risk. Writer thread only.
  void SetEnrichmentSuppressed(bool suppressed) {
    enrichment_suppressed_ = suppressed;
  }
  uint64_t enrichment_suppressed_count() const {
    return enrichment_suppressed_count_;
  }

  /// \brief Closes the historical archive's current epoch: cuts the staged
  /// points into position blocks, persists them, and publishes a new read
  /// snapshot. Called by both pipelines at every window close, so epoch
  /// boundaries equal window boundaries — the serving tier's determinism
  /// hinges on that alignment. No-op without an archive.
  Status CloseArchiveEpoch() {
    return archive_ != nullptr ? archive_->CloseEpoch() : Status::OK();
  }

  /// \brief This shard's archive partition; null when archiving is off.
  const ShardArchive* archive() const { return archive_.get(); }

  const TrajectoryStore& store() const { return store_; }
  const CoverageModel& coverage() const { return coverage_; }
  const std::vector<CriticalPoint>& synopsis_log() const {
    return synopsis_log_;
  }
  const TrajectoryReconstructor::Stats& reconstruction_stats() const {
    return reconstructor_.stats();
  }
  const SynopsisEngine::Stats& synopses_stats() const {
    return synopses_.stats();
  }
  const VesselEventEngine::Stats& vessel_event_stats() const {
    return vessel_events_.stats();
  }
  /// \brief Combined anomaly & integrity stage counters (zeros when the
  /// stage is disabled). Mergeable across shards.
  AnomalyStageStats anomaly_stage_stats() const {
    AnomalyStageStats stats = anomaly_.stats();
    stats.integrity = integrity_.stats();
    stats.events_out += integrity_.stats().events_out;
    return stats;
  }
  /// \brief Snapshot of the enrichment join counters. The engine itself is
  /// touched only by the stage transform; the transform publishes the
  /// counters after each point, so reading here never waits on a slow
  /// context lookup in progress. Complete after `FlushEnrichment`.
  EnrichmentEngine::Stats enrichment_stats() const {
    return enrichment_published_.Read();
  }
  /// \brief Snapshot of the side-stage counters (queue drops, depth,
  /// submit→delivery latency).
  SideStageStats enrichment_stage_stats() const {
    return enrichment_stage_.stats();
  }
  const LatencyReservoir& end_to_end_latency() const { return latency_; }

 private:
  void ProcessPoint(const ReconstructedPoint& rp,
                    std::vector<DetectedEvent>* events,
                    std::vector<PairObservation>* pairs);

  const PipelineConfig& config_;
  TrajectoryReconstructor reconstructor_;
  SynopsisEngine synopses_;
  VesselEventEngine vessel_events_;
  /// Anomaly & integrity stage (PipelineConfig::enable_anomaly): the
  /// integrity scorer sees raw reports before reconstruction; the
  /// behaviour-change detector consumes reconstruction output downstream
  /// of the synopsis stage. Both are keyed per MMSI only — the sharding
  /// invariance argument of every other stage in this core.
  IntegrityScorer integrity_;
  BehaviorChangeDetector anomaly_;
  SourceQualityModel source_quality_;
  /// The enrichment engine's counters as last published by the stage
  /// transform: relaxed atomics, so neither the per-point publish nor a
  /// reader takes a lock. A snapshot taken while the stage runs may mix
  /// two points' counts; the stage's Flush barrier (a lock hand-off after
  /// the transform) makes a later read complete.
  class PublishedEnrichmentStats {
   public:
    void Publish(const EnrichmentEngine::Stats& stats) {
      points_.store(stats.points, std::memory_order_relaxed);
      zone_hits_.store(stats.zone_hits, std::memory_order_relaxed);
      registry_hits_.store(stats.registry_hits, std::memory_order_relaxed);
      registry_conflicts_.store(stats.registry_conflicts,
                                std::memory_order_relaxed);
    }
    EnrichmentEngine::Stats Read() const {
      EnrichmentEngine::Stats stats;
      stats.points = points_.load(std::memory_order_relaxed);
      stats.zone_hits = zone_hits_.load(std::memory_order_relaxed);
      stats.registry_hits = registry_hits_.load(std::memory_order_relaxed);
      stats.registry_conflicts =
          registry_conflicts_.load(std::memory_order_relaxed);
      return stats;
    }

   private:
    std::atomic<uint64_t> points_{0};
    std::atomic<uint64_t> zone_hits_{0};
    std::atomic<uint64_t> registry_hits_{0};
    std::atomic<uint64_t> registry_conflicts_{0};
  };

  /// Engine + quality model belong to the stage transform alone (the
  /// worker thread in async mode, the producer thread in sync mode).
  EnrichmentEngine enrichment_;
  PublishedEnrichmentStats enrichment_published_;
  AsyncSideStage<ReconstructedPoint, EnrichedPoint> enrichment_stage_;
  TrajectoryStore store_;
  /// Historical serving-tier partition (null when PipelineConfig::archive is
  /// disabled). Written only by this core's worker thread; read via its
  /// lock-free snapshots by the query layer.
  std::unique_ptr<ShardArchive> archive_;
  CoverageModel coverage_;
  LatencyReservoir latency_;  ///< event time → processed
  // Supervisor replay support (see SetEnrichmentSuppressed).
  bool enrichment_suppressed_ = false;
  uint64_t enrichment_suppressed_count_ = 0;
  std::vector<CriticalPoint> synopsis_log_;
  // Scratch buffers reused across calls to avoid per-report allocation.
  std::vector<ReconstructedPoint> points_scratch_;
  std::vector<RejectedReport> rejections_scratch_;
};

}  // namespace marlin

#endif  // MARLIN_CORE_SHARD_H_
