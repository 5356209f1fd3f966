#ifndef MARLIN_CORE_PIPELINE_H_
#define MARLIN_CORE_PIPELINE_H_

/// \file pipeline.h
/// \brief The integrated maritime information infrastructure of Figure 2:
/// NMEA streams → decoding → trajectory reconstruction → synopses →
/// enrichment → event recognition → live picture & alerts, with per-stage
/// metrics.
///
/// One `MaritimePipeline` instance is the single-threaded reference
/// implementation — the system under test in the end-to-end experiments
/// (E1, E5, F2) and the object the examples drive. Its sharded counterpart
/// (`ShardedPipeline`, core/sharded_pipeline.h) runs the same stages across
/// N worker threads and reproduces this pipeline's event stream exactly.
///
/// Processing is *windowed*: single-vessel stages run per input line, while
/// the vessel-pair rules (rendezvous, collision risk) and event
/// re-sequencing run once per window over the canonically
/// (event-time, MMSI)-ordered point stream. A window closes after
/// `PipelineConfig::window_lines` input lines or `window_time_ms` of ingest
/// time, whichever comes first. Windowing is what makes the event stream
/// independent of how the work is partitioned — the sharded pipeline uses
/// the same boundaries.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ais/codec.h"
#include "ais/validation.h"
#include "core/anomaly.h"
#include "core/integrity.h"
#include "context/registry.h"
#include "context/weather.h"
#include "context/zones.h"
#include "core/enrichment.h"
#include "core/events.h"
#include "core/reconstruction.h"
#include "core/shard.h"
#include "core/supervisor.h"
#include "core/synopses.h"
#include "storage/trajectory_store.h"
#include "stream/dead_letter.h"
#include "stream/event.h"
#include "stream/frame.h"
#include "stream/hop_stats.h"
#include "stream/net_stats.h"
#include "stream/rate.h"
#include "uncertainty/openworld.h"

namespace marlin {

/// \brief Pipeline configuration: which context sources to join and the
/// per-stage options.
struct PipelineConfig {
  TrajectoryReconstructor::Options reconstruction;
  SynopsisEngine::Options synopses;
  EventEngine::Options events;
  TrajectoryStore::Options store;
  CoverageModel::Options coverage;
  /// Historical serving tier (storage/archive.h): per-shard queryable
  /// archives cut at window boundaries, served to `QueryEngine` readers via
  /// epoch snapshots. Disabled by default — enabling it adds one staging
  /// copy per clean point to the ingest path and an epoch close per window.
  ArchiveOptions archive;
  /// Online anomaly & integrity stage (core/integrity.h, core/anomaly.h):
  /// raw reports are integrity-scored before reconstruction and the clean
  /// point stream feeds a per-vessel behaviour-change detector. Off by
  /// default: enabling it adds events (kKinematicIntegrity, kMmsiConflict,
  /// kBehaviorChange) to the stream, so pre-stage baselines stay
  /// byte-identical unless opted in.
  bool enable_anomaly = false;
  IntegrityScorer::Options integrity;
  BehaviorChangeDetector::Options anomaly;
  bool enable_quality_assessment = true;
  /// Run the contextual-join side-stage at all. Off skips the stage
  /// entirely (the bench baseline for the enrichment-on/off axis).
  bool enable_enrichment = true;
  /// Enrichment side-stage input queue depth, per shard. The stage never
  /// blocks ingest: overflow evicts the oldest queued point and counts it
  /// in `PipelineMetrics::enrichment_stage.queue_dropped`. The worker is
  /// woken once per window (or at half depth), so the default holds one
  /// default window's burst (`window_lines`).
  size_t enrichment_queue_depth = 4096;
  /// Capacity of the per-shard enriched drain buffer used when no sink is
  /// registered; overflow evicts the oldest buffered point (counted).
  size_t enriched_output_capacity = 8192;
  /// Pair-rule / re-sequencing window, in input lines. Smaller windows
  /// lower pair-event latency; larger windows amortise the merge. Must be
  /// identical between a sequential pipeline and a sharded pipeline whose
  /// outputs are being compared (as must `window_time_ms`).
  size_t window_lines = 4096;
  /// Ingest-time cap on a window: the window also closes once the newest
  /// line arrived this long after the window's first line. Keeps alert
  /// latency bounded on low-rate feeds, where filling `window_lines` could
  /// take arbitrarily long. 0 disables the time trigger.
  DurationMs window_time_ms = kMillisPerMinute;
  /// Restart budget and replay-buffer bound for `ShardedPipeline`'s
  /// always-on worker supervision (core/supervisor.h): crash containment,
  /// replay-based restart, degraded counted-drop mode. `MaritimePipeline`
  /// is single-threaded and has no workers to supervise; it still surfaces
  /// the dead-letter and data-at-risk half of `PipelineMetrics::health`.
  SupervisionOptions supervision;
  /// Retained-payload capacity of the dead-letter quarantine queue.
  size_t dead_letter_capacity = 1024;
  /// Key multi-fragment reassembly per source/connection id (the
  /// `Event::source_id` of each line becomes an `AivdmAssembler` group
  /// salt). Off by default: a single merged feed — including the scenario
  /// generator, which delivers the *same* transmission through several
  /// receivers — must keep one reassembly namespace. The network front
  /// door turns it on so two TCP connections interleaving fragments with
  /// colliding (sequential-id, channel, count) keys cannot
  /// cross-contaminate each other's groups.
  bool fragment_group_by_source = false;
};

/// \brief Resolves a thread/shard-count knob where 0 means "size to the
/// host topology". `hardware_concurrency` may itself report 0 (unknown);
/// floor at 1 so callers always get a runnable count.
inline size_t ResolveTopologyCount(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// \brief Window-close predicate shared by the sequential and sharded
/// pipelines: a window holding `line_count` lines, the first of which
/// arrived at `first_ingest` and the newest at `newest_ingest`, must close
/// when either the line budget or the ingest-time budget is exhausted.
/// Depends only on the input stream, so every pipeline draws identical
/// window boundaries — a prerequisite for determinism across shard counts.
inline bool WindowMustClose(const PipelineConfig& config, size_t line_count,
                            Timestamp first_ingest, Timestamp newest_ingest) {
  if (line_count >= std::max<size_t>(1, config.window_lines)) return true;
  return config.window_time_ms > 0 &&
         newest_ingest - first_ingest >= config.window_time_ms;
}

/// \brief The position report borne by a decoded message, if any — the one
/// classification both pipelines must agree on (handles the Class B
/// extended report's embedded position). Null for non-position messages.
inline const PositionReport* PositionReportOf(const AisMessage& msg) {
  if (const auto* pr = std::get_if<PositionReport>(&msg)) return pr;
  if (const auto* eb = std::get_if<ExtendedClassBReport>(&msg)) {
    return &eb->position_report;
  }
  return nullptr;
}

/// \brief Stable-sorts `out[base..]` into canonical (event-time, MMSI)
/// order and returns its size — the shared tail of both pipelines'
/// `DrainEnrichedOrdered`. Points before `base` are left untouched.
size_t SortDrainedEnriched(std::vector<EnrichedPoint>* out, size_t base);

/// Events at or above this severity increment the alert counter and fire
/// the pipeline's OnAlert callback.
inline constexpr double kAlertSeverityThreshold = 0.5;

/// \brief Counts and dispatches the alerts in a finalized event window —
/// the single alert path both pipelines share.
inline void FireAlerts(const std::vector<DetectedEvent>& events,
                       uint64_t* alert_count,
                       const std::function<void(const DetectedEvent&)>& cb) {
  for (const DetectedEvent& ev : events) {
    if (ev.severity >= kAlertSeverityThreshold) {
      ++*alert_count;
      if (cb) cb(ev);
    }
  }
}

/// \brief Per-stage pipeline metrics (the Figure-2 instrumentation).
struct PipelineMetrics {
  AisDecoder::Stats decoder;
  TrajectoryReconstructor::Stats reconstruction;
  SynopsisEngine::Stats synopses;
  EventEngine::Stats events;
  EnrichmentEngine::Stats enrichment;
  /// Enrichment side-stage health: queue depth high-water mark, counted
  /// drops (backpressure made visible, never a stall), submit→delivery
  /// latency, and the per-source (zones / weather / registry) share of the
  /// join work.
  SideStageStats enrichment_stage;
  /// Coordinator → shard-worker hop: command-queue depth high-water,
  /// producer/consumer waits, pop batch-size histogram — merged across the
  /// per-shard channels. Zero in the single-threaded pipeline.
  QueueHopStats shard_hop;
  /// Anomaly & integrity stage counters (integrity scorer + behaviour-change
  /// detector), merged across shards. All zero when
  /// `PipelineConfig::enable_anomaly` is false.
  AnomalyStageStats anomaly;
  QualityAssessor::Report quality;
  /// Historical serving tier counters (blocks cut, epochs published, LSM
  /// flush/compaction activity), merged across shard archives. All zero when
  /// `PipelineConfig::archive.enabled` is false.
  ArchiveStats archive;
  uint64_t alerts = 0;
  RateMeter ingest_rate;
  LatencyReservoir end_to_end_latency;  ///< event time → processed
  /// Fault-tolerance roll-up: worker failures/restarts/degradations,
  /// dead-letter ledger, and data-at-risk counters (core/supervisor.h).
  PipelineHealth health;
  /// Network front-door roll-up (per-connection ingest counters), recorded
  /// by the driver via `RecordNetIngest`. All zero when ingest is
  /// in-process.
  NetIngestStats net_ingest;
};

/// \brief The integrated system (single-threaded reference).
class MaritimePipeline {
 public:
  /// \brief Context sources may be null; the corresponding enrichment is
  /// skipped.
  MaritimePipeline(const PipelineConfig& config, const ZoneDatabase* zones,
                   const WeatherProvider* weather,
                   const VesselRegistry* registry_a,
                   const VesselRegistry* registry_b);

  /// \brief Alert callback: invoked for events with severity ≥ 0.5.
  void OnAlert(std::function<void(const DetectedEvent&)> callback) {
    alert_callback_ = std::move(callback);
  }

  /// \brief Subscribes to the enriched output stream (§2.2's contextually
  /// rich stream). The sequential pipeline runs the stage synchronously, so
  /// the sink fires on the caller thread, in processing order. Install
  /// before the first ingest call.
  void SetEnrichedSink(EnrichedSink sink) {
    core_.SetEnrichedSink(std::move(sink));
  }

  /// \brief Batched alternative to a sink: moves the enriched points
  /// buffered since the last drain (delivery order) into `out`.
  size_t DrainEnriched(std::vector<EnrichedPoint>* out) {
    return core_.DrainEnriched(out);
  }

  /// \brief Drains the buffered enriched points in canonical
  /// (event-time, MMSI) order — the coordinator-side merged view of §2.2's
  /// contextually rich stream. Appends to `out` (sorting only the appended
  /// range, `SortDrainedEnriched`); returns how many. The sharded
  /// pipeline's `DrainEnrichedOrdered` produces the identical sequence for
  /// the same input, shard count notwithstanding.
  size_t DrainEnrichedOrdered(std::vector<EnrichedPoint>* out);

  /// \brief Enrichment delivery barrier. A no-op here (the stage is
  /// synchronous); `Finish` calls it so both pipelines share the contract
  /// that after Finish every clean point has been delivered or counted
  /// dropped.
  void FlushEnrichment() { core_.FlushEnrichment(); }

  /// \brief Batched ingest: feeds a span of pre-timestamped lines (arrival
  /// order) and returns all events finalized along the way — single-vessel
  /// events surface when their window closes (every `window_lines` lines,
  /// `window_time_ms` of ingest time, or at `Finish`), together with the
  /// window's pair events, re-sequenced canonically. Windows carry over
  /// between calls; `Finish` closes the last partial window. Each line's
  /// `source_id` becomes the reassembly salt when
  /// `PipelineConfig::fragment_group_by_source` is on.
  std::vector<DetectedEvent> IngestBatch(
      std::span<const Event<std::string>> nmea);

  /// \brief Framed-transport ingest: feeds already de-armored AIS payloads
  /// (the `kPacked` wire-frame kind — assembly and six-bit unarmoring
  /// happened sender-side). One record advances the window exactly like one
  /// NMEA line; undecodable payloads are counted into the dead-letter
  /// ledger (`kBadPayload`, counted-only — the raw bytes stayed with the
  /// sender). Interleaves freely with `IngestBatch`.
  std::vector<DetectedEvent> IngestPackedBatch(
      std::span<const Event<PackedRecord>> packed);

  /// \brief Records a network front-door stats snapshot (replacing the
  /// previous one) for surfacing through `metrics().net_ingest`.
  void RecordNetIngest(const NetIngestStats& stats) {
    metrics_.net_ingest = stats;
  }

  /// \brief Convenience: runs a whole pre-generated stream (arrival order)
  /// and finishes it.
  std::vector<DetectedEvent> Run(const std::vector<Event<std::string>>& nmea);

  /// \brief Flushes reorder buffers, closes open pattern states, and closes
  /// the current window.
  std::vector<DetectedEvent> Finish();

  /// \brief Moves the retained dead-letter records (rejected raw lines, in
  /// rejection order) into `out`; returns how many. An open window's
  /// rejects reach the queue when it closes, as in the sharded pipeline.
  /// Counters survive the drain in `metrics().health.dead_letter`.
  size_t DrainDeadLetters(std::vector<DeadLetter>* out) {
    return dead_letters_.Drain(out);
  }

  const TrajectoryStore& store() const { return core_.store(); }
  const CoverageModel& coverage() const { return core_.coverage(); }
  /// \brief The historical archive (single partition here); null when
  /// `PipelineConfig::archive` is disabled. Hand `{archive()}` to a
  /// `QueryEngine` for the sequential serving reference.
  const ShardArchive* archive() const { return core_.archive(); }
  /// \brief Per-stage metrics, snapshotted at every window close: they
  /// cover the closed windows, the same lines `ShardedPipeline::metrics()`
  /// covers.
  const PipelineMetrics& metrics() const { return metrics_; }
  const std::vector<CriticalPoint>& synopsis_log() const {
    return core_.synopsis_log();
  }

 private:
  /// The per-record step both batch entry points share once they have
  /// decoded (and dead-lettered) a record: opens the window, runs quality +
  /// `ProcessDecoded` on a decoded message, and appends the window's events
  /// to `out` if this record closes it.
  void IngestRecord(const std::optional<AisMessage>& msg,
                    Timestamp ingest_time, std::vector<DetectedEvent>* out);
  void ProcessDecoded(const AisMessage& msg, Timestamp ingest_time);
  /// Releases the window's held rejects to the dead-letter queue, runs the
  /// pair stage over its observations, re-sequences its events, fires
  /// alerts, refreshes metric snapshots.
  std::vector<DetectedEvent> CloseWindow(bool flush_pairs);
  void RefreshMetrics();

  PipelineConfig config_;
  AisDecoder decoder_;
  QualityAssessor quality_;
  PipelineShardCore core_;
  PairEventEngine pair_events_;
  DeadLetterQueue dead_letters_;
  PipelineMetrics metrics_;
  std::vector<DetectedEvent> window_events_;
  std::vector<PairObservation> window_pairs_;
  std::vector<DeadLetter> window_rejects_;  ///< arrival order, until close
  uint64_t window_packed_rejects_ = 0;      ///< counted-only, until close
  size_t window_line_count_ = 0;
  Timestamp window_first_ingest_ = kInvalidTimestamp;
  Timestamp last_ingest_ = kInvalidTimestamp;  ///< newest line's ingest time
  std::function<void(const DetectedEvent&)> alert_callback_;
};

}  // namespace marlin

#endif  // MARLIN_CORE_PIPELINE_H_
