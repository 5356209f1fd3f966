#include "core/shard.h"

#include <string>
#include <string_view>
#include <utility>

#include "common/fault.h"
#include "core/pipeline.h"

namespace marlin {

namespace {

AsyncSideStage<ReconstructedPoint, EnrichedPoint>::Options EnrichmentOptions(
    const PipelineConfig& config, bool async) {
  AsyncSideStage<ReconstructedPoint, EnrichedPoint>::Options options;
  // A disabled stage never receives a Submit; keep it synchronous so no
  // idle worker thread is spawned per shard.
  options.async = async && config.enable_enrichment;
  options.queue_depth = config.enrichment_queue_depth;
  options.output_capacity = config.enriched_output_capacity;
  return options;
}

}  // namespace

PipelineShardCore::PipelineShardCore(const PipelineConfig& config,
                                     bool async_enrichment,
                                     const ZoneDatabase* zones,
                                     const WeatherProvider* weather,
                                     const VesselRegistry* registry_a,
                                     const VesselRegistry* registry_b,
                                     size_t shard_index)
    : config_(config),
      reconstructor_(config.reconstruction),
      synopses_(config.synopses),
      vessel_events_(zones, config.events),
      integrity_(config.integrity),
      anomaly_(config.anomaly),
      enrichment_(zones, weather, registry_a, registry_b, &source_quality_),
      enrichment_stage_(EnrichmentOptions(config, async_enrichment),
                        [this](const ReconstructedPoint& rp) {
                          MARLIN_FAULT_POINT("enrichment.transform");
                          EnrichmentEngine::SourceTimings timings;
                          EnrichedPoint out = enrichment_.Enrich(rp, &timings);
                          // Per-source attribution: which context join is
                          // eating the stage's budget. Lock-free per point;
                          // the stage folds it in once per batch.
                          std::pair<std::string_view, uint64_t> attributed[3];
                          size_t n = 0;
                          if (timings.zones_ran) {
                            attributed[n++] = {"zones", timings.zones_us};
                          }
                          if (timings.weather_ran) {
                            attributed[n++] = {"weather", timings.weather_us};
                          }
                          if (timings.registry_ran) {
                            attributed[n++] = {"registry",
                                               timings.registry_us};
                          }
                          enrichment_stage_.AttributeSources({attributed, n});
                          enrichment_published_.Publish(enrichment_.stats());
                          return out;
                        }),
      store_(config.store),
      coverage_(config.coverage) {
  if (config.archive.enabled) {
    std::string dir = config.archive.directory;
    if (!dir.empty()) dir += "/shard_" + std::to_string(shard_index);
    archive_ = std::make_unique<ShardArchive>(config.archive, std::move(dir));
  }
}

void PipelineShardCore::ProcessStatic(const StaticVoyageData& sv) {
  vessel_events_.SetVesselInfo(sv.mmsi, sv.ship_type);
}

void PipelineShardCore::ProcessPosition(const PositionReport& report,
                                        Timestamp ingest_time,
                                        std::vector<DetectedEvent>* events,
                                        std::vector<PairObservation>* pairs) {
  // Integrity gate: raw reports are scored *before* reconstruction. A
  // failed report still flows on (reconstruction's own outlier rejection
  // decides what survives — the two stages must not disagree about the
  // clean-point stream), but the vessel's behaviour-change window is
  // quarantined so flagged kinematics never train the reference model.
  if (config_.enable_anomaly && !integrity_.Assess(report, events)) {
    anomaly_.Poison(report.mmsi);
  }
  points_scratch_.clear();
  rejections_scratch_.clear();
  reconstructor_.Ingest(report, &points_scratch_, &rejections_scratch_);
  for (const RejectedReport& rej : rejections_scratch_) {
    vessel_events_.IngestRejection(rej, events);
  }
  for (const ReconstructedPoint& rp : points_scratch_) {
    ProcessPoint(rp, events, pairs);
    latency_.Observe(ingest_time - rp.point.t);
  }
}

void PipelineShardCore::ProcessPoint(const ReconstructedPoint& rp,
                                     std::vector<DetectedEvent>* events,
                                     std::vector<PairObservation>* pairs) {
  coverage_.Observe(rp.mmsi, rp.point.t);

  // Synopsis stage.
  synopses_.Ingest(rp, &synopsis_log_);

  // Storage stage.
  (void)store_.Append(rp.mmsi, rp.point);

  // Historical archive staging: a pooled vector push per clean point, cut
  // into blocks at window close. Same clean points every arrangement, so
  // archives are partition-invariant.
  if (archive_ != nullptr) archive_->Stage(rp.mmsi, rp.point);

  // Enrichment side-stage (never blocks: drop-oldest backpressure) +
  // single-vessel event recognition.
  if (config_.enable_enrichment) {
    if (enrichment_suppressed_) {
      ++enrichment_suppressed_count_;
    } else {
      enrichment_stage_.Submit(rp);
    }
  }
  pairs->push_back(vessel_events_.Ingest(rp, events));

  // Behaviour-change detection over the clean point stream.
  if (config_.enable_anomaly) anomaly_.Ingest(rp, events);
}

void PipelineShardCore::Flush(Timestamp ingest_time,
                              std::vector<DetectedEvent>* events,
                              std::vector<PairObservation>* pairs) {
  points_scratch_.clear();
  rejections_scratch_.clear();
  reconstructor_.Flush(&points_scratch_, &rejections_scratch_);
  for (const RejectedReport& rej : rejections_scratch_) {
    vessel_events_.IngestRejection(rej, events);
  }
  for (const ReconstructedPoint& rp : points_scratch_) {
    ProcessPoint(rp, events, pairs);
    if (ingest_time != kInvalidTimestamp) {
      latency_.Observe(ingest_time - rp.point.t);
    }
  }
}

}  // namespace marlin
