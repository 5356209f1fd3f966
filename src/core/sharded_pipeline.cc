#include "core/sharded_pipeline.h"

#include <algorithm>

#include "common/fault.h"

namespace marlin {

ShardedPipeline::ShardedPipeline(const PipelineConfig& config,
                                 const Options& options,
                                 const ZoneDatabase* zones,
                                 const WeatherProvider* weather,
                                 const VesselRegistry* registry_a,
                                 const VesselRegistry* registry_b)
    : config_(config),
      router_(ResolveTopologyCount(options.num_shards)),
      zones_(zones),
      weather_(weather),
      registry_a_(registry_a),
      registry_b_(registry_b),
      pair_events_(config.events),
      dead_letters_(config.dead_letter_capacity) {
  rebuild_config_ = config_;
  rebuild_config_.archive.recover_on_open = false;
  const size_t n = router_.num_shards();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>(
        i, kShardQueueCapacity, config_.supervision.replay_max_messages);
    shard->core = std::make_unique<PipelineShardCore>(
        config_, /*async_enrichment=*/true, zones, weather, registry_a,
        registry_b, /*shard_index=*/i);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
}

ShardedPipeline::~ShardedPipeline() {
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ShardedPipeline::WorkerLoop(Shard* shard) {
  std::vector<ShardTask> batch;
  while (shard->queue.PopBatch(&batch, 8) > 0) {
    for (ShardTask& task : batch) ExecuteShardTask(shard, task);
    batch.clear();
  }
}

void ShardedPipeline::RunShardTask(Shard* shard, const ShardTask& task) {
  if (task.messages == nullptr) {
    MARLIN_FAULT_POINT("shard.worker.flush");
    shard->core->Flush(task.flush_ingest_time, task.events, task.pairs);
  } else {
    for (const RoutedMessage& m : *task.messages) {
      MARLIN_FAULT_POINT("shard.worker.message");
      m.ApplyTo(shard->core.get(), task.events, task.pairs);
    }
  }
  // Epoch close rides the worker thread (the archive's writer) and
  // precedes the latch, so once the coordinator observes the window
  // done, the new snapshot is published — readers joining after a
  // merged window always see that window's blocks.
  if (task.close_epoch) {
    MARLIN_FAULT_POINT("shard.worker.close_epoch");
    (void)shard->core->CloseArchiveEpoch();
  }
}

void ShardedPipeline::ExecuteShardTask(Shard* shard, ShardTask& task) {
  ShardSupervisor& sup = shard->sup;
  if (sup.degraded) {
    const size_t n = task.messages != nullptr ? task.messages->size() : 0;
    if (n > 0) {
      sup.stats.degraded_dropped_messages += n;
      dead_letters_.PushCount(DeadLetterReason::kDegradedDrop, n);
    }
    task.events->clear();
    task.pairs->clear();
    task.done->count_down();
    return;
  }
  // Buffer the raw input BEFORE executing: a mid-task crash leaves the core
  // half-advanced, so recovery must rebuild from scratch and replay the
  // full history *including* this task. A truncated history can never be
  // replayed (the next failure degrades), so it is no longer fed.
  if (!sup.replay.truncated()) {
    sup.replay.Append(WindowRecord{
        task.window_seq, task.messages == nullptr, task.flush_ingest_time,
        task.close_epoch,
        task.messages != nullptr ? *task.messages
                                 : std::vector<RoutedMessage>{}});
  }
  bool replayed = false;
  while (true) {
    std::string failure_site;
    try {
      if (!replayed) {
        RunShardTask(shard, task);
      } else {
        ReplayShardHistory(shard, task);
      }
      break;
    } catch (const FaultInjectedError& e) {
      failure_site = e.site();
    } catch (const std::exception& e) {
      failure_site = e.what();
    } catch (...) {
      failure_site = "unknown";
    }
    ++sup.stats.failures;
    ++sup.stats.failures_by_site[failure_site];
    if (sup.stats.restarts >= config_.supervision.restart_budget ||
        sup.replay.truncated()) {
      EnterDegradedMode(shard, task);
      break;
    }
    ++sup.stats.restarts;
    RebuildShardCore(shard);
    replayed = true;
  }
  // One enrichment hand-off per task: the task's points are still in the
  // stage's producer batch.
  shard->core->HandOffEnrichment();
  task.done->count_down();
}

void ShardedPipeline::RebuildShardCore(Shard* shard) {
  ShardSupervisor& sup = shard->sup;
  // Harvest what the dying core can still account for: points whose
  // enrichment was suppressed by earlier replays, plus enriched output that
  // was delivered to the drain buffer but never drained by the user (a
  // registered sink already received everything, so the drain is empty
  // then). Both are data at risk, not silently lost.
  sup.stats.enrichment_suppressed += shard->core->enrichment_suppressed_count();
  shard->core->FlushEnrichment();
  std::vector<EnrichedPoint> orphaned;
  shard->core->DrainEnriched(&orphaned);
  sup.stats.enrichment_suppressed += orphaned.size();
  // Destroy before constructing: the replacement reopens the same archive
  // partition, and two live LSM stores on one directory would fight over
  // the WAL.
  shard->core.reset();
  shard->core = std::make_unique<PipelineShardCore>(
      rebuild_config_, /*async_enrichment=*/true, zones_, weather_,
      registry_a_, registry_b_, shard->index);
  if (enriched_sink_) shard->core->SetEnrichedSink(enriched_sink_);
}

void ShardedPipeline::ReplayShardHistory(Shard* shard, ShardTask& task) {
  ShardSupervisor& sup = shard->sup;
  // Replayed points were already submitted to the (previous core's)
  // enrichment stage once; re-submitting would duplicate downstream
  // deliveries, so they skip the stage and are counted instead.
  shard->core->SetEnrichmentSuppressed(true);
  // The current task's slots may hold output from the failed attempt; its
  // replayed records regenerate them in full. (Finish's open-window +
  // flush tasks share slots AND a seq, so clearing once here is also
  // correct when the flush half crashes after the window half succeeded.)
  task.events->clear();
  task.pairs->clear();
  std::vector<DetectedEvent> stale_events;
  std::vector<PairObservation> stale_pairs;
  for (const WindowRecord& record : sup.replay.windows()) {
    const bool current = record.seq == task.window_seq;
    std::vector<DetectedEvent>* events =
        current ? task.events : &stale_events;
    std::vector<PairObservation>* pairs = current ? task.pairs : &stale_pairs;
    if (record.is_flush) {
      shard->core->Flush(record.flush_ingest_time, events, pairs);
    } else {
      for (const RoutedMessage& m : record.messages) {
        m.ApplyTo(shard->core.get(), events, pairs);
      }
    }
    if (record.close_epoch) (void)shard->core->CloseArchiveEpoch();
    ++sup.stats.windows_replayed;
    sup.stats.messages_replayed += record.messages.size();
    // Older windows' events/pairs were already merged and emitted once;
    // the replica output exists only to advance the core's state.
    stale_events.clear();
    stale_pairs.clear();
  }
  shard->core->SetEnrichmentSuppressed(false);
}

void ShardedPipeline::EnterDegradedMode(Shard* shard, ShardTask& task) {
  ShardSupervisor& sup = shard->sup;
  sup.degraded = true;
  ++sup.stats.degraded_workers;
  sup.replay.Clear();
  task.events->clear();
  task.pairs->clear();
  const size_t n = task.messages != nullptr ? task.messages->size() : 0;
  if (n > 0) {
    sup.stats.degraded_dropped_messages += n;
    dead_letters_.PushCount(DeadLetterReason::kDegradedDrop, n);
  }
}

std::unique_ptr<ShardedPipeline::Window> ShardedPipeline::AcquireWindow() {
  if (!window_pool_.empty()) {
    std::unique_ptr<Window> window = std::move(window_pool_.back());
    window_pool_.pop_back();
    return window;
  }
  auto window = std::make_unique<Window>();
  window->routed.resize(shards_.size());
  window->events.resize(shards_.size());
  window->pairs.resize(shards_.size());
  return window;
}

void ShardedPipeline::ReleaseWindow(std::unique_ptr<Window> window) {
  window->Reset();
  window_pool_.push_back(std::move(window));
}

void ShardedPipeline::DecodeAndRoute(const Event<std::string>& line) {
  // Assembly is stateful across the whole stream (fragment groups can span
  // windows) and therefore runs here, in arrival order; the stateless parse
  // runs beside it, on the same thread, while the shard workers process the
  // windows in flight. Rejected lines get the same classification — and
  // therefore the same ledger — as the sequential pipeline's ingest path.
  // The decoder overrides receiver time from TAG blocks; the stream-level
  // ingest timestamps (rate meter, end-to-end latency) use the original
  // arrival time.
  Window* window = open_.get();
  const Timestamp ingest_time = line.ingest_time;
  const ParsedLine parsed = AisDecoder::Parse(
      line.payload, ingest_time,
      config_.fragment_group_by_source ? line.source_id : 0);
  if (!parsed.ok) {
    window->rejects.push_back(
        DeadLetter{ingest_time, DeadLetterReason::kBadSentence, line.payload});
  }
  const uint64_t bad_payloads_before = decoder_.stats().bad_payloads;
  std::optional<AisMessage> msg = decoder_.Assemble(parsed);
  if (parsed.ok && decoder_.stats().bad_payloads > bad_payloads_before) {
    window->rejects.push_back(
        DeadLetter{ingest_time, DeadLetterReason::kBadPayload, line.payload});
  }
  if (!msg.has_value()) return;
  if (config_.enable_quality_assessment) quality_.Observe(*msg);

  if (const auto* sv = std::get_if<StaticVoyageData>(&*msg)) {
    window->routed[router_.ShardFor(sv->mmsi)].push_back(
        RoutedMessage{ingest_time, *sv});
    return;
  }
  const PositionReport* pr = PositionReportOf(*msg);
  if (pr == nullptr) return;
  metrics_.ingest_rate.Observe(ingest_time);
  window->routed[router_.ShardFor(pr->mmsi)].push_back(
      RoutedMessage{ingest_time, *pr});
}

uint64_t ShardedPipeline::CutWindow(size_t tasks_per_shard) {
  // The sequential pipeline refreshes these at window close; later lines
  // belong to the next, still open, window.
  metrics_.decoder = decoder_.stats();
  metrics_.quality = quality_.report();
  dead_letters_.PushHeld(&open_->rejects);
  open_->shards_done = std::make_unique<std::latch>(
      static_cast<ptrdiff_t>(shards_.size() * tasks_per_shard));
  open_lines_ = 0;
  open_first_ingest_ = kInvalidTimestamp;
  return ++next_window_seq_;
}

void ShardedPipeline::DispatchShardTasks(Window* window, uint64_t window_seq,
                                         bool close_epoch) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->queue.Push(
        ShardTask{&window->routed[s], &window->events[s], &window->pairs[s],
                  window->shards_done.get(), kInvalidTimestamp, close_epoch,
                  window_seq});
  }
}

void ShardedPipeline::MergeWindow(Window* window, bool flush_pairs,
                                  std::vector<DetectedEvent>* out) {
  window->shards_done->wait();

  size_t event_count = 0, pair_count = 0;
  for (const auto& shard_events : window->events) {
    event_count += shard_events.size();
  }
  for (const auto& shard_pairs : window->pairs) {
    pair_count += shard_pairs.size();
  }
  std::vector<DetectedEvent> events;
  std::vector<PairObservation> pairs;
  events.reserve(event_count);
  pairs.reserve(pair_count);
  for (auto& shard_events : window->events) {
    events.insert(events.end(),
                  std::make_move_iterator(shard_events.begin()),
                  std::make_move_iterator(shard_events.end()));
  }
  for (auto& shard_pairs : window->pairs) {
    pairs.insert(pairs.end(), std::make_move_iterator(shard_pairs.begin()),
                 std::make_move_iterator(shard_pairs.end()));
  }

  // The same canonical window close the sequential pipeline performs.
  pair_events_.CloseWindow(&pairs, flush_pairs, &events);
  FireAlerts(events, &metrics_.alerts, alert_callback_);
  // Metrics are NOT refreshed here: when this window is merged the shards
  // may already be processing later ones, and their stats are only safe
  // to read at a quiescent point (end of IngestBatch / Finish).
  if (out->empty()) {
    *out = std::move(events);
  } else {
    out->insert(out->end(), std::make_move_iterator(events.begin()),
                std::make_move_iterator(events.end()));
  }
}

void ShardedPipeline::MergeOldest(std::vector<DetectedEvent>* out) {
  std::unique_ptr<Window> oldest = std::move(in_flight_.front());
  in_flight_.erase(in_flight_.begin());
  MergeWindow(oldest.get(), /*flush_pairs=*/false, out);
  ReleaseWindow(std::move(oldest));
}

void ShardedPipeline::RefreshMetrics() {
  // `decoder` and `quality` are snapshotted by CutWindow.
  metrics_.reconstruction = {};
  metrics_.synopses = {};
  metrics_.events = {};
  metrics_.enrichment = {};
  metrics_.enrichment_stage = {};
  metrics_.anomaly = {};
  metrics_.end_to_end_latency = LatencyReservoir();
  for (const auto& shard : shards_) {
    metrics_.reconstruction.Merge(shard->core->reconstruction_stats());
    metrics_.synopses.Merge(shard->core->synopses_stats());
    metrics_.events.Merge(shard->core->vessel_event_stats());
    metrics_.anomaly.Merge(shard->core->anomaly_stage_stats());
    // Engine counters and stage counters are snapshotted under their own
    // locks, so this is safe even while enrichment workers lag behind the
    // merged windows; Finish flushes the stages first, making the final
    // refresh complete.
    metrics_.enrichment.Merge(shard->core->enrichment_stats());
    metrics_.enrichment_stage.Merge(shard->core->enrichment_stage_stats());
    metrics_.end_to_end_latency.Merge(shard->core->end_to_end_latency());
  }
  metrics_.events.events_out += pair_events_.stats().events_out;
  metrics_.archive = {};
  for (const auto& shard : shards_) {
    if (shard->core->archive() != nullptr) {
      metrics_.archive.Merge(shard->core->archive()->stats());
    }
  }
  metrics_.shard_hop = {};
  for (const auto& shard : shards_) {
    metrics_.shard_hop.Merge(shard->queue.stats());
  }
  // Health roll-up. Supervisor stats are worker-owned; this runs at the
  // same quiescent points as the per-core merges above.
  metrics_.health = PipelineHealth{};
  for (const auto& shard : shards_) {
    metrics_.health.supervisor.Merge(shard->sup.stats);
    metrics_.health.supervisor.enrichment_suppressed +=
        shard->core->enrichment_suppressed_count();
  }
  metrics_.health.dead_letter = dead_letters_.stats();
  metrics_.health.enrichment_transform_failures =
      metrics_.enrichment_stage.transform_failed;
  metrics_.health.archive_put_failures = metrics_.archive.put_failures;
  metrics_.health.archive_points_at_risk = metrics_.archive.points_at_risk;
}

std::vector<DetectedEvent> ShardedPipeline::IngestBatch(
    std::span<const Event<std::string>> nmea) {
  std::vector<DetectedEvent> all;
  bool merged = false;
  // Arrival order: the newest line is the span's last (same value the
  // sequential pipeline tracks per line).
  if (!nmea.empty()) last_ingest_ = nmea.back().ingest_time;
  // Each line is decoded into the open window on arrival, and the window is
  // cut exactly where the sequential pipeline would close it
  // (WindowMustClose over line count + ingest time) and dispatched at once.
  // The coordinator merges a window (pair stage + re-sequencing) only when
  // the in-flight bound is reached, and merges the rest at the end of the
  // call, so the shards run up to kShardQueueCapacity windows while it
  // decodes the next.
  for (const Event<std::string>& line : nmea) {
    if (!open_) open_ = AcquireWindow();
    if (open_lines_ == 0) open_first_ingest_ = line.ingest_time;
    DecodeAndRoute(line);
    if (!WindowMustClose(config_, ++open_lines_, open_first_ingest_,
                         line.ingest_time)) {
      continue;
    }
    const uint64_t window_seq = CutWindow(/*tasks_per_shard=*/1);
    if (in_flight_.size() == kShardQueueCapacity) {
      MergeOldest(&all);
      merged = true;
    }
    DispatchShardTasks(open_.get(), window_seq);
    in_flight_.push_back(std::move(open_));
  }
  while (!in_flight_.empty()) {
    MergeOldest(&all);
    merged = true;
  }
  // Quiescent: every dispatched window has been merged. A call that closed
  // no window changed nothing metrics() describes.
  if (merged) RefreshMetrics();
  return all;
}

std::vector<DetectedEvent> ShardedPipeline::Run(
    const std::vector<Event<std::string>>& nmea) {
  std::vector<DetectedEvent> all = IngestBatch(nmea);
  auto tail = Finish();
  all.insert(all.end(), tail.begin(), tail.end());
  return all;
}

std::vector<DetectedEvent> ShardedPipeline::Finish() {
  // Nothing is in flight between calls. Each shard gets the open window's
  // task (if it holds any lines) plus a flush task, queued back-to-back so
  // both write the shard's slots in order. The two tasks share one window
  // sequence — they are one window, and a supervised replay must route both
  // records' output into the shared slots.
  if (!open_) open_ = AcquireWindow();
  const bool has_lines = open_lines_ > 0;
  const uint64_t window_seq = CutWindow(/*tasks_per_shard=*/has_lines ? 2 : 1);
  if (has_lines) {
    // Open window + flush are ONE window: the flush task below closes the
    // archive epoch for both, matching the sequential pipeline's single
    // Finish-time window close.
    DispatchShardTasks(open_.get(), window_seq, /*close_epoch=*/false);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->queue.Push(
        ShardTask{nullptr, &open_->events[s], &open_->pairs[s],
                  open_->shards_done.get(), last_ingest_,
                  /*close_epoch=*/true, window_seq});
  }
  std::vector<DetectedEvent> all;
  MergeWindow(open_.get(), /*flush_pairs=*/true, &all);
  ReleaseWindow(std::move(open_));
  // Shard workers are quiescent now; drain the enrichment side-stages so
  // the enriched stream (and its counters) are complete before the final
  // metric refresh.
  FlushEnrichment();
  RefreshMetrics();
  return all;
}

void ShardedPipeline::SetEnrichedSink(EnrichedSink sink) {
  enriched_sink_ = std::move(sink);  // kept: rebuilt cores re-install it
  for (auto& shard : shards_) shard->core->SetEnrichedSink(enriched_sink_);
}

size_t ShardedPipeline::DrainEnriched(std::vector<EnrichedPoint>* out) {
  size_t n = 0;
  for (auto& shard : shards_) n += shard->core->DrainEnriched(out);
  return n;
}

size_t ShardedPipeline::DrainEnrichedOrdered(std::vector<EnrichedPoint>* out) {
  // Sorting the concatenated drains equals merging them: reconstruction
  // emits one point per (vessel, timestamp) and vessels never span shards,
  // so (t, MMSI) keys are unique across shards, and the stable sort keeps
  // each shard's delivery order for anything else.
  const size_t base = out->size();
  DrainEnriched(out);
  return SortDrainedEnriched(out, base);
}

void ShardedPipeline::FlushEnrichment() {
  for (auto& shard : shards_) shard->core->FlushEnrichment();
}

std::vector<const ShardArchive*> ShardedPipeline::archive_view() const {
  std::vector<const ShardArchive*> partitions;
  partitions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    partitions.push_back(shard->core->archive());
  }
  return partitions;
}

PartitionedTrajectoryView ShardedPipeline::store_view() const {
  std::vector<const TrajectoryStore*> partitions;
  partitions.reserve(shards_.size());
  for (const auto& shard : shards_) partitions.push_back(&shard->core->store());
  return PartitionedTrajectoryView(std::move(partitions));
}

CoverageModel ShardedPipeline::MergedCoverage() const {
  CoverageModel merged(config_.coverage);
  for (const auto& shard : shards_) merged.Merge(shard->core->coverage());
  return merged;
}

std::vector<CriticalPoint> ShardedPipeline::MergedSynopsisLog() const {
  std::vector<CriticalPoint> merged;
  for (const auto& shard : shards_) {
    const auto& log = shard->core->synopsis_log();
    merged.insert(merged.end(), log.begin(), log.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.point.t != b.point.t) return a.point.t < b.point.t;
                     if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
                     return static_cast<int>(a.type) < static_cast<int>(b.type);
                   });
  return merged;
}

}  // namespace marlin
