#ifndef MARLIN_BENCH_E2E_DECOMPOSITION_H_
#define MARLIN_BENCH_E2E_DECOMPOSITION_H_

/// \file decomposition.h
/// \brief The traced run: the public calls `MaritimePipeline` composes
/// (core/pipeline.cc), made from the benchmark so each call can be timed
/// from outside. Same stages, same order, same window cuts — so the event
/// digest equals the sequential and the sharded pipelines'. Dead-letter
/// bookkeeping and the per-window metric refresh are left out: they do not
/// change the event stream, and their cost shows in
/// `core.coordinator.overhead_s`.
///
/// `kTimed = false` compiles every clock read away; the difference between
/// the two instantiations' wall times is the tracing overhead.

#include <array>
#include <span>
#include <vector>

#include "ais/codec.h"
#include "ais/validation.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "e2e.h"

namespace marlin::e2e {

/// Timed calls. All are leaves (no span nests in another), so each
/// layer's self time is the sum of its call durations.
enum Layer : size_t {
  kParse,
  kAssemble,
  kQuality,
  kStatic,
  kPosition,
  kWindowCheck,
  kCloseEpoch,
  kPairClose,
  kFlush,
  kLayerCount,
};

inline constexpr const char* kLayerMetric[kLayerCount] = {
    "ais.parse.self_s",           "ais.assemble.self_s",
    "ais.quality.self_s",         "core.shard.static.self_s",
    "core.shard.position.self_s", "core.window.check.self_s",
    "storage.archive.close_epoch.self_s", "core.pair.close_window.self_s",
    "core.shard.flush.self_s",
};

template <bool kTimed>
class Decomposition {
 public:
  Decomposition(const PipelineConfig& config, const ZoneDatabase* zones,
                const WeatherProvider* weather)
      : config_(config),
        core_(config_, /*async_enrichment=*/false, zones, weather, nullptr,
              nullptr),
        pair_events_(config_.events) {
    // A consumer for the enriched stream, as in the measured passes.
    core_.SetEnrichedSink([this](const EnrichedPoint&) { ++enriched_; });
  }

  Decomposition(const Decomposition&) = delete;
  Decomposition& operator=(const Decomposition&) = delete;

  void Ingest(std::span<const Event<std::string>> lines) {
    for (const Event<std::string>& ev : lines) IngestLine(ev);
  }

  void Finish() {
    Span(kFlush, [&] {
      core_.Flush(last_ingest_, &window_events_, &window_pairs_);
      core_.FlushEnrichment();
    });
    CloseWindow(/*flush_pairs=*/true);
  }

  uint64_t digest() const { return digest_.value(); }
  const std::array<double, kLayerCount>& layer_seconds() const {
    return layer_s_;
  }
  /// Duration of every archive epoch close, in call order.
  const std::vector<double>& close_epoch_seconds() const {
    return close_epoch_s_;
  }

 private:
  template <typename F>
  void Span(Layer layer, F&& body) {
    if constexpr (kTimed) {
      const auto t0 = SteadyClock::now();
      body();
      const double s = SecondsBetween(t0, SteadyClock::now());
      layer_s_[layer] += s;
      if (layer == kCloseEpoch) close_epoch_s_.push_back(s);
    } else {
      body();
    }
  }

  void IngestLine(const Event<std::string>& ev) {
    if (window_lines_ == 0) window_first_ingest_ = ev.ingest_time;
    last_ingest_ = ev.ingest_time;
    ParsedLine parsed;
    Span(kParse, [&] { parsed = AisDecoder::Parse(ev.payload, ev.ingest_time); });
    std::optional<AisMessage> msg;
    Span(kAssemble, [&] { msg = decoder_.Assemble(parsed); });
    if (msg.has_value()) {
      if (config_.enable_quality_assessment) {
        Span(kQuality, [&] { quality_.Observe(*msg); });
      }
      if (const auto* sv = std::get_if<StaticVoyageData>(&*msg)) {
        Span(kStatic, [&] { core_.ProcessStatic(*sv); });
      } else if (const PositionReport* pr = PositionReportOf(*msg)) {
        Span(kPosition, [&] {
          core_.ProcessPosition(*pr, ev.ingest_time, &window_events_,
                                &window_pairs_);
        });
      }
    }
    ++window_lines_;
    bool close = false;
    Span(kWindowCheck, [&] {
      close = WindowMustClose(config_, window_lines_, window_first_ingest_,
                              ev.ingest_time);
    });
    if (close) CloseWindow(/*flush_pairs=*/false);
  }

  void CloseWindow(bool flush_pairs) {
    Span(kCloseEpoch, [&] { (void)core_.CloseArchiveEpoch(); });
    Span(kPairClose, [&] {
      pair_events_.CloseWindow(&window_pairs_, flush_pairs, &window_events_);
    });
    MixEvents(window_events_, &digest_);
    window_events_.clear();
    window_lines_ = 0;
  }

  const PipelineConfig config_;
  AisDecoder decoder_;
  QualityAssessor quality_;
  PipelineShardCore core_;
  PairEventEngine pair_events_;
  std::vector<DetectedEvent> window_events_;
  std::vector<PairObservation> window_pairs_;
  size_t window_lines_ = 0;
  Timestamp window_first_ingest_ = kInvalidTimestamp;
  Timestamp last_ingest_ = kInvalidTimestamp;
  Fnv1a digest_;
  uint64_t enriched_ = 0;
  std::array<double, kLayerCount> layer_s_{};
  std::vector<double> close_epoch_s_;
};

}  // namespace marlin::e2e

#endif  // MARLIN_BENCH_E2E_DECOMPOSITION_H_
