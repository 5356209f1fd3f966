// Sharded-pipeline tests: determinism against the sequential reference,
// partition-aware storage views, metric merging, shard routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "context/registry.h"
#include "context/zones.h"
#include "context/weather.h"
#include "core/pipeline.h"
#include "core/sharded_pipeline.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "storage/trajectory_store.h"
#include "stream/shard_router.h"

namespace marlin {
namespace {

ScenarioOutput MakeScenario(uint64_t seed, bool perfect_reception) {
  static World world = World::Basin();
  ScenarioConfig config;
  config.seed = seed;
  config.duration = 90 * kMillisPerMinute;
  config.transit_vessels = 14;
  config.fishing_vessels = 4;
  config.loiter_vessels = 2;
  config.rendezvous_pairs = 2;
  config.dark_vessels = 2;
  config.spoof_identity_vessels = 1;
  config.spoof_teleport_vessels = 1;
  config.perfect_reception = perfect_reception;
  return GenerateScenario(world, config);
}

const World& SharedWorld() {
  static World world = World::Basin();
  return world;
}

auto EventKey(const DetectedEvent& ev) {
  return std::make_tuple(ev.detected_at, ev.vessel_a, ev.vessel_b,
                         static_cast<int>(ev.type), ev.start, ev.end,
                         ev.zone_id, ev.severity, ev.where.lat, ev.where.lon);
}

void ExpectSameEvents(const std::vector<DetectedEvent>& a,
                      const std::vector<DetectedEvent>& b,
                      bool compare_order) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<decltype(EventKey(a.front()))> ka, kb;
  for (const auto& ev : a) ka.push_back(EventKey(ev));
  for (const auto& ev : b) kb.push_back(EventKey(ev));
  if (!compare_order) {
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
  }
  for (size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i], kb[i]) << "event mismatch at index " << i;
  }
}

PipelineConfig TestConfig() {
  PipelineConfig pc;
  pc.window_lines = 512;  // several windows per scenario
  return pc;
}

// --- Determinism ------------------------------------------------------------

TEST(ShardedPipelineTest, OneShardReproducesSequentialExactly) {
  const ScenarioOutput scenario = MakeScenario(901, /*perfect_reception=*/false);
  const PipelineConfig pc = TestConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  const auto seq_events = sequential.Run(scenario.nmea);

  ShardedPipeline::Options opts;
  opts.num_shards = 1;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  const auto shard_events = sharded.Run(scenario.nmea);

  ASSERT_GT(seq_events.size(), 0u);
  ExpectSameEvents(seq_events, shard_events, /*compare_order=*/true);

  // Stage counters agree bit-for-bit.
  const PipelineMetrics& ms = sequential.metrics();
  const PipelineMetrics& mp = sharded.metrics();
  EXPECT_EQ(ms.decoder.lines_in, mp.decoder.lines_in);
  EXPECT_EQ(ms.decoder.messages_out, mp.decoder.messages_out);
  EXPECT_EQ(ms.decoder.bad_sentences, mp.decoder.bad_sentences);
  EXPECT_EQ(ms.decoder.pending_fragments, mp.decoder.pending_fragments);
  EXPECT_EQ(ms.reconstruction.points_out, mp.reconstruction.points_out);
  EXPECT_EQ(ms.reconstruction.late_dropped, mp.reconstruction.late_dropped);
  EXPECT_EQ(ms.synopses.points_in, mp.synopses.points_in);
  EXPECT_EQ(ms.synopses.points_out, mp.synopses.points_out);
  EXPECT_EQ(ms.events.points_in, mp.events.points_in);
  EXPECT_EQ(ms.events.events_out, mp.events.events_out);
  EXPECT_EQ(ms.alerts, mp.alerts);
  EXPECT_EQ(ms.ingest_rate.count(), mp.ingest_rate.count());
  EXPECT_EQ(ms.end_to_end_latency.count(), mp.end_to_end_latency.count());
}

TEST(ShardedPipelineTest, ManyShardsProduceSameEventMultiset) {
  const ScenarioOutput scenario = MakeScenario(902, /*perfect_reception=*/false);
  const PipelineConfig pc = TestConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  const auto seq_events = sequential.Run(scenario.nmea);
  ASSERT_GT(seq_events.size(), 0u);

  for (size_t num_shards : {2, 3, 4, 8}) {
    ShardedPipeline::Options opts;
    opts.num_shards = num_shards;
    ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr,
                            nullptr, nullptr);
    const auto shard_events = sharded.Run(scenario.nmea);
    ExpectSameEvents(seq_events, shard_events, /*compare_order=*/false);

    const PipelineMetrics& ms = sequential.metrics();
    const PipelineMetrics& mp = sharded.metrics();
    EXPECT_EQ(ms.decoder.messages_out, mp.decoder.messages_out);
    EXPECT_EQ(ms.reconstruction.points_out, mp.reconstruction.points_out);
    EXPECT_EQ(ms.synopses.points_out, mp.synopses.points_out);
    EXPECT_EQ(ms.events.events_out, mp.events.events_out);
    EXPECT_EQ(ms.alerts, mp.alerts);
    EXPECT_EQ(ms.end_to_end_latency.count(), mp.end_to_end_latency.count());
  }
}

// Hop conservation at the post-Finish quiescent point: every command pushed
// to a shard was popped, and pops were accounted to batch buckets. The hop
// is window-granular — one task per shard per window cut, plus `Finish`'s
// open-window task (when it holds lines) and its flush task — and the
// in-flight bound means a push never waits for room.
TEST(ShardedPipelineTest, HopCountersAreConserved) {
  const ScenarioOutput scenario = MakeScenario(903, /*perfect_reception=*/false);
  const PipelineConfig pc = TestConfig();
  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline pipeline(pc, opts, &SharedWorld().zones(), nullptr,
                           nullptr, nullptr);
  ASSERT_GT(pipeline.Run(scenario.nmea).size(), 0u);

  uint64_t cuts = 0;
  size_t open_lines = 0;
  Timestamp first_ingest = kInvalidTimestamp;
  for (const Event<std::string>& line : scenario.nmea) {
    if (open_lines == 0) first_ingest = line.ingest_time;
    if (WindowMustClose(pc, ++open_lines, first_ingest, line.ingest_time)) {
      ++cuts;
      open_lines = 0;
    }
  }
  ASSERT_GT(cuts, 0u);
  const uint64_t tasks_per_shard = cuts + (open_lines > 0 ? 2 : 1);

  const QueueHopStats& hop = pipeline.metrics().shard_hop;
  EXPECT_EQ(hop.pushed, opts.num_shards * tasks_per_shard);
  EXPECT_EQ(hop.pushed, hop.popped);
  EXPECT_EQ(hop.push_waits, 0u);
  EXPECT_GT(hop.batches(), 0u);
  EXPECT_GT(hop.depth_high_water, 0u);
}

TEST(ShardedPipelineTest, SplitBatchesMatchSingleBatch) {
  // Window boundaries are defined by line count, not batch boundaries:
  // feeding the stream in arbitrary chunks must not change the output.
  const ScenarioOutput scenario = MakeScenario(903, /*perfect_reception=*/true);
  const PipelineConfig pc = TestConfig();

  ShardedPipeline::Options opts;
  opts.num_shards = 3;
  ShardedPipeline one_batch(pc, opts, &SharedWorld().zones(), nullptr,
                            nullptr, nullptr);
  const auto whole = one_batch.Run(scenario.nmea);

  ShardedPipeline split(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                        nullptr);
  std::vector<DetectedEvent> pieced;
  std::span<const Event<std::string>> all(scenario.nmea);
  // Deliberately misaligned chunk sizes.
  for (size_t off = 0; off < all.size();) {
    const size_t take = std::min<size_t>(737, all.size() - off);
    auto part = split.IngestBatch(all.subspan(off, take));
    pieced.insert(pieced.end(), part.begin(), part.end());
    off += take;
  }
  auto tail = split.Finish();
  pieced.insert(pieced.end(), tail.begin(), tail.end());

  ExpectSameEvents(whole, pieced, /*compare_order=*/true);
}

TEST(ShardedPipelineTest, TimeCapClosesWindowsOnLowRateFeeds) {
  // With a line budget that never fills, the ingest-time cap must still
  // close windows so alerts are not deferred to Finish.
  const ScenarioOutput scenario = MakeScenario(905, /*perfect_reception=*/true);
  PipelineConfig pc;
  pc.window_lines = 1u << 20;  // effectively line-unbounded
  pc.window_time_ms = Minutes(1);

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  size_t seq_before_finish = 0;
  for (const auto& ev : scenario.nmea) {
    seq_before_finish += sequential.IngestBatch(std::span(&ev, 1)).size();
  }
  const auto seq_tail = sequential.Finish();
  EXPECT_GT(seq_before_finish, 0u) << "no window closed before Finish";

  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  const size_t sharded_before_finish =
      sharded.IngestBatch(scenario.nmea).size();
  const auto sharded_tail = sharded.Finish();
  EXPECT_EQ(sharded_before_finish, seq_before_finish);
  EXPECT_EQ(sharded_tail.size(), seq_tail.size());
}

TEST(ShardedPipelineTest, OpenWindowMetricsMatchSequential) {
  // metrics() describes the closed windows on both pipelines: the sharded
  // coordinator decodes a window's lines only once it closes, and the
  // sequential pipeline refreshes its snapshot at each window close. So
  // after a batch that leaves a window open, both report the same non-zero
  // decoder and dead-letter counters, and the open window's reject surfaces
  // on both at Finish.
  const ScenarioOutput scenario = MakeScenario(906, /*perfect_reception=*/true);
  PipelineConfig pc;
  pc.window_lines = 512;
  pc.window_time_ms = 0;  // only the line budget closes windows
  std::vector<Event<std::string>> batch(scenario.nmea.begin(),
                                        scenario.nmea.begin() + 800);
  for (const size_t i : {100, 600}) {  // one reject per window
    std::string& bad = batch[i].payload;
    bad.back() = bad.back() == '0' ? '1' : '0';  // flipped checksum digit
  }

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  const size_t bad_sentence =
      static_cast<size_t>(DeadLetterReason::kBadSentence);
  const auto expect_same = [&](uint64_t lines, uint64_t rejects) {
    const PipelineMetrics& seq = sequential.metrics();
    const PipelineMetrics& shd = sharded.metrics();
    EXPECT_EQ(seq.decoder.lines_in, lines);
    EXPECT_EQ(seq.decoder.bad_sentences, rejects);
    EXPECT_EQ(seq.health.dead_letter.by_reason[bad_sentence], rejects);
    EXPECT_GT(seq.decoder.messages_out, 0u);
    EXPECT_EQ(shd.decoder.lines_in, seq.decoder.lines_in);
    EXPECT_EQ(shd.decoder.messages_out, seq.decoder.messages_out);
    EXPECT_EQ(shd.decoder.bad_sentences, seq.decoder.bad_sentences);
    EXPECT_EQ(shd.decoder.bad_payloads, seq.decoder.bad_payloads);
    EXPECT_EQ(shd.decoder.pending_fragments, seq.decoder.pending_fragments);
    EXPECT_EQ(shd.health.dead_letter.total(), seq.health.dead_letter.total());
    EXPECT_EQ(shd.health.dead_letter.by_reason[bad_sentence],
              seq.health.dead_letter.by_reason[bad_sentence]);
  };

  sequential.IngestBatch(batch);
  sharded.IngestBatch(batch);
  expect_same(/*lines=*/512, /*rejects=*/1);  // the second window is open
  sequential.Finish();
  sharded.Finish();
  expect_same(/*lines=*/800, /*rejects=*/2);
}

// The counters metrics() refreshes at a window close, by name, so that a
// mismatch names its field. `ingest_rate` is left out: both pipelines
// observe it per line on arrival, not at the close.
std::map<std::string, uint64_t> ClosedWindowCounters(const PipelineMetrics& m) {
  std::map<std::string, uint64_t> c = {
      {"decoder.lines_in", m.decoder.lines_in},
      {"decoder.messages_out", m.decoder.messages_out},
      {"decoder.bad_sentences", m.decoder.bad_sentences},
      {"decoder.bad_payloads", m.decoder.bad_payloads},
      {"decoder.unsupported_types", m.decoder.unsupported_types},
      {"decoder.pending_fragments", m.decoder.pending_fragments},
      {"quality.static_messages", m.quality.static_messages},
      {"quality.position_messages", m.quality.position_messages},
      {"quality.invalid_positions", m.quality.invalid_positions},
      {"reconstruction.reports_in", m.reconstruction.reports_in},
      {"reconstruction.points_out", m.reconstruction.points_out},
      {"reconstruction.late_dropped", m.reconstruction.late_dropped},
      {"synopses.points_in", m.synopses.points_in},
      {"synopses.points_out", m.synopses.points_out},
      {"events.points_in", m.events.points_in},
      {"events.events_out", m.events.events_out},
      {"alerts", m.alerts},
      {"end_to_end_latency.count", m.end_to_end_latency.count()},
      {"dead_letter.enqueued", m.health.dead_letter.enqueued},
      {"dead_letter.counted_only", m.health.dead_letter.counted_only},
      {"dead_letter.depth", m.health.dead_letter.depth},
  };
  for (size_t r = 0; r < kDeadLetterReasonCount; ++r) {
    c["dead_letter.by_reason." + std::to_string(r)] =
        m.health.dead_letter.by_reason[r];
  }
  return c;
}

// A scenario salted with rejected lines of both kinds the coordinator
// classifies: mangled sentences and flipped checksums.
std::vector<Event<std::string>> SaltedStream(uint64_t seed) {
  const ScenarioOutput scenario =
      MakeScenario(seed, /*perfect_reception=*/false);
  std::vector<Event<std::string>> salted;
  for (size_t i = 0; i < scenario.nmea.size(); ++i) {
    salted.push_back(scenario.nmea[i]);
    if (i % 97 == 0) {
      Event<std::string> bad = scenario.nmea[i];
      bad.payload = "!AIVDM,mangled-" + std::to_string(i);
      salted.push_back(std::move(bad));
    } else if (i % 89 == 0) {
      Event<std::string> bad = scenario.nmea[i];
      bad.payload.back() = bad.payload.back() == '0' ? '1' : '0';
      salted.push_back(std::move(bad));
    }
  }
  return salted;
}

// Drains both pipelines' dead-letter queues and expects the same records
// in the same order. Returns how many each drained.
size_t ExpectSameDrainedDeadLetters(MaritimePipeline* sequential,
                                    ShardedPipeline* sharded) {
  std::vector<DeadLetter> seq_letters, shard_letters;
  sequential->DrainDeadLetters(&seq_letters);
  sharded->DrainDeadLetters(&shard_letters);
  EXPECT_EQ(seq_letters.size(), shard_letters.size());
  for (size_t i = 0; i < std::min(seq_letters.size(), shard_letters.size());
       ++i) {
    EXPECT_EQ(seq_letters[i].reason, shard_letters[i].reason) << i;
    EXPECT_EQ(seq_letters[i].payload, shard_letters[i].payload) << i;
    EXPECT_EQ(seq_letters[i].ingest_time, shard_letters[i].ingest_time) << i;
  }
  return seq_letters.size();
}

TEST(ShardedPipelineTest, BatchSizesMatchSequentialCallForCall) {
  // The coordinator decodes each line on arrival and keeps several windows
  // in flight; none of that may show through the API. Whatever the batch
  // size, every call returns the events the sequential pipeline's same call
  // returns, and leaves the same closed-window metrics and the same
  // dead-letter ledger: both pipelines hold an open window's rejects until
  // it closes, so a drain after any call returns the same records.
  const std::vector<Event<std::string>> stream = SaltedStream(907);
  const PipelineConfig pc = TestConfig();
  for (const size_t num_shards : {1, 3}) {
    for (const size_t batch : {1, 7, 219, 1024}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " batch=" + std::to_string(batch));
      MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr,
                                  nullptr, nullptr);
      ShardedPipeline::Options opts;
      opts.num_shards = num_shards;
      ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr,
                              nullptr, nullptr);
      std::span<const Event<std::string>> all(stream);
      size_t seq_total = 0, calls_with_events = 0, letters = 0;
      for (size_t off = 0; off < all.size(); off += batch) {
        const auto part = all.subspan(off, std::min(batch, all.size() - off));
        const auto seq_events = sequential.IngestBatch(part);
        const auto shard_events = sharded.IngestBatch(part);
        ExpectSameEvents(seq_events, shard_events, /*compare_order=*/true);
        ASSERT_EQ(ClosedWindowCounters(sharded.metrics()),
                  ClosedWindowCounters(sequential.metrics()))
            << "after the call at line " << off;
        ASSERT_EQ(sharded.metrics().ingest_rate.count(),
                  sequential.metrics().ingest_rate.count());
        ASSERT_EQ(sharded.metrics().health.dead_letter.evicted,
                  sequential.metrics().health.dead_letter.evicted);
        letters += ExpectSameDrainedDeadLetters(&sequential, &sharded);
        ASSERT_FALSE(HasFailure()) << "after the call at line " << off;
        seq_total += seq_events.size();
        calls_with_events += !seq_events.empty();
      }
      EXPECT_GT(seq_total, 0u);
      EXPECT_GT(calls_with_events, 1u);
      ExpectSameEvents(sequential.Finish(), sharded.Finish(),
                       /*compare_order=*/true);
      EXPECT_EQ(ClosedWindowCounters(sharded.metrics()),
                ClosedWindowCounters(sequential.metrics()));
      letters += ExpectSameDrainedDeadLetters(&sequential, &sharded);
      EXPECT_GT(letters, 0u);
      const DeadLetterStats& ledger = sequential.metrics().health.dead_letter;
      EXPECT_EQ(letters + ledger.evicted, ledger.enqueued);
    }
  }
}

TEST(ShardedPipelineTest, BatchThatClosesNoWindowLeavesMetricsUnchanged) {
  const std::vector<Event<std::string>> stream = SaltedStream(908);
  PipelineConfig pc;
  pc.window_lines = 512;
  pc.window_time_ms = 0;  // only the line budget closes windows
  ASSERT_GT(stream.size(), 1500u);
  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  std::span<const Event<std::string>> all(stream);
  sharded.IngestBatch(all.subspan(0, 1100));  // two windows, one open
  const PipelineMetrics before = sharded.metrics();
  ASSERT_EQ(before.decoder.lines_in, 1024u);
  ASSERT_GT(before.health.dead_letter.total(), 0u);

  // 1100 + 400 lines stay short of the third window's cut at 1536, and
  // the range holds rejects: they wait for the cut.
  EXPECT_TRUE(sharded.IngestBatch(all.subspan(1100, 400)).empty());
  const PipelineMetrics& after = sharded.metrics();
  EXPECT_EQ(ClosedWindowCounters(after), ClosedWindowCounters(before));
  EXPECT_EQ(after.enrichment.points, before.enrichment.points);
  EXPECT_EQ(after.enrichment_stage.processed,
            before.enrichment_stage.processed);
  EXPECT_EQ(after.shard_hop.pushed, before.shard_hop.pushed);
  EXPECT_EQ(after.shard_hop.popped, before.shard_hop.popped);
  std::vector<DeadLetter> letters;
  sharded.DrainDeadLetters(&letters);
  EXPECT_EQ(letters.size(), before.health.dead_letter.enqueued);
}

// --- Partitioned storage ----------------------------------------------------

TEST(ShardedPipelineTest, PartitionedStoreViewMatchesSequentialStore) {
  const ScenarioOutput scenario = MakeScenario(904, /*perfect_reception=*/true);
  const PipelineConfig pc = TestConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  sequential.Run(scenario.nmea);

  ShardedPipeline::Options opts;
  opts.num_shards = 4;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  sharded.Run(scenario.nmea);

  const TrajectoryStore& seq_store = sequential.store();
  const PartitionedTrajectoryView view = sharded.store_view();

  EXPECT_EQ(view.partition_count(), 4u);
  EXPECT_EQ(view.VesselCount(), seq_store.VesselCount());
  EXPECT_EQ(view.PointCount(), seq_store.PointCount());

  // Work actually spread across partitions.
  size_t populated = 0;
  for (size_t i = 0; i < view.partition_count(); ++i) {
    if (view.partition(i).VesselCount() > 0) ++populated;
  }
  EXPECT_GE(populated, 2u);

  // Per-vessel routing: histories identical.
  auto vessels = view.Vessels();
  ASSERT_FALSE(vessels.empty());
  auto seq_vessels = seq_store.Vessels();
  std::sort(seq_vessels.begin(), seq_vessels.end());
  EXPECT_EQ(vessels, seq_vessels);
  for (uint32_t mmsi : vessels) {
    auto seq_traj = seq_store.GetTrajectory(mmsi);
    auto sharded_traj = view.GetTrajectory(mmsi);
    ASSERT_TRUE(seq_traj.ok());
    ASSERT_TRUE(sharded_traj.ok());
    ASSERT_EQ((*seq_traj)->points.size(), (*sharded_traj)->points.size());
  }

  // Merged spatial queries agree with the sequential store.
  const GeoPoint probe = (*seq_store.GetTrajectory(vessels[0]))->points[0]
                             .position;
  auto seq_near = seq_store.NearestLive(probe, 5);
  auto view_near = view.NearestLive(probe, 5);
  ASSERT_EQ(seq_near.size(), view_near.size());
  for (size_t i = 0; i < seq_near.size(); ++i) {
    EXPECT_EQ(seq_near[i].first, view_near[i].first);
    EXPECT_DOUBLE_EQ(seq_near[i].second, view_near[i].second);
  }

  // Merged coverage answers like the sequential model.
  const CoverageModel merged = sharded.MergedCoverage();
  for (uint32_t mmsi : vessels) {
    EXPECT_EQ(merged.DarkFraction(mmsi),
              sequential.coverage().DarkFraction(mmsi));
  }

  // Merged synopsis log is the sequential log, canonically ordered.
  auto seq_log = sequential.synopsis_log();
  auto sharded_log = sharded.MergedSynopsisLog();
  ASSERT_EQ(seq_log.size(), sharded_log.size());
  std::stable_sort(seq_log.begin(), seq_log.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     if (a.point.t != b.point.t) return a.point.t < b.point.t;
                     if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
                     return static_cast<int>(a.type) < static_cast<int>(b.type);
                   });
  for (size_t i = 0; i < seq_log.size(); ++i) {
    EXPECT_EQ(seq_log[i].mmsi, sharded_log[i].mmsi);
    EXPECT_EQ(seq_log[i].point.t, sharded_log[i].point.t);
    EXPECT_EQ(seq_log[i].type, sharded_log[i].type);
  }
}

// --- Mergeable stats --------------------------------------------------------

TEST(StatsMergeTest, DecoderStatsSum) {
  AisDecoder::Stats a, b;
  a.lines_in = 10;
  a.messages_out = 7;
  a.bad_sentences = 2;
  b.lines_in = 5;
  b.messages_out = 4;
  b.pending_fragments = 1;
  a.Merge(b);
  EXPECT_EQ(a.lines_in, 15u);
  EXPECT_EQ(a.messages_out, 11u);
  EXPECT_EQ(a.bad_sentences, 2u);
  EXPECT_EQ(a.pending_fragments, 1u);
}

TEST(StatsMergeTest, ReconstructionStatsSum) {
  TrajectoryReconstructor::Stats a, b;
  a.reports_in = 100;
  a.points_out = 90;
  a.duplicates = 5;
  b.reports_in = 50;
  b.points_out = 45;
  b.outliers = 3;
  a.Merge(b);
  EXPECT_EQ(a.reports_in, 150u);
  EXPECT_EQ(a.points_out, 135u);
  EXPECT_EQ(a.duplicates, 5u);
  EXPECT_EQ(a.outliers, 3u);
}

TEST(StatsMergeTest, SynopsisStatsPreserveCompressionRatio) {
  SynopsisEngine::Stats a, b;
  a.points_in = 1000;
  a.points_out = 50;
  b.points_in = 500;
  b.points_out = 100;
  a.Merge(b);
  EXPECT_EQ(a.points_in, 1500u);
  EXPECT_EQ(a.points_out, 150u);
  EXPECT_NEAR(a.CompressionRatio(), 0.9, 1e-9);
}

TEST(StatsMergeTest, EventAndEnrichmentStatsSum) {
  EventEngine::Stats ea, eb;
  ea.points_in = 10;
  ea.events_out = 3;
  eb.points_in = 20;
  eb.events_out = 5;
  ea.Merge(eb);
  EXPECT_EQ(ea.points_in, 30u);
  EXPECT_EQ(ea.events_out, 8u);

  EnrichmentEngine::Stats na, nb;
  na.points = 4;
  nb.points = 6;
  nb.zone_hits = 2;
  na.Merge(nb);
  EXPECT_EQ(na.points, 10u);
  EXPECT_EQ(na.zone_hits, 2u);
}

TEST(StatsMergeTest, QualityReportSums) {
  QualityAssessor::Report a, b;
  a.static_messages = 10;
  a.static_with_defects = 1;
  a.defect_counts[2] = 1;
  b.static_messages = 30;
  b.static_with_defects = 3;
  b.defect_counts[2] = 2;
  b.position_messages = 100;
  a.Merge(b);
  EXPECT_EQ(a.static_messages, 40u);
  EXPECT_EQ(a.static_with_defects, 4u);
  EXPECT_EQ(a.defect_counts[2], 3u);
  EXPECT_EQ(a.position_messages, 100u);
  EXPECT_NEAR(a.StaticErrorRate(), 0.1, 1e-9);
}

TEST(StatsMergeTest, RateMeterUnionsSpan) {
  RateMeter a, b;
  for (int i = 0; i <= 10; ++i) a.Observe(1000 + i * 100);
  for (int i = 0; i <= 10; ++i) b.Observe(500 + i * 100);
  const uint64_t total = a.count() + b.count();
  a.Merge(b);
  EXPECT_EQ(a.count(), total);
  EXPECT_EQ(a.first_event(), 500);
  EXPECT_EQ(a.last_event(), 2000);

  RateMeter empty;
  a.Merge(empty);  // merging an empty meter is a no-op
  EXPECT_EQ(a.count(), total);
  EXPECT_EQ(a.first_event(), 500);
}

TEST(StatsMergeTest, LatencyReservoirMergePreservesCountAndMean) {
  LatencyReservoir a(64), b(64);
  for (int i = 1; i <= 1000; ++i) a.Observe(i);
  for (int i = 1001; i <= 2000; ++i) b.Observe(i);
  const double expected_mean =
      (a.Mean() * a.count() + b.Mean() * b.count()) / 2000.0;
  a.Merge(b);
  EXPECT_EQ(a.count(), 2000u);
  EXPECT_NEAR(a.Mean(), expected_mean, 1e-9);
  // Quantiles remain sane (samples from both halves retained).
  EXPECT_GT(a.Quantile(0.99), 500);
}

TEST(StatsMergeTest, CoverageModelMergeDisjointVessels) {
  CoverageModel::Options opts;
  opts.max_report_interval_ms = Minutes(3);
  CoverageModel a(opts), b(opts);
  // Vessel 1 in a: dark gap 10:00–10:30-ish.
  a.Observe(1, 0);
  a.Observe(1, Minutes(1));
  a.Observe(1, Minutes(31));  // 30-minute gap
  a.Observe(1, Minutes(32));
  // Vessel 2 in b: continuous.
  for (int i = 0; i <= 30; ++i) b.Observe(2, Minutes(i));
  a.Merge(b);
  EXPECT_TRUE(a.IsDark(1, Minutes(15)));
  EXPECT_FALSE(a.IsDark(2, Minutes(15)));
  EXPECT_EQ(a.Vessels().size(), 2u);
}

// --- Enriched output stream -------------------------------------------------

auto EnrichedKey(const EnrichedPoint& p) {
  return std::make_tuple(p.base.mmsi, p.base.point.t, p.base.point.position.lat,
                         p.base.point.position.lon, p.base.starts_segment,
                         p.base.gap_before_ms, p.zone_ids,
                         p.weather.wind_speed_mps, p.weather.wave_height_m,
                         static_cast<int>(p.category), p.vessel_name,
                         p.registry_conflict);
}

/// Two registries over the scenario fleet, disagreeing on some flags so the
/// resolver's conflict path is exercised end-to-end.
void FillRegistries(const std::vector<VesselSpec>& fleet, VesselRegistry* a,
                    VesselRegistry* b) {
  for (const VesselSpec& v : fleet) {
    RegistryRecord rec;
    rec.mmsi = v.mmsi;
    rec.imo = v.imo;
    rec.name = v.name;
    rec.call_sign = v.call_sign;
    rec.length_m = v.length_m;
    rec.beam_m = v.beam_m;
    rec.ship_type = v.ship_type;
    rec.flag = "GR";
    a->Upsert(rec);
    RegistryRecord rec_b = rec;
    if (v.mmsi % 3 == 0) rec_b.flag = "MT";
    b->Upsert(rec_b);
  }
}

PipelineConfig EnrichedTestConfig() {
  PipelineConfig pc = TestConfig();
  // Deep queues/buffers: these tests assert lossless delivery; drops are
  // exercised separately with a deliberately slow provider.
  pc.enrichment_queue_depth = 1u << 20;
  pc.enriched_output_capacity = 1u << 20;
  return pc;
}

TEST(EnrichedStreamTest, OneShardMatchesSequentialExactly) {
  const ScenarioOutput scenario = MakeScenario(911, /*perfect_reception=*/false);
  const PipelineConfig pc = EnrichedTestConfig();
  WeatherProvider weather(7);
  VesselRegistry reg_a("marinetraffic"), reg_b("lloyds");
  FillRegistries(scenario.fleet, &reg_a, &reg_b);

  MaritimePipeline sequential(pc, &SharedWorld().zones(), &weather, &reg_a,
                              &reg_b);
  sequential.Run(scenario.nmea);
  std::vector<EnrichedPoint> seq_enriched;
  sequential.DrainEnriched(&seq_enriched);

  ShardedPipeline::Options opts;
  opts.num_shards = 1;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), &weather, &reg_a,
                          &reg_b);
  sharded.Run(scenario.nmea);
  std::vector<EnrichedPoint> shard_enriched;
  sharded.DrainEnriched(&shard_enriched);

  // Every clean point reaches the consumer — nothing is discarded.
  ASSERT_GT(seq_enriched.size(), 0u);
  EXPECT_EQ(seq_enriched.size(),
            sequential.metrics().reconstruction.points_out);

  // One shard reproduces the sequential enriched stream exactly, in order.
  ASSERT_EQ(seq_enriched.size(), shard_enriched.size());
  for (size_t i = 0; i < seq_enriched.size(); ++i) {
    ASSERT_EQ(EnrichedKey(seq_enriched[i]), EnrichedKey(shard_enriched[i]))
        << "enriched point mismatch at index " << i;
  }

  const PipelineMetrics& ms = sequential.metrics();
  const PipelineMetrics& mp = sharded.metrics();
  EXPECT_EQ(ms.enrichment.points, mp.enrichment.points);
  EXPECT_EQ(ms.enrichment.zone_hits, mp.enrichment.zone_hits);
  EXPECT_EQ(ms.enrichment.registry_hits, mp.enrichment.registry_hits);
  EXPECT_EQ(ms.enrichment.registry_conflicts, mp.enrichment.registry_conflicts);
  EXPECT_GT(ms.enrichment.registry_hits, 0u);
  EXPECT_EQ(ms.enrichment_stage.submitted, mp.enrichment_stage.submitted);
  EXPECT_EQ(mp.enrichment_stage.processed, mp.enrichment_stage.submitted);
  EXPECT_EQ(mp.enrichment_stage.dropped(), 0u);
}

TEST(EnrichedStreamTest, ManyShardsPreservePerVesselStreams) {
  const ScenarioOutput scenario = MakeScenario(912, /*perfect_reception=*/false);
  const PipelineConfig pc = EnrichedTestConfig();
  WeatherProvider weather(7);

  MaritimePipeline sequential(pc, &SharedWorld().zones(), &weather, nullptr,
                              nullptr);
  sequential.Run(scenario.nmea);
  std::vector<EnrichedPoint> seq_enriched;
  sequential.DrainEnriched(&seq_enriched);
  ASSERT_GT(seq_enriched.size(), 0u);

  using Key = decltype(EnrichedKey(seq_enriched.front()));
  std::map<Mmsi, std::vector<Key>> seq_per_vessel;
  for (const EnrichedPoint& p : seq_enriched) {
    seq_per_vessel[p.base.mmsi].push_back(EnrichedKey(p));
  }

  for (size_t num_shards : {2, 4}) {
    ShardedPipeline::Options opts;
    opts.num_shards = num_shards;
    ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), &weather,
                            nullptr, nullptr);
    sharded.Run(scenario.nmea);
    std::vector<EnrichedPoint> shard_enriched;
    sharded.DrainEnriched(&shard_enriched);
    EXPECT_EQ(shard_enriched.size(), seq_enriched.size());

    // Per-vessel subsequences are exactly the sequential ones (which also
    // implies the streams are equal as multisets).
    std::map<Mmsi, std::vector<Key>> per_vessel;
    for (const EnrichedPoint& p : shard_enriched) {
      per_vessel[p.base.mmsi].push_back(EnrichedKey(p));
    }
    EXPECT_EQ(per_vessel, seq_per_vessel) << num_shards << " shards";
  }
}

TEST(EnrichedStreamTest, FreshZoneDatabaseIsSafeToShareAcrossWorkers) {
  // A database populated with Add only and never queried before the run:
  // shard and enrichment workers make its first lookups concurrently, so
  // any lookup-time index build would race (TSan surface).
  ZoneDatabase zones;
  for (const GeoZone& z : SharedWorld().zones().zones()) zones.Add(z);

  const ScenarioOutput scenario = MakeScenario(913, /*perfect_reception=*/false);
  const PipelineConfig pc = EnrichedTestConfig();
  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &zones, nullptr, nullptr, nullptr);
  const auto shard_events = sharded.Run(scenario.nmea);

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  const auto seq_events = sequential.Run(scenario.nmea);
  const PipelineMetrics& ms = sequential.metrics();
  const PipelineMetrics& mp = sharded.metrics();
  EXPECT_GT(mp.enrichment.zone_hits, 0u);
  EXPECT_EQ(mp.enrichment.points, ms.enrichment.points);
  EXPECT_EQ(mp.enrichment.zone_hits, ms.enrichment.zone_hits);
  ExpectSameEvents(seq_events, shard_events, /*compare_order=*/false);
}

TEST(EnrichedStreamTest, SinkDeliversEveryPointWithPerVesselOrder) {
  const ScenarioOutput scenario = MakeScenario(913, /*perfect_reception=*/true);
  const PipelineConfig pc = EnrichedTestConfig();

  ShardedPipeline::Options opts;
  opts.num_shards = 3;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  std::mutex mu;
  uint64_t delivered = 0;
  std::map<Mmsi, Timestamp> last_t;
  bool ordered = true;
  sharded.SetEnrichedSink([&](const EnrichedPoint& p) {
    std::lock_guard<std::mutex> lock(mu);
    ++delivered;
    auto [it, inserted] = last_t.try_emplace(p.base.mmsi, p.base.point.t);
    if (!inserted) {
      if (p.base.point.t < it->second) ordered = false;
      it->second = p.base.point.t;
    }
  });
  sharded.Run(scenario.nmea);

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(ordered) << "per-vessel event-time order violated";
  EXPECT_EQ(delivered, sharded.metrics().reconstruction.points_out);
  EXPECT_EQ(delivered, sharded.metrics().enrichment_stage.processed);
  EXPECT_EQ(sharded.metrics().enrichment_stage.dropped(), 0u);
  // With a sink installed nothing accumulates for DrainEnriched.
  std::vector<EnrichedPoint> drained;
  EXPECT_EQ(sharded.DrainEnriched(&drained), 0u);
}

// The default `enrichment_queue_depth` (every other enriched test runs a
// deep queue): whatever a host's speed sheds, every point is accounted for
// and the delivered stream is an order-preserving thinning of the
// sequential one. Drops are not asserted away — they depend on host speed.
TEST(EnrichedStreamTest, DefaultDepthAccountsForEveryPoint) {
  const ScenarioOutput scenario = MakeScenario(915, /*perfect_reception=*/false);
  const PipelineConfig pc;  // default queue depth and window
  WeatherProvider weather(7);
  VesselRegistry reg_a("marinetraffic"), reg_b("lloyds");
  FillRegistries(scenario.fleet, &reg_a, &reg_b);

  using Key = decltype(EnrichedKey(std::declval<EnrichedPoint>()));
  MaritimePipeline sequential(pc, &SharedWorld().zones(), &weather, &reg_a,
                              &reg_b);
  std::map<Mmsi, std::vector<Key>> seq_per_vessel;
  sequential.SetEnrichedSink([&](const EnrichedPoint& p) {
    seq_per_vessel[p.base.mmsi].push_back(EnrichedKey(p));
  });
  sequential.Run(scenario.nmea);
  const uint64_t points_out = sequential.metrics().reconstruction.points_out;
  ASSERT_GT(points_out, 0u);

  for (size_t num_shards : {1, 3}) {
    ShardedPipeline::Options opts;
    opts.num_shards = num_shards;
    ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), &weather,
                            &reg_a, &reg_b);
    std::mutex mu;
    std::map<Mmsi, std::vector<Key>> per_vessel;
    sharded.SetEnrichedSink([&](const EnrichedPoint& p) {
      std::lock_guard<std::mutex> lock(mu);
      per_vessel[p.base.mmsi].push_back(EnrichedKey(p));
    });
    sharded.Run(scenario.nmea);

    const SideStageStats stage = sharded.metrics().enrichment_stage;
    EXPECT_EQ(stage.submitted, points_out) << num_shards << " shards";
    EXPECT_EQ(stage.submitted, stage.processed + stage.queue_dropped +
                                   stage.transform_failed)
        << num_shards << " shards";
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [mmsi, keys] : per_vessel) {
      const auto seq = seq_per_vessel.find(mmsi);
      ASSERT_NE(seq, seq_per_vessel.end()) << "vessel " << mmsi;
      // Order-preserving subsequence: each delivered point matches the
      // next sequential point at or after the previous match.
      size_t j = 0;
      for (const Key& key : keys) {
        while (j < seq->second.size() && seq->second[j] != key) ++j;
        ASSERT_LT(j, seq->second.size())
            << num_shards << " shards, vessel " << mmsi
            << ": delivered point missing or out of order";
        ++j;
      }
    }
    if (stage.dropped() == 0) {
      EXPECT_EQ(per_vessel, seq_per_vessel) << num_shards << " shards";
    }
  }
}

/// Weather source with a deliberate per-lookup stall — the slow upstream
/// service of the backpressure scenarios. Blocks rather than spins so it
/// models I/O latency without stealing CPU from the shard workers.
class SlowWeatherProvider : public WeatherProvider {
 public:
  SlowWeatherProvider(uint64_t seed, std::chrono::microseconds stall)
      : WeatherProvider(seed), stall_(stall) {}

  WeatherSample At(const GeoPoint& p, Timestamp t) const override {
    std::this_thread::sleep_for(stall_);
    return WeatherProvider::At(p, t);
  }

 private:
  std::chrono::microseconds stall_;
};

TEST(EnrichedStreamTest, SlowProviderDropsAreCountedAndIngestCompletes) {
  const ScenarioOutput scenario = MakeScenario(914, /*perfect_reception=*/true);
  PipelineConfig pc = TestConfig();
  pc.enrichment_queue_depth = 8;  // tiny queue: force backpressure
  pc.enriched_output_capacity = 1u << 20;
  // 2 ms per lookup: slower than ingest even under sanitizers (sleeps are
  // not throttled by TSan, ingest is), so drops always occur.
  SlowWeatherProvider weather(7, std::chrono::milliseconds(2));

  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), &weather, nullptr,
                          nullptr);
  const auto events = sharded.Run(scenario.nmea);
  EXPECT_GT(events.size(), 0u);  // detection unaffected by slow enrichment

  const SideStageStats stage = sharded.metrics().enrichment_stage;
  EXPECT_EQ(stage.submitted, sharded.metrics().reconstruction.points_out);
  EXPECT_GT(stage.queue_dropped, 0u) << "expected drop-oldest backpressure";
  EXPECT_EQ(stage.processed + stage.queue_dropped, stage.submitted)
      << "Finish must be a delivery-completeness barrier";

  // The thinned stream still arrives in per-vessel event-time order.
  std::vector<EnrichedPoint> drained;
  sharded.DrainEnriched(&drained);
  EXPECT_EQ(drained.size(), stage.processed);
  std::map<Mmsi, Timestamp> last_t;
  for (const EnrichedPoint& p : drained) {
    auto [it, inserted] = last_t.try_emplace(p.base.mmsi, p.base.point.t);
    if (!inserted) {
      EXPECT_LE(it->second, p.base.point.t);
      it->second = p.base.point.t;
    }
  }
}

TEST(EnrichedStreamTest, PerSourceLatencyAttributionCoversEveryJoin) {
  // PR 2 follow-on: SideStageStats attributes the join work per context
  // source, so a slow weather service is distinguishable from slow zones.
  const ScenarioOutput scenario = MakeScenario(916, /*perfect_reception=*/true);
  const PipelineConfig pc = EnrichedTestConfig();
  WeatherProvider weather(7);
  VesselRegistry reg_a("marinetraffic"), reg_b("lloyds");
  FillRegistries(scenario.fleet, &reg_a, &reg_b);

  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), &weather, &reg_a,
                          &reg_b);
  sharded.Run(scenario.nmea);

  const SideStageStats stage = sharded.metrics().enrichment_stage;
  ASSERT_GT(stage.processed, 0u);
  ASSERT_EQ(stage.source_latency.size(), 3u);
  for (const char* source : {"zones", "weather", "registry"}) {
    auto it = stage.source_latency.find(source);
    ASSERT_NE(it, stage.source_latency.end()) << source;
    // One attributed call per transformed point, merged across shards.
    EXPECT_EQ(it->second.calls, stage.processed) << source;
    EXPECT_GE(it->second.max_us, it->second.total_us / (it->second.calls + 1))
        << source;
  }
}

TEST(EnrichedStreamTest, SlowSourceDominatesItsLatencyAttribution) {
  const ScenarioOutput scenario = MakeScenario(917, /*perfect_reception=*/true);
  PipelineConfig pc = TestConfig();
  pc.enrichment_queue_depth = 1u << 20;  // lossless: every point measured
  pc.enriched_output_capacity = 1u << 20;
  // 2 ms per weather lookup — sleeps give a hard per-call lower bound the
  // assertion can rely on even under sanitizers.
  SlowWeatherProvider weather(7, std::chrono::milliseconds(2));

  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), &weather, nullptr,
                          nullptr);
  sharded.Run(scenario.nmea);

  const SideStageStats stage = sharded.metrics().enrichment_stage;
  ASSERT_GT(stage.processed, 0u);
  // No registries configured: that source must not be credited with calls.
  EXPECT_EQ(stage.source_latency.count("registry"), 0u);
  const auto weather_it = stage.source_latency.find("weather");
  const auto zones_it = stage.source_latency.find("zones");
  ASSERT_NE(weather_it, stage.source_latency.end());
  ASSERT_NE(zones_it, stage.source_latency.end());
  EXPECT_EQ(weather_it->second.calls, stage.processed);
  // Each weather lookup slept ≥ 2 ms; zone lookups are in-memory.
  EXPECT_GE(weather_it->second.MeanUs(), 2000.0);
  EXPECT_GT(weather_it->second.total_us, zones_it->second.total_us);
}

TEST(EnrichedStreamTest, EnrichmentCanBeDisabledEntirely) {
  const ScenarioOutput scenario = MakeScenario(915, /*perfect_reception=*/true);
  PipelineConfig pc = TestConfig();
  pc.enable_enrichment = false;

  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  const auto events = sharded.Run(scenario.nmea);
  EXPECT_GT(events.size(), 0u);
  EXPECT_EQ(sharded.metrics().enrichment_stage.submitted, 0u);
  EXPECT_EQ(sharded.metrics().enrichment.points, 0u);
  std::vector<EnrichedPoint> drained;
  EXPECT_EQ(sharded.DrainEnriched(&drained), 0u);
}

// --- Shard router -----------------------------------------------------------

TEST(ShardRouterTest, DeterministicAndInRange) {
  ShardRouter router(7);
  for (uint64_t key = 0; key < 1000; ++key) {
    const size_t s = router.ShardFor(key);
    EXPECT_LT(s, 7u);
    EXPECT_EQ(s, router.ShardFor(key));  // stable
  }
}

TEST(ShardRouterTest, BalancesStructuredMmsis) {
  // Real MMSIs cluster under a few country prefixes; the router must still
  // spread them. Simulate two MID blocks with sequential suffixes.
  ShardRouter router(8);
  std::vector<size_t> load(8, 0);
  for (uint32_t i = 0; i < 500; ++i) {
    ++load[router.ShardFor(247000000 + i)];  // Italy block
    ++load[router.ShardFor(538000000 + i)];  // Marshall Islands block
  }
  const size_t total = 1000;
  for (size_t s = 0; s < 8; ++s) {
    EXPECT_GT(load[s], total / 8 / 3) << "shard " << s << " starved";
    EXPECT_LT(load[s], total / 8 * 3) << "shard " << s << " overloaded";
  }
}

TEST(ShardRouterTest, ZeroShardCountClampsToOne) {
  ShardRouter router(0);
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.ShardFor(42), 0u);
}

}  // namespace
}  // namespace marlin
