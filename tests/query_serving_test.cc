// Historical serving tier tests: the determinism proof battery (same
// QuerySpec over sequential vs N-shard archives must be byte-identical,
// N ∈ {1, 2, 4}, across multiple scenario worlds), concurrent readers
// against live ingest, sealed-segment index maintenance, and the
// allocation-freedom of the archive staging hot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_probe.h"
#include "core/pipeline.h"
#include "core/query_engine.h"
#include "core/sharded_pipeline.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "storage/archive.h"

MARLIN_INSTALL_ALLOC_PROBE()

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

PipelineConfig ArchiveConfig() {
  PipelineConfig pc;
  pc.window_lines = 512;  // several windows (= epochs) per scenario
  pc.archive.enabled = true;
  // Volatile archives: the equivalence proof is about blocks and query
  // results, not files.
  return pc;
}

/// Byte-exact serialization of a result's rows: the proof compares these
/// strings, so "identical" means identical values AND identical order.
std::string RowBytes(const std::vector<QueryRow>& rows) {
  std::string out;
  out.reserve(rows.size() * 32);
  const auto append = [&out](const void* p, size_t n) {
    out.append(reinterpret_cast<const char*>(p), n);
  };
  for (const QueryRow& r : rows) {
    append(&r.t, sizeof(r.t));
    append(&r.mmsi, sizeof(r.mmsi));
    append(&r.position.lat, sizeof(r.position.lat));
    append(&r.position.lon, sizeof(r.position.lon));
    append(&r.sog_mps, sizeof(r.sog_mps));
    append(&r.cog_deg, sizeof(r.cog_deg));
  }
  return out;
}

/// The spec battery: every filter dimension alone and combined, derived
/// from the reference result so the filters are guaranteed selective.
std::vector<QuerySpec> SpecBattery(const QueryResult& full) {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec{});  // everything
  if (full.rows.empty()) return specs;

  const Timestamp tmin = full.rows.front().t;
  const Timestamp tmax = full.rows.back().t;
  const Timestamp span = tmax - tmin;

  QuerySpec time_range;
  time_range.t0 = tmin + span / 4;
  time_range.t1 = tmin + (3 * span) / 4;
  specs.push_back(time_range);

  BoundingBox extent = BoundingBox::Empty();
  for (const QueryRow& r : full.rows) extent.Extend(r.position);
  QuerySpec region;
  region.region = BoundingBox(
      extent.min_lat, extent.min_lon,
      extent.min_lat + (extent.max_lat - extent.min_lat) * 0.6,
      extent.min_lon + (extent.max_lon - extent.min_lon) * 0.6);
  specs.push_back(region);

  QuerySpec vessels;
  Mmsi last = 0;
  size_t distinct = 0;
  for (const QueryRow& r : full.rows) {
    if (r.mmsi == last) continue;
    last = r.mmsi;
    if (++distinct % 3 == 0) vessels.vessels.push_back(r.mmsi);
  }
  if (!vessels.vessels.empty()) specs.push_back(vessels);

  QuerySpec resample = time_range;
  resample.resample_ms = kMillisPerMinute;
  specs.push_back(resample);

  QuerySpec combo = time_range;
  combo.region = region.region;
  combo.vessels = vessels.vessels;
  specs.push_back(combo);
  return specs;
}

// --- Determinism: sequential vs N shards ----------------------------------

TEST(QueryServingTest, SequentialVsShardedByteIdentical) {
  for (const uint64_t seed : {7101u, 7102u, 7103u}) {
    const ScenarioOutput scenario =
        MakeScenario(seed, /*perfect_reception=*/seed == 7103u);
    const PipelineConfig pc = ArchiveConfig();

    MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                                nullptr);
    sequential.Run(scenario.nmea);
    ASSERT_NE(sequential.archive(), nullptr);
    QueryEngine reference({sequential.archive()});
    const QueryResult full = reference.Execute(QuerySpec{});
    ASSERT_GT(full.rows.size(), 0u) << "seed " << seed;
    const std::vector<QuerySpec> battery = SpecBattery(full);

    for (const size_t num_shards : {1, 2, 4}) {
      ShardedPipeline::Options opts;
      opts.num_shards = num_shards;
      ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr,
                              nullptr, nullptr);
      sharded.Run(scenario.nmea);

      QueryEngine engine(sharded.archive_view());
      for (size_t i = 0; i < battery.size(); ++i) {
        const QueryResult seq = reference.Execute(battery[i]);
        const QueryResult shd = engine.Execute(battery[i]);
        EXPECT_EQ(RowBytes(seq.rows), RowBytes(shd.rows))
            << "seed " << seed << " shards " << num_shards << " spec " << i;
        EXPECT_EQ(seq.rows.size(), shd.rows.size());
      }
      // Identical blocks were cut: same staging, same epoch boundaries.
      const auto& m = sharded.metrics().archive;
      EXPECT_EQ(m.blocks, sequential.metrics().archive.blocks);
      EXPECT_EQ(m.points_staged, sequential.metrics().archive.points_staged);
    }
  }
}

TEST(QueryServingTest, FilteredQueriesMatchBruteForce) {
  const ScenarioOutput scenario = MakeScenario(7104, false);
  const PipelineConfig pc = ArchiveConfig();
  MaritimePipeline pipeline(pc, &SharedWorld().zones(), nullptr, nullptr,
                            nullptr);
  pipeline.Run(scenario.nmea);
  QueryEngine engine({pipeline.archive()});
  const QueryResult full = engine.Execute(QuerySpec{});
  ASSERT_GT(full.rows.size(), 0u);

  for (const QuerySpec& spec : SpecBattery(full)) {
    if (spec.resample_ms > 0) continue;  // raw-row filters only
    const QueryResult got = engine.Execute(spec);
    std::vector<QueryRow> expect;
    for (const QueryRow& r : full.rows) {
      if (r.t < spec.t0 || r.t > spec.t1) continue;
      if (spec.region.has_value() && !spec.region->Contains(r.position)) {
        continue;
      }
      if (!spec.vessels.empty() &&
          std::find(spec.vessels.begin(), spec.vessels.end(), r.mmsi) ==
              spec.vessels.end()) {
        continue;
      }
      expect.push_back(r);
    }
    EXPECT_EQ(RowBytes(got.rows), RowBytes(expect));
    EXPECT_EQ(got.stats.rows, expect.size());
  }
}

// --- Concurrent readers against live ingest (TSan surface) ----------------

TEST(QueryServingTest, ConcurrentReadersDuringLiveIngest) {
  const ScenarioOutput scenario = MakeScenario(7105, false);
  const PipelineConfig pc = ArchiveConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  sequential.Run(scenario.nmea);
  QueryEngine reference({sequential.archive()});
  const std::string expected = RowBytes(reference.Execute(QuerySpec{}).rows);

  ShardedPipeline::Options opts;
  opts.num_shards = 4;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  QueryEngine engine(sharded.archive_view());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&engine, &done, &queries] {
      // Blocks are append-only and snapshots immutable, so one reader's
      // successive full-query results can only grow.
      size_t last_rows = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const QueryResult res = engine.Execute(QuerySpec{});
        ASSERT_GE(res.rows.size(), last_rows);
        last_rows = res.rows.size();
        for (size_t i = 1; i < res.rows.size(); ++i) {
          const QueryRow& a = res.rows[i - 1];
          const QueryRow& b = res.rows[i];
          ASSERT_TRUE(a.t < b.t || (a.t == b.t && a.mmsi <= b.mmsi))
              << "merged order violated at " << i;
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Live ingest on this thread, chunked so epochs publish mid-flight.
  std::span<const Event<std::string>> all(scenario.nmea);
  for (size_t off = 0; off < all.size(); off += 700) {
    sharded.IngestBatch(all.subspan(off, std::min<size_t>(700, all.size() - off)));
  }
  sharded.Finish();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(RowBytes(engine.Execute(QuerySpec{}).rows), expected);
  // The readers overlapped segment merges, and the final comparison ran
  // over multi-segment partitions.
  EXPECT_GT(sharded.metrics().archive.segment_merges, 0u);
  size_t max_segments = 0;
  for (const ShardArchive* archive : sharded.archive_view()) {
    max_segments = std::max(max_segments, archive->snapshot()->segments.size());
  }
  EXPECT_GT(max_segments, 1u);
}

// --- Sealed-segment index maintenance ------------------------------------

TrajectoryPoint Point(Timestamp t, double lat, double lon) {
  TrajectoryPoint p;
  p.t = t;
  p.position = GeoPoint{lat, lon};
  p.sog_mps = 5.0f;
  p.cog_deg = 90.0f;
  return p;
}

/// Concatenation of a snapshot's segment blocks, oldest segment first.
std::vector<const PositionBlock*> SnapshotBlocks(
    const ShardArchive::PartitionSnapshot& snap) {
  std::vector<const PositionBlock*> out;
  for (const auto& segment : snap.segments) {
    for (const auto& block : segment->blocks) out.push_back(block.get());
  }
  return out;
}

TEST(ShardArchiveTest, SegmentsSealAtCapAndUnmergedOnesAreShared) {
  ArchiveOptions opts;
  opts.enabled = true;
  ShardArchive archive(opts, "");
  constexpr size_t kSeal = ShardArchive::kSealBlocks;

  // Varying blocks per epoch (1..4 vessels) so merges cascade irregularly;
  // ~8,500 blocks in all, enough to seal several segments.
  constexpr int kEpochs = 3400;
  std::vector<const PositionBlock*> expected;  // every block, epoch order
  std::shared_ptr<const ShardArchive::PartitionSnapshot> prev =
      archive.snapshot();
  std::vector<const ShardArchive::Segment*> sealed;  // oldest first
  uint64_t merges_seen = 0;
  size_t max_reindexed = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const uint32_t vessels = 1 + static_cast<uint32_t>((epoch * 7) % 4);
    for (uint32_t v = 0; v < vessels; ++v) {
      const Timestamp base = static_cast<Timestamp>(epoch) * 60000;
      archive.Stage(100 + v, Point(base, 10.0 + v * 0.1, 20.0));
      archive.Stage(100 + v, Point(base + 1000, 10.05 + v * 0.1, 20.05));
    }
    ASSERT_TRUE(archive.CloseEpoch().ok());
    const auto snap = archive.snapshot();
    ASSERT_EQ(snap->epoch, static_cast<uint64_t>(epoch + 1));

    // Every block in exactly one segment, in epoch order: the previous
    // snapshot's blocks are a prefix, this epoch's are the suffix.
    const std::vector<const PositionBlock*> blocks = SnapshotBlocks(*snap);
    ASSERT_EQ(blocks.size(), expected.size() + vessels);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), blocks.begin()))
        << "epoch " << epoch;
    for (uint32_t v = 0; v < vessels; ++v) {
      ASSERT_EQ(blocks[expected.size() + v]->mmsi, 100 + v);
    }
    expected = blocks;
    ASSERT_EQ(snap->block_count, blocks.size());
    for (const auto& segment : snap->segments) {
      ASSERT_EQ(segment->rtree.size(), segment->blocks.size());
      ASSERT_EQ(segment->intervals.size(), segment->blocks.size());
    }

    // A segment that reached kSealBlocks is never rebuilt: the very same
    // object sits at its place in every later snapshot. Sealed segments
    // form the oldest prefix.
    ASSERT_GE(snap->segments.size(), sealed.size());
    for (size_t i = 0; i < sealed.size(); ++i) {
      ASSERT_EQ(snap->segments[i].get(), sealed[i])
          << "epoch " << epoch << " sealed segment " << i;
    }
    for (size_t i = sealed.size(); i < snap->segments.size(); ++i) {
      if (snap->segments[i]->blocks.size() < kSeal) continue;
      ASSERT_EQ(i, sealed.size()) << "epoch " << epoch;
      sealed.push_back(snap->segments[i].get());
    }
    // The open tail behind them stays logarithmic in the cap, not in the
    // history.
    ASSERT_LE(snap->segments.size() - sealed.size(),
              static_cast<size_t>(std::bit_width(kSeal)) + 1)
        << "epoch " << epoch;

    // O(new) publish: the segments this close did not merge are the very
    // objects the previous snapshot held. Merges only touch the newest
    // segments, so those form a common prefix.
    const uint64_t merges = archive.stats().segment_merges;
    // Everything after that prefix is new: a single segment.
    const size_t unmerged = prev->segments.size() - (merges - merges_seen);
    ASSERT_EQ(snap->segments.size(), unmerged + 1);
    for (size_t i = 0; i < unmerged; ++i) {
      ASSERT_EQ(snap->segments[i].get(), prev->segments[i].get())
          << "epoch " << epoch << " segment " << i;
    }

    // Bounded close: the older blocks this close re-indexed (every segment
    // the previous snapshot did not hold, less this epoch's own blocks)
    // number O(kSealBlocks), whatever the history.
    size_t rebuilt = 0;
    for (const auto& segment : snap->segments) {
      if (std::find(prev->segments.begin(), prev->segments.end(), segment) ==
          prev->segments.end()) {
        rebuilt += segment->blocks.size();
      }
    }
    ASSERT_LE(rebuilt - vessels, 3 * kSeal) << "epoch " << epoch;
    max_reindexed = std::max(max_reindexed, rebuilt - vessels);
    merges_seen = merges;
    prev = snap;
  }
  EXPECT_GE(expected.size(), 8000u);
  EXPECT_GE(sealed.size(), 4u);
  EXPECT_GT(merges_seen, 0u);
  EXPECT_GE(max_reindexed, kSeal / 2);  // the cascade did run deep
}

TEST(ShardArchiveTest, VolatileArchiveKeepsNoStore) {
  ArchiveOptions opts;
  opts.enabled = true;
  // Volatile by request, and durable by request on a directory that cannot
  // be created (its parent is a regular file): both serve from memory with
  // no store, and say so on a durable read.
  const std::string file = ::testing::TempDir() + "/marlin_archive_not_a_dir";
  std::filesystem::remove_all(file);
  { std::ofstream(file) << "x"; }
  for (const std::string& dir : {std::string(), file + "/shard_0"}) {
    SCOPED_TRACE("directory '" + dir + "'");
    ShardArchive archive(opts, dir);
    EXPECT_EQ(archive.lsm(), nullptr);
    archive.Stage(500, Point(1000, 10.0, 20.0));
    archive.Stage(500, Point(2000, 10.1, 20.1));
    ASSERT_TRUE(archive.CloseEpoch().ok());
    EXPECT_EQ(archive.snapshot()->block_count, 1u);
    EXPECT_EQ(archive.stats().put_failures, 0u);

    std::vector<TrajectoryPoint> points;
    const Status status =
        archive.LoadVesselRange(500, 0, kMaxTimestamp, &points);
    EXPECT_TRUE(status.IsNotFound()) << status.ToString();
    EXPECT_TRUE(points.empty());
  }
  std::filesystem::remove_all(file);
}

TEST(ShardArchiveTest, SegmentedQueriesMatchBruteForceOverAllBlocks) {
  // A short input that never seals, and a long one (~3,200 blocks) that
  // seals at least two segments.
  for (const int epochs : {300, 1600}) {
    SCOPED_TRACE(std::to_string(epochs) + " epochs");
    ArchiveOptions opts;
    opts.enabled = true;
    ShardArchive archive(opts, "");
    for (int epoch = 0; epoch < epochs; ++epoch) {
      for (uint32_t v = 0; v < 1 + static_cast<uint32_t>(epoch % 3); ++v) {
        const Timestamp base = static_cast<Timestamp>(epoch) * 60000;
        const double lat = 10.0 + (epoch % 17) * 0.05 + v * 0.3;
        const double lon = 20.0 + (epoch % 11) * 0.07 + v * 0.2;
        archive.Stage(200 + v, Point(base, lat, lon));
        archive.Stage(200 + v, Point(base + 20000, lat + 0.02, lon + 0.01));
      }
      ASSERT_TRUE(archive.CloseEpoch().ok());
    }
    const auto snap = archive.snapshot();
    ASSERT_GT(snap->segments.size(), 1u);
    size_t sealed = 0;
    for (const auto& segment : snap->segments) {
      sealed += segment->blocks.size() >= ShardArchive::kSealBlocks;
    }
    // The long input crosses at least two seals and keeps an open tail, so
    // every query below spans sealed and open segments together.
    if (epochs > 1000) {
      ASSERT_GE(snap->block_count, 2500u);
      ASSERT_GE(sealed, 2u);
      ASSERT_LT(sealed, snap->segments.size());
    } else {
      ASSERT_EQ(sealed, 0u);
    }

    QueryEngine engine({&archive});
    const QueryResult full = engine.Execute(QuerySpec{});
    // The four raw-row shapes after "everything": time range, region, vessel
    // set, and all three combined.
    const std::vector<QuerySpec> all = SpecBattery(full);
    std::vector<QuerySpec> battery;
    for (size_t i = 1; i < all.size(); ++i) {
      if (all[i].resample_ms == 0) battery.push_back(all[i]);
    }
    ASSERT_EQ(battery.size(), 4u);
    // A time range from the middle of the oldest segment to the middle of the
    // newest: it covers the segments between whole (every block taken
    // without an interval stab) and cuts the two ends part way. Spans come
    // from the blocks, and each segment's own span must match them.
    ASSERT_GE(snap->segments.size(), 3u);
    std::vector<std::pair<Timestamp, Timestamp>> spans;
    for (const auto& segment : snap->segments) {
      Timestamp lo = kMaxTimestamp, hi = kInvalidTimestamp;
      for (const auto& block : segment->blocks) {
        lo = std::min(lo, block->t0);
        hi = std::max(hi, block->t1);
      }
      ASSERT_LT(lo, hi);
      EXPECT_EQ(segment->t0, lo);
      EXPECT_EQ(segment->t1, hi);
      spans.emplace_back(lo, hi);
    }
    QuerySpec cut;
    cut.t0 = (spans.front().first + spans.front().second) / 2;
    cut.t1 = (spans.back().first + spans.back().second) / 2;
    size_t whole = 0;
    for (const auto& [lo, hi] : spans) whole += cut.t0 <= lo && hi <= cut.t1;
    EXPECT_EQ(whole, spans.size() - 2);
    battery.push_back(cut);
    // A range inside the middle segment: every other segment misses it and
    // is skipped whole.
    const auto& [mid_lo, mid_hi] = spans[spans.size() / 2];
    QuerySpec inside;
    inside.t0 = mid_lo + (mid_hi - mid_lo) / 4;
    inside.t1 = mid_hi - (mid_hi - mid_lo) / 4;
    battery.push_back(inside);

    for (size_t i = 0; i < battery.size(); ++i) {
      const QuerySpec& spec = battery[i];
      const QueryResult got = engine.Execute(spec);

      // Brute force: the same block-level pruning and row filter, applied to
      // every block with no index.
      QueryStats want;
      std::vector<QueryRow> rows;
      for (const PositionBlock* block : SnapshotBlocks(*snap)) {
        if (block->t1 < spec.t0 || block->t0 > spec.t1) {
          ++want.blocks_skipped_time;
          continue;
        }
        if (spec.region.has_value() &&
            !spec.region->Intersects(block->bounds)) {
          ++want.blocks_skipped_region;
          continue;
        }
        if (!spec.vessels.empty() &&
            std::find(spec.vessels.begin(), spec.vessels.end(), block->mmsi) ==
                spec.vessels.end()) {
          ++want.blocks_skipped_vessel;
          continue;
        }
        ++want.blocks_scanned;
        std::vector<TrajectoryPoint> points;
        ASSERT_TRUE(DecodePositionBlock(block->data, block->count, block->mmsi,
                                        block->t0, &points)
                        .ok());
        want.points_decoded += points.size();
        for (const TrajectoryPoint& p : points) {
          if (p.t < spec.t0 || p.t > spec.t1) continue;
          if (spec.region.has_value() && !spec.region->Contains(p.position)) {
            continue;
          }
          rows.push_back(
              QueryRow{p.t, block->mmsi, p.position, p.sog_mps, p.cog_deg});
        }
      }
      std::sort(rows.begin(), rows.end(),
                [](const QueryRow& a, const QueryRow& b) {
                  return a.t != b.t ? a.t < b.t : a.mmsi < b.mmsi;
                });

      EXPECT_EQ(RowBytes(got.rows), RowBytes(rows)) << "spec " << i;
      EXPECT_EQ(got.stats.blocks_total, snap->block_count) << "spec " << i;
      EXPECT_EQ(got.stats.blocks_skipped_time, want.blocks_skipped_time)
          << "spec " << i;
      EXPECT_EQ(got.stats.blocks_skipped_region, want.blocks_skipped_region)
          << "spec " << i;
      EXPECT_EQ(got.stats.blocks_skipped_vessel, want.blocks_skipped_vessel)
          << "spec " << i;
      EXPECT_EQ(got.stats.blocks_scanned, want.blocks_scanned) << "spec " << i;
      EXPECT_EQ(got.stats.points_decoded, want.points_decoded) << "spec " << i;
      EXPECT_EQ(got.stats.rows, rows.size()) << "spec " << i;
    }
  }
}

TEST(ShardArchiveTest, HeldSnapshotUnchangedByLaterEpochs) {
  ArchiveOptions opts;
  opts.enabled = true;
  ShardArchive archive(opts, "");

  archive.Stage(7, Point(1000, 10.0, 20.0));
  archive.Stage(7, Point(2000, 10.1, 20.1));
  ASSERT_TRUE(archive.CloseEpoch().ok());
  const auto held = archive.snapshot();
  ASSERT_EQ(SnapshotBlocks(*held).size(), 1u);
  const PositionBlock* held_block = SnapshotBlocks(*held)[0];
  ASSERT_EQ(held->segments.size(), 1u);
  const ShardArchive::Segment* held_segment = held->segments[0].get();

  // "Insert during query": new epochs publish while `held` stays pinned.
  // The first of them merges the held segment away in the writer.
  for (int epoch = 0; epoch < 3; ++epoch) {
    archive.Stage(8, Point(10000 + epoch * 1000, 11.0, 21.0));
    ASSERT_TRUE(archive.CloseEpoch().ok());
  }
  const auto latest = archive.snapshot();
  EXPECT_EQ(latest->block_count, 4u);
  EXPECT_GT(archive.stats().segment_merges, 0u);
  for (const auto& segment : latest->segments) {
    EXPECT_NE(segment.get(), held_segment);
  }

  // The held snapshot is immutable: same segment, same blocks, same
  // payload, and its points still decode identically.
  ASSERT_EQ(SnapshotBlocks(*held).size(), 1u);
  EXPECT_EQ(held->block_count, 1u);
  ASSERT_EQ(held->segments.size(), 1u);
  EXPECT_EQ(held->segments[0].get(), held_segment);
  EXPECT_EQ(SnapshotBlocks(*held)[0], held_block);
  EXPECT_EQ(held_segment->rtree.size(), 1u);
  EXPECT_EQ(held_segment->intervals.Overlapping(0, 5000).size(), 1u);
  std::vector<TrajectoryPoint> decoded;
  ASSERT_TRUE(DecodePositionBlock(held_block->data, held_block->count,
                                  held_block->mmsi, held_block->t0, &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].t, 1000);
  EXPECT_EQ(decoded[1].t, 2000);
}

TEST(ShardArchiveTest, EmptyRegionAndEdgeCases) {
  ArchiveOptions opts;
  opts.enabled = true;
  ShardArchive archive(opts, "");
  archive.Stage(5, Point(1000, 10.0, 20.0));
  ASSERT_TRUE(archive.CloseEpoch().ok());
  QueryEngine engine({&archive});

  // Region with no data in it: zero rows, block pruned not decoded.
  QuerySpec nowhere;
  nowhere.region = BoundingBox(-60.0, -60.0, -50.0, -50.0);
  const QueryResult none = engine.Execute(nowhere);
  EXPECT_TRUE(none.rows.empty());
  EXPECT_EQ(none.stats.blocks_scanned, 0u);
  EXPECT_GT(none.stats.blocks_skipped_region, 0u);

  // Inverted time range: empty without touching partitions.
  QuerySpec inverted;
  inverted.t0 = 10;
  inverted.t1 = 5;
  EXPECT_TRUE(engine.Execute(inverted).rows.empty());

  // Empty partition (no epochs): empty result, no crash.
  ShardArchive empty_archive(opts, "");
  QueryEngine empty_engine({&empty_archive});
  EXPECT_TRUE(empty_engine.Execute(QuerySpec{}).rows.empty());

  // Vessel-set filter that matches nothing.
  QuerySpec wrong_vessel;
  wrong_vessel.vessels = {999};
  const QueryResult miss = engine.Execute(wrong_vessel);
  EXPECT_TRUE(miss.rows.empty());
  EXPECT_GT(miss.stats.blocks_skipped_vessel, 0u);
}

// --- Durability path + prefix Bloom ---------------------------------------

TEST(ShardArchiveTest, LoadVesselRangeAndPrefixBloomSkips) {
  const std::string dir = ::testing::TempDir() + "/marlin_archive_qs";
  std::filesystem::remove_all(dir);
  ArchiveOptions opts;
  opts.enabled = true;
  opts.background_compaction = false;
  opts.max_runs = 64;  // keep runs separate so the prefix filter can skip
  ShardArchive archive(opts, dir);

  // One vessel per epoch + forced flush → one run per vessel.
  for (uint32_t v = 0; v < 4; ++v) {
    for (int i = 0; i < 3; ++i) {
      archive.Stage(500 + v, Point(1000 * (i + 1), 10.0 + v, 20.0));
    }
    ASSERT_TRUE(archive.CloseEpoch().ok());
    ASSERT_TRUE(archive.lsm()->Flush().ok());
  }
  ASSERT_EQ(archive.lsm()->NumRuns(), 4u);

  std::vector<TrajectoryPoint> points;
  ASSERT_TRUE(archive.LoadVesselRange(502, 0, kMaxTimestamp, &points).ok());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].t, 1000);
  EXPECT_DOUBLE_EQ(points[0].position.lat, 12.0);
  // Three of the four runs hold other vessels: the prefix filter skipped
  // them without a binary search.
  EXPECT_GE(archive.stats().prefix_bloom_skipped, 3u);

  // Time sub-range.
  points.clear();
  ASSERT_TRUE(archive.LoadVesselRange(502, 1500, 2500, &points).ok());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].t, 2000);

  std::filesystem::remove_all(dir);
}

// --- Hot-path allocation freedom -------------------------------------------

TEST(ShardArchiveTest, StageSteadyStateAllocationFree) {
  ArchiveOptions opts;
  opts.enabled = true;
  ShardArchive archive(opts, "");

  // Warm-up epoch: sizes the slot map and the per-vessel pool vectors.
  constexpr uint32_t kVessels = 32;
  constexpr int kPointsPer = 64;
  for (uint32_t v = 0; v < kVessels; ++v) {
    for (int i = 0; i < kPointsPer; ++i) {
      archive.Stage(1000 + v, Point(i * 1000, 10.0, 20.0));
    }
  }
  ASSERT_TRUE(archive.CloseEpoch().ok());

  // Steady state: the same vessel population stages with zero allocations.
  const uint64_t before = AllocProbe::ThreadCount();
  for (uint32_t v = 0; v < kVessels; ++v) {
    for (int i = 0; i < kPointsPer; ++i) {
      archive.Stage(1000 + v, Point(100000 + i * 1000, 10.0, 20.0));
    }
  }
  EXPECT_EQ(AllocProbe::ThreadCount() - before, 0u)
      << "archive staging allocated on the ingest hot path";
}

// --- Coordinator-side merged enriched stream --------------------------------

TEST(QueryServingTest, DrainEnrichedOrderedMatchesSequential) {
  const ScenarioOutput scenario = MakeScenario(7106, true);
  PipelineConfig pc = ArchiveConfig();
  // No drops: exact comparison. Both the enrichment input queue and the
  // enriched drain buffer must hold the whole scenario, else a shard worker
  // that outpaces its enrichment worker evicts points.
  pc.enrichment_queue_depth = 1 << 20;
  pc.enriched_output_capacity = 1 << 20;
  // Windows close on line count alone and every full batch ends on a window
  // boundary, so after each full batch both pipelines have processed the
  // same lines and their drains cover the same points.
  pc.window_time_ms = 0;
  constexpr size_t kBatch = 1024;
  ASSERT_EQ(kBatch % pc.window_lines, 0u);
  const std::span<const Event<std::string>> lines(scenario.nmea);

  // Every drain appends to a vector that already holds a sentinel and all
  // earlier drains: only the appended range may be reordered.
  EnrichedPoint sentinel;
  sentinel.base.mmsi = 1;
  sentinel.base.point.t = kMaxTimestamp;
  const auto run = [&](auto& pipeline, std::vector<size_t>* drained) {
    std::vector<EnrichedPoint> out{sentinel};
    for (size_t off = 0; off < lines.size(); off += kBatch) {
      const size_t take = std::min(kBatch, lines.size() - off);
      pipeline.IngestBatch(lines.subspan(off, take));
      if (take < kBatch) break;  // open window: drained after Finish
      pipeline.FlushEnrichment();  // a no-op on the sequential pipeline
      drained->push_back(pipeline.DrainEnrichedOrdered(&out));
    }
    pipeline.Finish();
    drained->push_back(pipeline.DrainEnrichedOrdered(&out));
    return out;
  };

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  std::vector<size_t> seq_drains;
  const std::vector<EnrichedPoint> seq = run(sequential, &seq_drains);
  ASSERT_GT(seq_drains.size(), 3u);
  ASSERT_GT(seq.size(), seq_drains.size());
  EXPECT_EQ(seq.front().base.point.t, kMaxTimestamp);

  for (const size_t num_shards : {1, 3}) {
    ShardedPipeline::Options opts;
    opts.num_shards = num_shards;
    ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                            nullptr);
    std::vector<size_t> shd_drains;
    const std::vector<EnrichedPoint> shd = run(sharded, &shd_drains);
    ASSERT_EQ(sharded.metrics().enrichment_stage.queue_dropped, 0u);

    EXPECT_EQ(shd_drains, seq_drains) << num_shards << " shards";
    ASSERT_EQ(shd.size(), seq.size()) << num_shards << " shards";
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].base.mmsi, shd[i].base.mmsi) << "at " << i;
      EXPECT_EQ(seq[i].base.point.t, shd[i].base.point.t) << "at " << i;
      EXPECT_EQ(seq[i].base.point.position.lat, shd[i].base.point.position.lat);
      EXPECT_EQ(seq[i].zone_ids, shd[i].zone_ids);
    }
  }
}

}  // namespace
}  // namespace marlin
