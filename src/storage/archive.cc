#include "storage/archive.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/fault.h"
#include "storage/coding.h"

namespace marlin {

namespace {

// Field widths of the block column encoding. 40-bit deltas cover ~34 years
// between consecutive points of one vessel; coordinates are 1e-7-degree
// fixed point (int32 covers ±214°, so the AIS not-available sentinels 91/181
// encode losslessly too).
constexpr int kDtBits = 40;
constexpr int kCoordBits = 32;
constexpr int kFloatBits = 32;
constexpr double kCoordScale = 1e7;

int64_t QuantizeCoord(double degrees) {
  return std::llround(degrees * kCoordScale);
}

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

float BitsFloat(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Seals `blocks` into a segment with its own indexes over them.
std::shared_ptr<const ShardArchive::Segment> MakeSegment(
    std::vector<std::shared_ptr<const PositionBlock>> blocks) {
  auto segment = std::make_shared<ShardArchive::Segment>();
  std::vector<RTreeEntry> boxes;
  std::vector<IntervalEntry> spans;
  boxes.reserve(blocks.size());
  spans.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const PositionBlock& block = *blocks[i];
    boxes.push_back(RTreeEntry{block.bounds, i});
    spans.push_back(IntervalEntry{block.t0, block.t1, i});
    segment->t0 = i == 0 ? block.t0 : std::min(segment->t0, block.t0);
    segment->t1 = i == 0 ? block.t1 : std::max(segment->t1, block.t1);
  }
  segment->blocks = std::move(blocks);
  segment->rtree = RTree(std::move(boxes));
  segment->intervals = IntervalIndex(std::move(spans));
  return segment;
}

}  // namespace

void EncodePositionBlock(const std::vector<TrajectoryPoint>& points,
                         PackedBits* out) {
  out->Clear();
  out->ReserveBits(points.size() *
                   (kDtBits + 2 * kCoordBits + 2 * kFloatBits));
  Timestamp prev = points.empty() ? 0 : points.front().t;
  for (const TrajectoryPoint& p : points) {
    out->AppendBits(static_cast<uint64_t>(p.t - prev), kDtBits);
    prev = p.t;
  }
  for (const TrajectoryPoint& p : points) {
    out->AppendBits(static_cast<uint64_t>(QuantizeCoord(p.position.lat)),
                    kCoordBits);
  }
  for (const TrajectoryPoint& p : points) {
    out->AppendBits(static_cast<uint64_t>(QuantizeCoord(p.position.lon)),
                    kCoordBits);
  }
  for (const TrajectoryPoint& p : points) {
    out->AppendBits(FloatBits(p.sog_mps), kFloatBits);
  }
  for (const TrajectoryPoint& p : points) {
    out->AppendBits(FloatBits(p.cog_deg), kFloatBits);
  }
}

Status DecodePositionBlock(const PackedBits& data, uint32_t count, uint32_t mmsi,
                           Timestamp t0, std::vector<TrajectoryPoint>* out) {
  (void)mmsi;
  const size_t base = out->size();
  out->resize(base + count);
  PackedBitReader reader(data);
  Timestamp t = t0;
  for (uint32_t i = 0; i < count; ++i) {
    MARLIN_ASSIGN_OR_RETURN(uint64_t dt, reader.ReadUnsigned(kDtBits));
    t += static_cast<Timestamp>(dt);
    (*out)[base + i].t = t;
  }
  for (uint32_t i = 0; i < count; ++i) {
    MARLIN_ASSIGN_OR_RETURN(int64_t lat, reader.ReadSigned(kCoordBits));
    (*out)[base + i].position.lat = static_cast<double>(lat) / kCoordScale;
  }
  for (uint32_t i = 0; i < count; ++i) {
    MARLIN_ASSIGN_OR_RETURN(int64_t lon, reader.ReadSigned(kCoordBits));
    (*out)[base + i].position.lon = static_cast<double>(lon) / kCoordScale;
  }
  for (uint32_t i = 0; i < count; ++i) {
    MARLIN_ASSIGN_OR_RETURN(uint64_t sog, reader.ReadUnsigned(kFloatBits));
    (*out)[base + i].sog_mps = BitsFloat(static_cast<uint32_t>(sog));
  }
  for (uint32_t i = 0; i < count; ++i) {
    MARLIN_ASSIGN_OR_RETURN(uint64_t cog, reader.ReadUnsigned(kFloatBits));
    (*out)[base + i].cog_deg = BitsFloat(static_cast<uint32_t>(cog));
  }
  return Status::OK();
}

std::string SerializeBlockValue(const PositionBlock& block) {
  std::string v;
  v.reserve(8 + block.data.word_count() * 8);
  PutFixed32BE(&v, block.count);
  PutFixed32BE(&v, static_cast<uint32_t>(block.data.size_bits()));
  for (size_t i = 0; i < block.data.word_count(); ++i) {
    PutFixed64BE(&v, block.data.word(i));
  }
  return v;
}

Status ParseBlockValue(std::string_view value, uint32_t* count,
                       PackedBits* data) {
  if (value.size() < 8) return Status::Corruption("block value truncated");
  *count = GetFixed32BE(value, 0);
  const uint32_t size_bits = GetFixed32BE(value, 4);
  const size_t words = (static_cast<size_t>(size_bits) + 63) / 64;
  if (value.size() != 8 + words * 8) {
    return Status::Corruption("block value word count mismatch");
  }
  data->Clear();
  data->ReserveBits(size_bits);
  size_t remaining = size_bits;
  for (size_t i = 0; i < words; ++i) {
    const int width = static_cast<int>(std::min<size_t>(64, remaining));
    data->AppendBits(GetFixed64BE(value, 8 + i * 8) >> (64 - width), width);
    remaining -= static_cast<size_t>(width);
  }
  return Status::OK();
}

ShardArchive::ShardArchive(const ArchiveOptions& options, std::string directory)
    : options_(options), directory_(std::move(directory)) {
  snapshot_ = std::make_shared<const PartitionSnapshot>();
  // A volatile archive serves from its segments alone: no store, no
  // memtable, no compactor thread.
  if (directory_.empty()) return;
  LsmStore::Options lsm_options;
  lsm_options.memtable_bytes_limit = options_.memtable_bytes_limit;
  lsm_options.max_runs = options_.max_runs;
  lsm_options.background_compaction = options_.background_compaction;
  lsm_options.wal_sync = options_.wal_sync;
  lsm_options.directory = directory_;
  auto opened = LsmStore::Open(lsm_options);
  // Unwritable directory: degrade to a volatile archive rather than
  // poisoning the ingest path. Durability is lost, serving still works.
  if (!opened.ok()) return;
  lsm_ = std::move(opened).ValueOrDie();
  if (options_.recover_on_open) RecoverFromLsm();
}

void ShardArchive::RecoverFromLsm() {
  // The durable prefix lives in the LSM (WAL replay + surviving runs, torn
  // tails and corrupt runs already cut/quarantined by LsmStore::Open).
  // Rebuild the served state from it: one PositionBlock per key, in key
  // order — mmsi-major, time-ascending. That is not the original epoch
  // order, but the query layer canonically re-sorts rows per partition
  // (see QueryEngine::ScanPartition), so served results are byte-identical
  // to an archive that never crashed, for the durable rows.
  std::vector<std::shared_ptr<const PositionBlock>> blocks;
  std::unique_ptr<KvIterator> it = lsm_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    uint32_t mmsi = 0;
    Timestamp t0 = 0;
    uint32_t count = 0;
    PackedBits data;
    std::vector<TrajectoryPoint> points;
    if (!DecodeTrajectoryKey(it->key(), &mmsi, &t0) ||
        !ParseBlockValue(it->value(), &count, &data).ok() ||
        !DecodePositionBlock(data, count, mmsi, t0, &points).ok() ||
        points.empty()) {
      // Undecodable block value: counted, skipped, never served.
      ++stats_.blocks_quarantined;
      continue;
    }
    auto block = std::make_shared<PositionBlock>();
    block->mmsi = mmsi;
    block->t0 = points.front().t;
    block->t1 = points.back().t;
    block->count = count;
    for (const TrajectoryPoint& p : points) block->bounds.Extend(p.position);
    block->data = std::move(data);
    blocks.push_back(std::move(block));
    ++stats_.recovered_blocks;
  }
  if (blocks.empty() && stats_.blocks_quarantined == 0) return;

  // Recovery is rare: one segment over the whole durable prefix.
  if (!blocks.empty()) segments_.push_back(MakeSegment(std::move(blocks)));
  ++epoch_;
  Publish();
}

void ShardArchive::Publish() {
  size_t block_count = 0;
  for (const auto& segment : segments_) block_count += segment->blocks.size();
  std::shared_ptr<const PartitionSnapshot> snapshot =
      std::make_shared<const PartitionSnapshot>(
          PartitionSnapshot{epoch_, segments_, block_count});
  // Swap under the lock; the previous snapshot is released outside it.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_.swap(snapshot);
}

void ShardArchive::Stage(uint32_t mmsi, const TrajectoryPoint& point) {
  MARLIN_FAULT_POINT("archive.stage");
  auto [slot, inserted] = slots_.TryEmplace(mmsi);
  if (inserted) {
    *slot = static_cast<uint32_t>(staged_.size());
    if (pool_.size() <= *slot) pool_.emplace_back();
    staged_.push_back(mmsi);
  }
  pool_[*slot].push_back(point);
  ++stats_.points_staged;
}

Status ShardArchive::CloseEpoch() {
  MARLIN_FAULT_POINT("archive.close_epoch");
  ++epoch_;
  ++stats_.epochs;
  if (staged_.empty()) return Status::OK();

  // Ascending MMSI gives a deterministic block order within the epoch
  // regardless of arrival order (the slot map's iteration order is not
  // canonical).
  std::sort(staged_.begin(), staged_.end());
  std::vector<std::shared_ptr<const PositionBlock>> fresh;
  fresh.reserve(staged_.size());
  Status status = Status::OK();
  for (const uint32_t mmsi : staged_) {
    std::vector<TrajectoryPoint>& points = pool_[*slots_.Find(mmsi)];
    auto block = std::make_shared<PositionBlock>();
    block->mmsi = mmsi;
    block->t0 = points.front().t;
    block->t1 = points.back().t;
    block->count = static_cast<uint32_t>(points.size());
    for (const TrajectoryPoint& p : points) block->bounds.Extend(p.position);
    EncodePositionBlock(points, &block->data);
    points.clear();  // keep capacity for the next epoch

    ++stats_.blocks;
    stats_.encoded_bytes += block->data.word_count() * 8;
    if (lsm_ != nullptr) {
      Status put = Status::OK();
      if (FaultInjector::armed()) {
        if (FaultInjector::HitIo("archive.close_epoch.write")) {
          put = Status::IOError("injected fault: archive.close_epoch.write");
        }
      }
      if (put.ok()) {
        put = lsm_->Put(EncodeTrajectoryKey(mmsi, block->t0),
                        SerializeBlockValue(*block));
      }
      if (!put.ok()) {
        // The block still serves from memory this run, but its durability
        // failed: count it (and its points) as data at risk.
        ++stats_.put_failures;
        stats_.points_at_risk += block->count;
        if (status.ok()) status = put;
      }
    }
    fresh.push_back(std::move(block));
  }
  slots_.Clear();
  staged_.clear();

  // Index the epoch as a new segment, then merge while the older of the
  // two newest segments is unsealed and under twice the newer: unsealed
  // sizes at least double towards the oldest, and a segment of
  // kSealBlocks or more is never rebuilt.
  segments_.push_back(MakeSegment(std::move(fresh)));
  while (segments_.size() >= 2 &&
         segments_[segments_.size() - 2]->blocks.size() < kSealBlocks &&
         segments_[segments_.size() - 2]->blocks.size() <
             2 * segments_.back()->blocks.size()) {
    const Segment& newer = *segments_.back();
    const Segment& older = *segments_[segments_.size() - 2];
    std::vector<std::shared_ptr<const PositionBlock>> merged;
    merged.reserve(older.blocks.size() + newer.blocks.size());
    merged.insert(merged.end(), older.blocks.begin(), older.blocks.end());
    merged.insert(merged.end(), newer.blocks.begin(), newer.blocks.end());
    segments_.pop_back();
    segments_.back() = MakeSegment(std::move(merged));
    ++stats_.segment_merges;
  }

  MARLIN_FAULT_POINT("archive.snapshot.publish");
  Publish();
  return status;
}

Status ShardArchive::LoadVesselRange(uint32_t mmsi, Timestamp t0, Timestamp t1,
                                     std::vector<TrajectoryPoint>* out) const {
  if (lsm_ == nullptr) {
    return Status::NotFound("archive has no durable store");
  }
  // Scan the vessel's full key range (a block starting before t0 can still
  // overlap it) — both bounds share the MMSI prefix, so the per-run prefix
  // Bloom filter prunes runs without this vessel.
  const auto entries = lsm_->Scan(EncodeTrajectoryKey(mmsi, kInvalidTimestamp),
                                  EncodeTrajectoryKey(mmsi, kMaxTimestamp));
  std::vector<TrajectoryPoint> scratch;
  for (const auto& [key, value] : entries) {
    uint32_t key_mmsi = 0;
    Timestamp block_t0 = 0;
    if (!DecodeTrajectoryKey(key, &key_mmsi, &block_t0)) {
      return Status::Corruption("bad archive block key");
    }
    if (block_t0 > t1) break;  // keys ascend in time within the vessel
    uint32_t count = 0;
    PackedBits data;
    MARLIN_RETURN_NOT_OK(ParseBlockValue(value, &count, &data));
    scratch.clear();
    MARLIN_RETURN_NOT_OK(
        DecodePositionBlock(data, count, key_mmsi, block_t0, &scratch));
    for (const TrajectoryPoint& p : scratch) {
      if (p.t >= t0 && p.t <= t1) out->push_back(p);
    }
  }
  return Status::OK();
}

ArchiveStats ShardArchive::stats() const {
  ArchiveStats out = stats_;
  if (lsm_ != nullptr) {
    const LsmStore::Stats lsm_stats = lsm_->stats();
    out.lsm_flushes = lsm_stats.flushes;
    out.lsm_compactions = lsm_stats.compactions;
    out.prefix_bloom_skipped = lsm_stats.prefix_bloom_skipped;
    out.wal_torn_truncated = lsm_stats.wal_torn_truncated;
    out.runs_quarantined = lsm_stats.runs_quarantined;
    out.temps_removed = lsm_stats.temps_removed;
  }
  return out;
}

}  // namespace marlin
