#ifndef MARLIN_STORAGE_ARCHIVE_H_
#define MARLIN_STORAGE_ARCHIVE_H_

/// \file archive.h
/// \brief Per-shard historical archive: PackedBits position blocks, optional
/// LSM durability, secondary indexes, and epoch-published read snapshots.
///
/// This is the storage half of the historical serving tier (ROADMAP
/// direction 3). Each `PipelineShardCore` owns one `ShardArchive` for its
/// vessel partition; the coordinator-side `QueryEngine`
/// (core/query_engine.h) fans out over the per-shard snapshots and merges.
///
/// Write path (shard worker thread only):
///   * `Stage(mmsi, point)` runs per clean reconstructed point. It is a
///     pooled vector push — no allocation in steady state — so the ingest
///     hot path pays nothing for archival beyond the copy.
///   * `CloseEpoch()` runs at every pipeline window close. The staged
///     points are cut into one *position block* per (vessel, window) —
///     count, base time, then delta-time / scaled-int coordinate / float
///     kinematics columns packed MSB-first into `PackedBits` words (≤ 2
///     shift/mask ops per field on decode) — written to the shard's
///     `LsmStore` under the archival `[mmsi:4][first_t:8]` key when the
///     archive is durable, and published to readers. A volatile archive
///     (empty directory) has no store: its segments are the only copy.
///
/// Window boundaries are fixed by the input stream (`WindowMustClose`), so
/// every pipeline arrangement cuts byte-identical blocks — the equivalence
/// proof leans on this.
///
/// Index maintenance is bounded per window close: the published state is a
/// list of immutable *segments*, each holding its blocks (in epoch order)
/// plus its own static STR `RTree` and centered `IntervalIndex` (entry id =
/// index into the segment). A close indexes its epoch's blocks as one new
/// segment, then merges the two newest segments while the older holds
/// fewer than twice the blocks of the newer and fewer than `kSealBlocks`.
/// A segment that reaches `kSealBlocks` is *sealed*: it is never rebuilt,
/// and a close re-indexes fewer than 2 × `kSealBlocks` older blocks
/// whatever the history. The sealed segments form the oldest prefix of the
/// list (one per ~1–2 × `kSealBlocks` blocks); behind them, the open tail's
/// sizes at least double from newest to oldest, so it holds at most
/// bit_width(kSealBlocks) + 1 segments (the logarithmic method, capped).
/// There is no unindexed tail and no tunable: every published block is
/// indexed, and a query skips a segment whose time span misses its range.
///
/// Read path (any thread): `snapshot()` hands out a shared_ptr to an
/// immutable `PartitionSnapshot` — epoch-style handoff, so N concurrent
/// readers never observe a half-built epoch and never hold a lock while
/// scanning. The handoff itself is a mutex-guarded pointer copy (a refcount
/// increment; `std::atomic<shared_ptr>` would be lock-free but libstdc++'s
/// implementation is not TSan-clean), so the only writer/reader contention
/// is that single copy — readers cannot stall ingest staging, and an epoch
/// publish waits at most one refcount bump. Segments are shared between
/// consecutive snapshots (shared_ptr) — a snapshot pins exactly the
/// segments it was published with, even after the writer merges them away —
/// so publishing costs one pointer copy per segment.

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/packed_bits.h"
#include "common/result.h"
#include "common/status.h"
#include "common/time.h"
#include "geo/geometry.h"
#include "storage/interval_index.h"
#include "storage/lsm_store.h"
#include "storage/rtree.h"
#include "storage/trajectory.h"

namespace marlin {

/// \brief Serving-tier configuration, embedded in `PipelineConfig`.
struct ArchiveOptions {
  /// Master switch; off keeps the pipelines byte-for-byte on their
  /// pre-serving-tier behavior (no staging, no snapshots).
  bool enabled = false;
  /// Root directory for the per-shard LSM stores (shard i appends
  /// "/shard_<i>"); empty = volatile in-memory archives with no store.
  std::string directory;
  /// Per-shard LSM memtable flush threshold (durable archives only).
  size_t memtable_bytes_limit = 4 * 1024 * 1024;
  /// Per-shard LSM run-count compaction trigger (durable archives only).
  int max_runs = 8;
  /// Compact on the store's background thread (default) instead of inline
  /// on the shard worker (durable archives only).
  bool background_compaction = true;
  /// On open, scan the LSM store and rebuild the in-memory segment /
  /// indexes / snapshot from the durable blocks, so a restarted shard serves
  /// its persisted history immediately. Off for the supervised-restart
  /// rebuild path, which replays the raw batches instead (replaying into an
  /// archive that already re-served its LSM contents would double-publish).
  bool recover_on_open = true;
  /// fdatasync the archive WAL on every block append (LsmStore::wal_sync).
  bool wal_sync = false;
};

/// \brief One (vessel, window) column block: metadata plus the packed
/// payload. Immutable after `CloseEpoch` publishes it.
struct PositionBlock {
  uint32_t mmsi = 0;
  Timestamp t0 = 0;          ///< first point's time
  Timestamp t1 = 0;          ///< last point's time
  uint32_t count = 0;
  BoundingBox bounds;        ///< spatial extent of the block's points
  PackedBits data;           ///< column-encoded points (see EncodePositionBlock)
};

/// \brief Column-encodes `points` (ascending time, same vessel) into `out`
/// (cleared first). Columnar layout — all values of one field, then the
/// next: delta times from the previous point (40-bit unsigned, first delta
/// 0 against `points[0].t`), latitudes then longitudes as signed 32-bit
/// 1e-7-degree fixed point (~1 cm quantum — the equivalence proofs compare
/// archive to archive, so the quantization is invisible to them), SOG then
/// COG as raw float bits.
void EncodePositionBlock(const std::vector<TrajectoryPoint>& points,
                         PackedBits* out);

/// \brief Decodes `count` points from a block payload, appending to `out`.
Status DecodePositionBlock(const PackedBits& data, uint32_t count, uint32_t mmsi,
                           Timestamp t0, std::vector<TrajectoryPoint>* out);

/// \brief LSM value form of a block: [count:4 BE][size_bits:4 BE][words BE].
std::string SerializeBlockValue(const PositionBlock& block);

/// \brief Parses a serialized block value back into count/data (metadata
/// t0/mmsi come from the key; t1/bounds are recomputed on decode).
Status ParseBlockValue(std::string_view value, uint32_t* count,
                       PackedBits* data);

/// \brief Mergeable serving-tier counters (surfaced in PipelineMetrics).
struct ArchiveStats {
  uint64_t points_staged = 0;
  uint64_t blocks = 0;
  uint64_t epochs = 0;
  uint64_t segment_merges = 0;
  uint64_t encoded_bytes = 0;   ///< packed payload bytes across all blocks
  uint64_t lsm_flushes = 0;
  uint64_t lsm_compactions = 0;
  uint64_t prefix_bloom_skipped = 0;  ///< runs skipped on vessel scans
  // Fault-tolerance ledger (counted-not-silent).
  uint64_t recovered_blocks = 0;     ///< blocks rebuilt from the LSM at open
  uint64_t blocks_quarantined = 0;   ///< undecodable block values skipped
  uint64_t put_failures = 0;         ///< blocks whose LSM put failed
  uint64_t points_at_risk = 0;       ///< points inside failed-put blocks
  uint64_t wal_torn_truncated = 0;   ///< LSM: torn WAL bytes cut at open
  uint64_t runs_quarantined = 0;     ///< LSM: corrupt runs quarantined
  uint64_t temps_removed = 0;        ///< LSM: orphaned temps reaped

  void Merge(const ArchiveStats& o) {
    points_staged += o.points_staged;
    blocks += o.blocks;
    epochs += o.epochs;
    segment_merges += o.segment_merges;
    encoded_bytes += o.encoded_bytes;
    lsm_flushes += o.lsm_flushes;
    lsm_compactions += o.lsm_compactions;
    prefix_bloom_skipped += o.prefix_bloom_skipped;
    recovered_blocks += o.recovered_blocks;
    blocks_quarantined += o.blocks_quarantined;
    put_failures += o.put_failures;
    points_at_risk += o.points_at_risk;
    wal_torn_truncated += o.wal_torn_truncated;
    runs_quarantined += o.runs_quarantined;
    temps_removed += o.temps_removed;
  }
};

/// \brief One shard partition of the historical archive.
class ShardArchive {
 public:
  /// \brief Immutable run of blocks with its own indexes (entry id =
  /// index into `blocks`) and its time span, so a query whose range covers
  /// the whole segment takes every block without stabbing the interval
  /// index, and one whose range misses it skips it untouched.
  struct Segment {
    /// Epoch order (within an epoch: ascending MMSI).
    std::vector<std::shared_ptr<const PositionBlock>> blocks;
    RTree rtree;
    IntervalIndex intervals;
    Timestamp t0 = 0;  ///< earliest block `t0`
    Timestamp t1 = 0;  ///< latest block `t1`
  };

  /// \brief Immutable read snapshot, published at epoch close.
  struct PartitionSnapshot {
    uint64_t epoch = 0;
    /// Oldest first; concatenated, their blocks are every published block
    /// in epoch order.
    std::vector<std::shared_ptr<const Segment>> segments;
    size_t block_count = 0;
  };

  /// \brief A segment that holds this many blocks is sealed: no later close
  /// merges it, so a close's re-indexing work is O(kSealBlocks).
  static constexpr size_t kSealBlocks = 1024;

  /// \brief `directory` is this shard's own LSM directory (already
  /// suffixed); empty = volatile, with no LSM store.
  ShardArchive(const ArchiveOptions& options, std::string directory);

  ShardArchive(const ShardArchive&) = delete;
  ShardArchive& operator=(const ShardArchive&) = delete;

  /// \brief Stages one clean point (writer thread). Steady state is
  /// allocation-free: the per-vessel staging vectors and the vessel slot
  /// map are pooled across epochs.
  void Stage(uint32_t mmsi, const TrajectoryPoint& point);

  /// \brief Cuts the staged points into blocks, persists them (durable
  /// archives), indexes them as a new segment (merging unsealed segments
  /// per the doubling rule), and publishes a new snapshot (writer thread;
  /// called at pipeline window close). A close with nothing staged
  /// publishes nothing and costs O(1).
  Status CloseEpoch();

  /// \brief Current read snapshot (any thread; the critical section is one
  /// shared_ptr copy). Never null — an empty snapshot precedes the first
  /// epoch.
  std::shared_ptr<const PartitionSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return snapshot_;
  }

  /// \brief Re-reads one vessel's blocks overlapping [t0, t1] from the LSM
  /// store (durability path, exercises the prefix Bloom filters). Decoded
  /// points are appended in ascending time order. Returns NotFound when
  /// the archive has no durable store (volatile, or its directory could
  /// not be opened).
  Status LoadVesselRange(uint32_t mmsi, Timestamp t0, Timestamp t1,
                         std::vector<TrajectoryPoint>* out) const;

  /// \brief Serving-tier counters including the LSM store's (writer thread,
  /// or any thread while the writer is quiescent).
  ArchiveStats stats() const;

  /// Null when the archive has no durable store.
  LsmStore* lsm() { return lsm_.get(); }
  const std::string& directory() const { return directory_; }

 private:
  /// Rebuilds segments_/snapshot from the durable LSM contents
  /// (crash-consistent recovery; see ArchiveOptions::recover_on_open).
  void RecoverFromLsm();

  /// Publishes segments_ as the snapshot for epoch_.
  void Publish();

  ArchiveOptions options_;
  std::string directory_;
  /// Null for a volatile archive, and when the directory could not be
  /// opened (the archive then serves from memory alone).
  std::unique_ptr<LsmStore> lsm_;

  // Staging pool (writer thread only). `slots_` maps a vessel to its pool
  // index for the current epoch; `staged_` lists occupied pool slots in
  // first-touch order. Clearing keeps every vector's capacity.
  FlatHashMap<uint32_t, uint32_t> slots_;
  std::vector<std::vector<TrajectoryPoint>> pool_;
  std::vector<uint32_t> staged_;

  // Writer-side master copy of the published state.
  std::vector<std::shared_ptr<const Segment>> segments_;
  uint64_t epoch_ = 0;
  ArchiveStats stats_;

  /// Guards only the published pointer below — never held while scanning
  /// or while the writer builds an epoch.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const PartitionSnapshot> snapshot_;
};

}  // namespace marlin

#endif  // MARLIN_STORAGE_ARCHIVE_H_
