#include "core/query_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <numeric>

namespace marlin {

namespace {

/// Full-payload tie-break so the within-partition sort is a total order:
/// (t, mmsi) is unique per partition by construction (one point per vessel
/// per timestamp survives reconstruction), but a total comparator keeps the
/// determinism proof independent of that invariant.
bool RowLess(const QueryRow& a, const QueryRow& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
  if (a.position.lat != b.position.lat) return a.position.lat < b.position.lat;
  if (a.position.lon != b.position.lon) return a.position.lon < b.position.lon;
  // Kinematics tie-break on bit patterns: a numeric `<` over NaN payloads
  // (unavailable kinematics) violates strict weak ordering and is UB for
  // std::sort. Both fields are non-negative when available, so bit order
  // coincides with numeric order there.
  const auto sog_a = std::bit_cast<uint32_t>(a.sog_mps);
  const auto sog_b = std::bit_cast<uint32_t>(b.sog_mps);
  if (sog_a != sog_b) return sog_a < sog_b;
  return std::bit_cast<uint32_t>(a.cog_deg) <
         std::bit_cast<uint32_t>(b.cog_deg);
}

/// Sorts one partition's rows into `RowLess` order: a stable LSD radix sort
/// of (t - t_min, row index) keys, one byte of t per pass, one gather of the
/// rows, then `RowLess` over each run tied on t. Each pass is linear and
/// branch-free, so the sort costs O(n) per byte of the time span where a
/// comparison sort pays n log n data-dependent branches.
void SortRows(std::vector<QueryRow>* rows) {
  const size_t n = rows->size();
  if (n < 2) return;
  const auto [lo, hi] = std::minmax_element(
      rows->begin(), rows->end(),
      [](const QueryRow& a, const QueryRow& b) { return a.t < b.t; });
  const auto t_min = static_cast<uint64_t>(lo->t);
  const int t_bits = std::bit_width(static_cast<uint64_t>(hi->t) - t_min);
  struct Key {
    uint64_t t;  // t - t_min
    size_t row;
  };
  std::vector<Key> keys(n), scratch(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = Key{static_cast<uint64_t>((*rows)[i].t) - t_min, i};
  }
  for (int shift = 0; shift < t_bits; shift += 8) {
    std::array<size_t, 257> starts{};
    for (const Key& k : keys) ++starts[((k.t >> shift) & 0xFF) + 1];
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    for (const Key& k : keys) scratch[starts[(k.t >> shift) & 0xFF]++] = k;
    keys.swap(scratch);
  }
  std::vector<QueryRow> sorted;
  sorted.reserve(n);
  for (const Key& k : keys) sorted.push_back((*rows)[k.row]);
  for (auto run = sorted.begin(); run != sorted.end();) {
    const Timestamp t = run->t;
    const auto end = std::find_if(
        run + 1, sorted.end(), [t](const QueryRow& r) { return r.t != t; });
    if (end - run > 1) std::sort(run, end, RowLess);
    run = end;
  }
  *rows = std::move(sorted);
}

/// Resamples the merged raw rows at a fixed cadence: per-vessel linear
/// interpolation between archived fixes via `Trajectory::At`, grid anchored
/// at the spec's t0 when finite (so different queries over the same data
/// share sample instants), else at each track's own start.
void Resample(const QuerySpec& spec, std::vector<QueryRow>* rows) {
  // std::map: deterministic vessel order for the rebuild below.
  std::map<Mmsi, Trajectory> tracks;
  for (const QueryRow& row : *rows) {
    Trajectory& traj = tracks[row.mmsi];
    traj.mmsi = row.mmsi;
    traj.points.push_back(
        TrajectoryPoint{row.t, row.position, row.sog_mps, row.cog_deg});
  }
  rows->clear();
  for (const auto& [mmsi, traj] : tracks) {
    const Timestamp start = traj.StartTime();
    const Timestamp end = std::min(spec.t1, traj.EndTime());
    Timestamp anchor = spec.t0 != kInvalidTimestamp ? spec.t0 : start;
    if (anchor < start) {
      // First grid instant at or after the track start (no extrapolation).
      const Timestamp steps = (start - anchor + spec.resample_ms - 1) /
                              spec.resample_ms;
      anchor += steps * spec.resample_ms;
    }
    for (Timestamp t = anchor; t <= end; t += spec.resample_ms) {
      const TrajectoryPoint p = traj.At(t);
      rows->push_back(QueryRow{t, mmsi, p.position, p.sog_mps, p.cog_deg});
    }
  }
  std::sort(rows->begin(), rows->end(), RowLess);
}

}  // namespace

QueryEngine::QueryEngine(std::vector<const ShardArchive*> partitions) {
  for (const ShardArchive* p : partitions) {
    if (p != nullptr) partitions_.push_back(p);
  }
}

void QueryEngine::ScanPartition(const ShardArchive::PartitionSnapshot& snapshot,
                                const ResolvedSpec& resolved,
                                std::vector<QueryRow>* rows,
                                QueryStats* stats) {
  const QuerySpec& spec = *resolved.spec;
  stats->partitions = 1;
  stats->blocks_total = snapshot.block_count;

  // Per segment: interval-tree stab for the time range (skipped when the
  // range misses the segment's span, which skips the segment, or covers
  // it, which takes every block), intersected with the R-tree hit set when
  // a region filter is present. Entry ids are block indexes within the
  // segment, so sorted sets intersect directly.
  std::vector<TrajectoryPoint> scratch;
  for (const auto& segment : snapshot.segments) {
    if (segment->t1 < spec.t0 || segment->t0 > spec.t1) {
      stats->blocks_skipped_time += segment->blocks.size();
      continue;
    }
    std::vector<uint64_t> candidates;
    if (spec.t0 <= segment->t0 && segment->t1 <= spec.t1) {
      candidates.resize(segment->blocks.size());
      std::iota(candidates.begin(), candidates.end(), uint64_t{0});
    } else {
      candidates = segment->intervals.Overlapping(spec.t0, spec.t1);
      std::sort(candidates.begin(), candidates.end());
    }
    stats->blocks_skipped_time += segment->blocks.size() - candidates.size();
    if (spec.region.has_value()) {
      std::vector<uint64_t> in_region = segment->rtree.Query(*spec.region);
      std::sort(in_region.begin(), in_region.end());
      std::vector<uint64_t> both;
      both.reserve(std::min(candidates.size(), in_region.size()));
      std::set_intersection(candidates.begin(), candidates.end(),
                            in_region.begin(), in_region.end(),
                            std::back_inserter(both));
      stats->blocks_skipped_region += candidates.size() - both.size();
      candidates = std::move(both);
    }

    for (const uint64_t id : candidates) {
      const PositionBlock& block = *segment->blocks[id];
      if (!resolved.vessels_sorted.empty() &&
          !std::binary_search(resolved.vessels_sorted.begin(),
                              resolved.vessels_sorted.end(), block.mmsi)) {
        ++stats->blocks_skipped_vessel;
        continue;
      }
      ++stats->blocks_scanned;
      scratch.clear();
      if (!DecodePositionBlock(block.data, block.count, block.mmsi, block.t0,
                               &scratch)
               .ok()) {
        continue;  // corrupt block: served-tier reads degrade, never throw
      }
      stats->points_decoded += scratch.size();
      for (const TrajectoryPoint& p : scratch) {
        if (p.t < spec.t0 || p.t > spec.t1) continue;
        if (spec.region.has_value() && !spec.region->Contains(p.position)) {
          continue;
        }
        rows->push_back(
            QueryRow{p.t, block.mmsi, p.position, p.sog_mps, p.cog_deg});
      }
    }
  }
  // Canonical partition order; the coordinator merge preserves it globally.
  SortRows(rows);
}

QueryResult QueryEngine::Execute(const QuerySpec& spec) const {
  QueryResult result;
  if (spec.t1 < spec.t0 || partitions_.empty()) return result;

  ResolvedSpec resolved;
  resolved.spec = &spec;
  resolved.vessels_sorted = spec.vessels;
  std::sort(resolved.vessels_sorted.begin(), resolved.vessels_sorted.end());

  // Pin every partition's current epoch snapshot for the whole query —
  // ingest can keep publishing new epochs underneath; we read a consistent
  // cut and never block it.
  std::vector<std::shared_ptr<const ShardArchive::PartitionSnapshot>> snaps;
  snaps.reserve(partitions_.size());
  for (const ShardArchive* p : partitions_) snaps.push_back(p->snapshot());

  std::vector<std::vector<QueryRow>> partition_rows(snaps.size());
  std::vector<QueryStats> partition_stats(snaps.size());
  for (size_t i = 0; i < snaps.size(); ++i) {
    ScanPartition(*snaps[i], resolved, &partition_rows[i],
                  &partition_stats[i]);
  }

  // Canonical order across partitions: stable merges in partition order,
  // so rows `RowLess` cannot tell apart keep their partition order.
  result.rows = std::move(partition_rows.front());
  std::vector<QueryRow> merged;
  for (size_t i = 1; i < partition_rows.size(); ++i) {
    const std::vector<QueryRow>& pr = partition_rows[i];
    merged.clear();
    merged.reserve(result.rows.size() + pr.size());
    std::merge(result.rows.begin(), result.rows.end(), pr.begin(), pr.end(),
               std::back_inserter(merged), RowLess);
    result.rows.swap(merged);
  }

  for (const QueryStats& ps : partition_stats) result.stats.Merge(ps);
  if (spec.resample_ms > 0) Resample(spec, &result.rows);
  result.stats.rows = result.rows.size();
  return result;
}

}  // namespace marlin
