#ifndef MARLIN_BENCH_E2E_E2E_H_
#define MARLIN_BENCH_E2E_E2E_H_

/// \file e2e.h
/// \brief Shared pieces of the end-to-end benchmark: workload table,
/// clocks, sample summaries and the output digests.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/events.h"
#include "core/pipeline.h"
#include "core/query_engine.h"
#include "sim/scenario.h"
#include "storage/trajectory.h"

namespace marlin::e2e {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsBetween(SteadyClock::time_point a,
                             SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time, all threads.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// High-water resident set size of this process (children excluded).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One workload: its corpus, its pipeline arrangement and how it is fed.
/// The reasons for each choice are in README.md.
struct WorkloadSpec {
  const char* name;
  DurationMs corpus_duration;
  /// The corpus is the scenario's first `max_lines` lines. Line counts of a
  /// scenario vary by ±8% between seeds; a fixed count keeps the work per
  /// pass, and so every metric, independent of the seed.
  size_t max_lines;
  int identity_swap_pairs;
  double missing_kinematics_rate;
  size_t shards;
  bool archive;
  bool anomaly;
  bool open_loop;  ///< fed over loopback TCP on a fixed schedule
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {"replay", 48 * kMillisPerHour, 560000, 0, 0.0, 1, false, false, false},
    {"replay_sharded", 48 * kMillisPerHour, 560000, 0, 0.0, 2, false, false,
     false},
    {"archive_soak", 24 * kMillisPerHour, 280000, 0, 0.0, 2, true, false,
     false},
    {"live_feed", 5 * kMillisPerHour, 64000, 2, 0.02, 2, false, true, true},
};

/// Closed-loop batch size, in lines.
inline constexpr size_t kBatchLines = 1024;
/// Open-loop send rate, lines per second. A live_feed pass sends its 64,000
/// lines in 3.2 s, so an 18 s run makes five passes (MedianOverPasses).
inline constexpr double kLiveRate = 20000.0;
/// Open-loop driver poll period.
inline constexpr auto kPollPeriod = std::chrono::microseconds(100);
/// Reader queries per archive_soak pass (query k waits for k/96 of ingest).
inline constexpr size_t kQueriesPerPass = 96;

/// The F2 fleet mix (bench/bench_f2_pipeline.cc) over the workload's span.
inline ScenarioConfig CorpusConfig(const WorkloadSpec& spec, uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.duration = spec.corpus_duration;
  config.transit_vessels = 30;
  config.fishing_vessels = 8;
  config.loiter_vessels = 3;
  config.rendezvous_pairs = 2;
  config.dark_vessels = 4;
  config.spoof_identity_vessels = 1;
  config.spoof_teleport_vessels = 1;
  config.identity_swap_pairs = spec.identity_swap_pairs;
  config.missing_speed_rate = spec.missing_kinematics_rate;
  config.missing_course_rate = spec.missing_kinematics_rate;
  return config;
}

inline PipelineConfig MakePipelineConfig(const WorkloadSpec& spec) {
  PipelineConfig config;
  config.archive.enabled = spec.archive;  // volatile: no directory
  config.enable_anomaly = spec.anomaly;
  return config;
}

/// Median and quartiles with the arithmetic of Python's
/// `statistics.median` and `statistics.quantiles(n=4)` (exclusive method),
/// so printed figures match what run.py and the spread check compute.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&v, n](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

/// Sample-wise median over passes: element i is the median of element i of
/// every pass. Every pass replays the same corpus, so element i is the same
/// window (or batch) in each. A neighbour's stall lands on one window in one
/// pass and drops out here; a window that is slow in every pass stays slow.
inline std::vector<double> MedianOverPasses(
    const std::vector<std::vector<double>>& passes) {
  size_t n = passes.empty() ? 0 : passes[0].size();
  for (const std::vector<double>& p : passes) n = std::min(n, p.size());
  std::vector<double> out(n);
  std::vector<double> column(passes.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < passes.size(); ++p) column[p] = passes[p][i];
    out[i] = Summarize(column).median;
  }
  return out;
}

/// Value at quantile `q` (nearest rank) — the informational p99 figures.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// 64-bit FNV-1a over fixed-width fields.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Field(const T& value) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    Bytes(raw, sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// Mixes every `DetectedEvent` field, in emitted order.
inline void MixEvents(const std::vector<DetectedEvent>& events, Fnv1a* h) {
  for (const DetectedEvent& ev : events) {
    h->Field(static_cast<uint8_t>(ev.type));
    h->Field(ev.start);
    h->Field(ev.end);
    h->Field(ev.vessel_a);
    h->Field(ev.vessel_b);
    h->Field(ev.where.lat);
    h->Field(ev.where.lon);
    h->Field(ev.zone_id);
    h->Field(ev.severity);
    h->Field(ev.detected_at);
  }
}

inline void MixPoint(Mmsi mmsi, const TrajectoryPoint& p, Fnv1a* h) {
  h->Field(mmsi);
  h->Field(p.t);
  h->Field(p.position.lat);
  h->Field(p.position.lon);
  h->Field(p.sog_mps);
  h->Field(p.cog_deg);
}

inline void MixRow(const QueryRow& r, Fnv1a* h) {
  h->Field(r.mmsi);
  h->Field(r.t);
  h->Field(r.position.lat);
  h->Field(r.position.lon);
  h->Field(r.sog_mps);
  h->Field(r.cog_deg);
}

/// Host speed probe. The benchmark shares its machine, and neighbours slow
/// every instruction by a fifth or more for minutes at a time — longer than
/// a run. This fixed job, shaped like the pipeline's per-line work (hash an
/// NMEA-shaped line, append a record to a per-key vector of a hash map), is
/// timed before and after every pass, and time-based metrics are scaled by
/// its time over `kProbeReferenceSeconds`: they read as at the reference
/// host speed (README.md has the measured effect). The probe is benchmark
/// code with a fixed input, so a change to the system moves the scaled
/// metrics in full.
class SpeedProbe {
 public:
  SpeedProbe() {
    static constexpr char kArmor[] =
        "0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVW`abcdefghijklmnopqrstuvw";
    uint64_t state = 0x9e3779b97f4a7c15ull;
    lines_.resize(160000);
    for (std::string& line : lines_) {
      line = "!AIVDM,1,1,,B,";
      for (int i = 0; i < 28; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        line += kArmor[state >> 58];
      }
      line += ",0*5C";
    }
  }

  /// Median of three timed runs of the job, in seconds.
  double Measure() const {
    double runs[3] = {RunOnce(), RunOnce(), RunOnce()};
    std::sort(runs, runs + 3);
    return runs[1];
  }

 private:
  struct Record {
    uint64_t hash;
    uint64_t index;
    double a;
    double b;
  };

  double RunOnce() const {
    const auto t0 = SteadyClock::now();
    std::unordered_map<uint32_t, std::vector<Record>> buckets;
    uint64_t checksum = 0;
    for (size_t i = 0; i < lines_.size(); ++i) {
      Fnv1a h;
      h.Bytes(lines_[i].data(), lines_[i].size());
      auto& bucket = buckets[static_cast<uint32_t>(h.value() % 4096)];
      bucket.push_back({h.value(), i, 1.0, 2.0});
      checksum += bucket.size();
    }
    probe_sink_ = checksum;
    return SecondsBetween(t0, SteadyClock::now());
  }

  std::vector<std::string> lines_;
  mutable volatile uint64_t probe_sink_ = 0;  // keeps the job from folding
};

/// The probe's time on the recording host (README.md) in a quiet period.
inline constexpr double kProbeReferenceSeconds = 0.018;

inline std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace marlin::e2e

#endif  // MARLIN_BENCH_E2E_E2E_H_
