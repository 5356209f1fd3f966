// Unit tests for marlin_core: event-time recovery, reconstruction, synopses,
// event recognition, patterns-of-life, forecasting, enrichment.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/enrichment.h"
#include "core/events.h"
#include "core/forecast.h"
#include "core/patterns.h"
#include "core/reconstruction.h"
#include "core/synopses.h"
#include "geo/geodesy.h"

namespace marlin {
namespace {

// --- ResolveEventTime -------------------------------------------------------

TEST(ResolveEventTimeTest, SecondsFieldRecovered) {
  // Received at 12:00:05.300; transmitted second = 3 → event 12:00:03.000.
  const Timestamp rx = ParseTimestamp("2017-03-21T12:00:05.300Z");
  EXPECT_EQ(ResolveEventTime(3, rx), ParseTimestamp("2017-03-21T12:00:03.000Z"));
}

TEST(ResolveEventTimeTest, PreviousMinuteWhenSecondsWrap) {
  // Received at 12:01:02; second field 58 → 12:00:58 of the previous minute.
  const Timestamp rx = ParseTimestamp("2017-03-21T12:01:02.000Z");
  EXPECT_EQ(ResolveEventTime(58, rx),
            ParseTimestamp("2017-03-21T12:00:58.000Z"));
}

TEST(ResolveEventTimeTest, SatelliteDelayRecovered) {
  // Received 7 minutes late; second field 30 → the most recent :30 within
  // the allowed age is just before receive time.
  const Timestamp tx = ParseTimestamp("2017-03-21T12:00:30.000Z");
  const Timestamp rx = tx + Minutes(7);
  const Timestamp resolved = ResolveEventTime(30, rx, Minutes(10));
  // Any candidate with :30 seconds at most 10 min old is acceptable; the
  // closest to rx is 12:07:30.
  EXPECT_EQ(resolved % kMillisPerMinute, 30 * kMillisPerSecond);
  EXPECT_LE(resolved, rx);
}

TEST(ResolveEventTimeTest, UnavailableSecondsFallsBack) {
  EXPECT_EQ(ResolveEventTime(60, 1234567), 1234567);
  EXPECT_EQ(ResolveEventTime(-1, 1234567), 1234567);
}

// --- TrajectoryReconstructor ----------------------------------------------

PositionReport MakeReport(Mmsi mmsi, Timestamp event_time,
                          const GeoPoint& pos, double sog_kn = 10.0,
                          double cog = 90.0, DurationMs latency = 1000) {
  PositionReport pr;
  pr.message_type = 1;
  pr.mmsi = mmsi;
  pr.position = pos;
  pr.sog_knots = sog_kn;
  pr.cog_deg = cog;
  pr.utc_second = static_cast<int>((event_time / 1000) % 60);
  pr.received_at = event_time + latency;
  return pr;
}

TEST(ReconstructionTest, CleanStreamPassesThrough) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  for (int i = 0; i < 20; ++i) {
    const GeoPoint pos = Destination(GeoPoint(40, 5), 90.0, 50.0 * i);
    recon.Ingest(MakeReport(1, t0 + i * 10000, pos), &points, &rejected);
  }
  recon.Flush(&points, &rejected);
  EXPECT_EQ(points.size(), 20u);
  EXPECT_TRUE(rejected.empty());
  EXPECT_TRUE(points.front().starts_segment);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_FALSE(points[i].starts_segment);
    EXPECT_GT(points[i].point.t, points[i - 1].point.t);
  }
}

TEST(ReconstructionTest, DuplicatesDropped) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  const auto report = MakeReport(1, t0, GeoPoint(40, 5));
  recon.Ingest(report, &points, &rejected);
  recon.Ingest(report, &points, &rejected);  // exact duplicate
  recon.Ingest(MakeReport(1, t0 + 10000, GeoPoint(40, 5.001)), &points,
               &rejected);
  recon.Flush(&points, &rejected);
  EXPECT_EQ(points.size(), 2u);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].reason, RejectedReport::Reason::kDuplicate);
  EXPECT_EQ(recon.stats().duplicates, 1u);
}

TEST(ReconstructionTest, OutOfOrderWithinDelayRepaired) {
  TrajectoryReconstructor::Options opts;
  opts.reorder_delay_ms = 60000;
  TrajectoryReconstructor recon(opts);
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  // Events arrive interleaved: 0, 20 s, 10 s (late satellite), 30 s.
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5.000)), &points, &rejected);
  recon.Ingest(MakeReport(1, t0 + 20000, GeoPoint(40, 5.002)), &points,
               &rejected);
  recon.Ingest(MakeReport(1, t0 + 10000, GeoPoint(40, 5.001), 10.0, 90.0,
                          25000),
               &points, &rejected);
  recon.Ingest(MakeReport(1, t0 + 30000, GeoPoint(40, 5.003)), &points,
               &rejected);
  recon.Flush(&points, &rejected);
  ASSERT_EQ(points.size(), 4u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].point.t, points[i].point.t);
  }
  EXPECT_TRUE(rejected.empty());
}

TEST(ReconstructionTest, ImpossibleJumpRejected) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5)), &points, &rejected);
  // 60 km in 10 s = 6 km/s — far beyond any vessel.
  recon.Ingest(MakeReport(1, t0 + 10000,
                          Destination(GeoPoint(40, 5), 45.0, 60000.0)),
               &points, &rejected);
  recon.Ingest(MakeReport(1, t0 + 20000, GeoPoint(40, 5.002)), &points,
               &rejected);
  recon.Flush(&points, &rejected);
  EXPECT_EQ(points.size(), 2u);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].reason, RejectedReport::Reason::kImpossibleJump);
  EXPECT_GT(rejected[0].implied_speed_mps, 1000.0);
}

TEST(ReconstructionTest, GapSegmentation) {
  TrajectoryReconstructor::Options opts;
  opts.gap_threshold_ms = Minutes(10);
  TrajectoryReconstructor recon(opts);
  std::vector<ReconstructedPoint> points;
  const Timestamp t0 = 1700000000000;
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5.0)), &points, nullptr);
  recon.Ingest(MakeReport(1, t0 + 10000, GeoPoint(40, 5.001)), &points,
               nullptr);
  // 40-minute silence, then reports resume (vessel moved meanwhile).
  recon.Ingest(MakeReport(1, t0 + Minutes(40), GeoPoint(40, 5.05)), &points,
               nullptr);
  recon.Flush(&points, nullptr);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[2].starts_segment);
  EXPECT_NEAR(static_cast<double>(points[2].gap_before_ms),
              static_cast<double>(Minutes(40) - 10000), 1000.0);
  EXPECT_EQ(recon.stats().segments_started, 2u);
}

TEST(ReconstructionTest, VesselsIndependent) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  const Timestamp t0 = 1700000000000;
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5)), &points, nullptr);
  // Vessel 2 is far away — not an outlier, it's a different ship.
  recon.Ingest(MakeReport(2, t0 + 1000, GeoPoint(43, 8)), &points, nullptr);
  recon.Flush(&points, nullptr);
  EXPECT_EQ(points.size(), 2u);
  EXPECT_EQ(recon.stats().outliers, 0u);
}

// --- SynopsisEngine ---------------------------------------------------------

Trajectory StraightTrajectory(Mmsi mmsi, int n, double speed_mps = 6.0) {
  Trajectory traj;
  traj.mmsi = mmsi;
  const GeoPoint start(40.0, 5.0);
  for (int i = 0; i < n; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = Destination(start, 90.0, speed_mps * 10.0 * i);
    p.sog_mps = static_cast<float>(speed_mps);
    p.cog_deg = 90.0f;
    traj.points.push_back(p);
  }
  return traj;
}

TEST(SynopsisTest, StraightLineCompressesHard) {
  SynopsisEngine engine;
  const Trajectory traj = StraightTrajectory(1, 500);
  const auto synopsis = engine.CompressTrajectory(traj);
  // Constant course & speed: only segment start/end + heartbeats survive.
  EXPECT_LT(synopsis.size(), 12u);
  EXPECT_GT(engine.stats().CompressionRatio(), 0.97);
  EXPECT_EQ(synopsis.front().type, CriticalPointType::kSegmentStart);
}

TEST(SynopsisTest, ReconstructionWithinErrorBound) {
  SynopsisEngine::Options opts;
  opts.deviation_threshold_m = 60.0;
  SynopsisEngine engine(opts);
  // A winding trajectory: course changes slowly.
  Trajectory traj;
  traj.mmsi = 1;
  GeoPoint pos(40.0, 5.0);
  double course = 90.0;
  Rng rng(251);
  for (int i = 0; i < 600; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 6.0f;
    p.cog_deg = static_cast<float>(course);
    traj.points.push_back(p);
    course += rng.Uniform(-1.5, 1.5);
    pos = Destination(pos, course, 60.0);
  }
  const auto synopsis = engine.CompressTrajectory(traj);
  const Trajectory rebuilt = ReconstructFromSynopsis(1, synopsis);
  const TrajectoryError err = ComputeSedError(traj, rebuilt);
  EXPECT_LT(synopsis.size(), traj.points.size() / 2);
  // Mean error well inside the bound; max can exceed it slightly because
  // emission is causal (no look-ahead).
  EXPECT_LT(err.mean_m, 60.0);
  EXPECT_LT(err.max_m, 4 * 60.0);
}

TEST(SynopsisTest, TurnsEmitCriticalPoints) {
  SynopsisEngine engine;
  Trajectory traj;
  traj.mmsi = 1;
  GeoPoint pos(40.0, 5.0);
  for (int i = 0; i < 100; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 6.0f;
    p.cog_deg = i < 50 ? 90.0f : 180.0f;  // sharp turn at i=50
    traj.points.push_back(p);
    pos = Destination(pos, p.cog_deg, 60.0);
  }
  const auto synopsis = engine.CompressTrajectory(traj);
  bool saw_turn = false;
  for (const auto& cp : synopsis) {
    if (cp.type == CriticalPointType::kTurn) saw_turn = true;
  }
  EXPECT_TRUE(saw_turn);
}

TEST(SynopsisTest, StopsAndRestartsEmitted) {
  SynopsisEngine engine;
  Trajectory traj;
  traj.mmsi = 1;
  const GeoPoint anchor(40.0, 5.0);
  for (int i = 0; i < 90; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    const bool stopped = i >= 30 && i < 60;
    p.sog_mps = stopped ? 0.1f : 6.0f;
    p.cog_deg = 90.0f;
    p.position = stopped
                     ? anchor
                     : Destination(anchor, 90.0, 60.0 * (i < 30 ? i - 30 : i - 60));
    traj.points.push_back(p);
  }
  const auto synopsis = engine.CompressTrajectory(traj);
  int stops = 0, restarts = 0;
  for (const auto& cp : synopsis) {
    if (cp.type == CriticalPointType::kStop) ++stops;
    if (cp.type == CriticalPointType::kRestart) ++restarts;
  }
  EXPECT_EQ(stops, 1);
  EXPECT_EQ(restarts, 1);
}

TEST(SynopsisTest, GapBoundariesAlwaysKept) {
  SynopsisEngine engine;
  std::vector<CriticalPoint> out;
  ReconstructedPoint rp;
  rp.mmsi = 1;
  rp.point = StraightTrajectory(1, 3).points[0];
  rp.starts_segment = true;
  engine.Ingest(rp, &out);
  rp.point = StraightTrajectory(1, 3).points[1];
  rp.starts_segment = false;
  engine.Ingest(rp, &out);
  // New segment after a gap.
  rp.point = StraightTrajectory(1, 3).points[2];
  rp.point.t += Hours(1);
  rp.starts_segment = true;
  rp.gap_before_ms = Hours(1);
  engine.Ingest(rp, &out);
  int seg_starts = 0, seg_ends = 0;
  for (const auto& cp : out) {
    if (cp.type == CriticalPointType::kSegmentStart) ++seg_starts;
    if (cp.type == CriticalPointType::kSegmentEnd) ++seg_ends;
  }
  EXPECT_EQ(seg_starts, 2);
  EXPECT_EQ(seg_ends, 1);
}

// --- EventEngine -----------------------------------------------------------

class EventEngineTest : public ::testing::Test {
 protected:
  EventEngineTest() {
    GeoZone port;
    port.name = "Port";
    port.type = ZoneType::kPort;
    port.polygon = Polygon::Circle(GeoPoint(41.35, 2.15), 3000.0);
    zones_.Add(std::move(port));
    GeoZone reserve;
    reserve.name = "Reserve";
    reserve.type = ZoneType::kProtectedArea;
    reserve.fishing_prohibited = true;
    reserve.polygon = Polygon::Circle(GeoPoint(37.8, 1.8), 15000.0);
    reserve_id_ = zones_.Add(std::move(reserve));
  }

  ReconstructedPoint Point(Mmsi mmsi, Timestamp t, const GeoPoint& pos,
                           double sog_mps, double cog = 90.0,
                           DurationMs gap = 0) {
    ReconstructedPoint rp;
    rp.mmsi = mmsi;
    rp.point.t = t;
    rp.point.position = pos;
    rp.point.sog_mps = static_cast<float>(sog_mps);
    rp.point.cog_deg = static_cast<float>(cog);
    rp.gap_before_ms = gap;
    rp.starts_segment = gap > 0;
    return rp;
  }

  ZoneDatabase zones_;
  uint32_t reserve_id_ = 0;
};

TEST_F(EventEngineTest, ZoneEntryExit) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint inside(41.35, 2.15);
  const GeoPoint outside = Destination(inside, 90.0, 10000.0);
  engine.Ingest(Point(1, t0, outside, 5.0), &events);
  engine.Ingest(Point(1, t0 + 60000, inside, 5.0), &events);
  engine.Ingest(Point(1, t0 + 120000, outside, 5.0), &events);
  int entries = 0, exits = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kZoneEntry) ++entries;
    if (ev.type == EventType::kZoneExit) ++exits;
  }
  EXPECT_EQ(entries, 1);
  EXPECT_EQ(exits, 1);
}

TEST_F(EventEngineTest, DarkPeriodFromGap) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  engine.Ingest(Point(1, t0, GeoPoint(40, 5), 5.0), &events);
  engine.Ingest(
      Point(1, t0 + Minutes(45), GeoPoint(40.1, 5.1), 5.0, 90.0, Minutes(45)),
      &events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kDarkPeriod);
  EXPECT_EQ(events[0].start, t0);
  EXPECT_EQ(events[0].end, t0 + Minutes(45));
}

TEST_F(EventEngineTest, RendezvousDetected) {
  EventEngine::Options opts;
  opts.rendezvous_min_duration = Minutes(10);
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint meet(40.0, 5.0);  // open sea
  // Two vessels nearly stationary 200 m apart for 20 minutes.
  for (int i = 0; i <= 20; ++i) {
    const Timestamp t = t0 + Minutes(i);
    engine.Ingest(Point(1, t, meet, 0.3), &events);
    engine.Ingest(Point(2, t + 1000, Destination(meet, 90.0, 200.0), 0.3),
                  &events);
  }
  int rendezvous = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kRendezvous) {
      ++rendezvous;
      EXPECT_EQ(ev.vessel_a, 1u);
      EXPECT_EQ(ev.vessel_b, 2u);
      EXPECT_GE(ev.end - ev.start, opts.rendezvous_min_duration);
    }
  }
  EXPECT_EQ(rendezvous, 1);
}

TEST_F(EventEngineTest, NoRendezvousInsidePort) {
  EventEngine::Options opts;
  opts.rendezvous_min_duration = Minutes(10);
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint berth(41.35, 2.15);  // inside the port zone
  for (int i = 0; i <= 30; ++i) {
    const Timestamp t = t0 + Minutes(i);
    engine.Ingest(Point(1, t, berth, 0.1), &events);
    engine.Ingest(Point(2, t + 1000, Destination(berth, 0.0, 100.0), 0.1),
                  &events);
  }
  engine.Flush(&events);
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kRendezvous);
  }
}

TEST_F(EventEngineTest, NoRendezvousForPassingShips) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  // Two vessels pass within 300 m at 12 knots — close but fast.
  for (int i = 0; i <= 30; ++i) {
    const Timestamp t = t0 + i * 10000;
    engine.Ingest(Point(1, t, Destination(GeoPoint(40, 5), 90.0, 62.0 * i),
                        6.2, 90.0),
                  &events);
    engine.Ingest(
        Point(2, t + 1000,
              Destination(Destination(GeoPoint(40, 5), 0.0, 300.0), 270.0,
                          62.0 * (30 - i)),
              6.2, 270.0),
        &events);
  }
  engine.Flush(&events);
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kRendezvous);
  }
}

TEST_F(EventEngineTest, LoiteringDetected) {
  EventEngine::Options opts;
  opts.loiter_min_duration = Minutes(30);
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint spot(39.0, 3.0);
  Rng rng(257);
  for (int i = 0; i <= 50; ++i) {
    const GeoPoint pos =
        Destination(spot, rng.Uniform(0, 360), rng.Uniform(0, 800));
    engine.Ingest(Point(7, t0 + Minutes(i), pos, 0.5), &events);
  }
  int loiters = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kLoitering) {
      ++loiters;
      EXPECT_EQ(ev.vessel_a, 7u);
    }
  }
  EXPECT_EQ(loiters, 1);  // re-alert suppression caps it
}

TEST_F(EventEngineTest, TransitingVesselNeverLoiters) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  for (int i = 0; i <= 120; ++i) {
    engine.Ingest(Point(8, t0 + Minutes(i),
                        Destination(GeoPoint(40, 5), 90.0, 360.0 * i), 6.0),
                  &events);
  }
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kLoitering);
  }
}

// Frozen reference: the loitering rule as it stood when every check
// rescanned its window for the bounding box and the speed sum. Only what the
// rule reads is modelled: the dark-period window clear, the port/anchorage
// suppression and the re-alert latch. The counters show which of those
// paths a stream exercised.
class RescanLoiterReference {
 public:
  RescanLoiterReference(const ZoneDatabase* zones,
                        const EventRuleOptions& options)
      : zones_(zones), options_(options) {}

  int dark_clears = 0;
  int port_checks = 0;
  int realert_suppressed = 0;

  void Ingest(const ReconstructedPoint& rp, std::vector<DetectedEvent>* out) {
    Vessel& vessel = vessels_[rp.mmsi];
    if (rp.gap_before_ms > options_.dark_threshold_ms && vessel.has_last) {
      vessel.window.clear();
      ++dark_clears;
    }
    vessel.has_last = true;
    bool in_port_area = false;
    for (const GeoZone* z : zones_->ZonesAt(rp.point.position)) {
      in_port_area |=
          z->type == ZoneType::kPort || z->type == ZoneType::kAnchorage;
    }

    const Timestamp t = rp.point.t;
    auto& window = vessel.window;
    window.push_back(rp.point);
    while (!window.empty() &&
           t - window.front().t > options_.loiter_min_duration) {
      window.pop_front();
    }
    if (in_port_area) {
      ++port_checks;
      return;
    }
    if (window.size() < 4) return;
    if (t - window.front().t < options_.loiter_min_duration * 9 / 10) return;
    if (vessel.last_loiter_alert != kInvalidTimestamp &&
        t - vessel.last_loiter_alert < options_.loiter_realert_ms) {
      ++realert_suppressed;
      return;
    }
    BoundingBox box = BoundingBox::Empty();
    double speed_sum = 0.0;
    size_t speed_count = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      const TrajectoryPoint& p = window[i];
      box.Extend(p.position);
      if (p.HasSpeed()) {
        speed_sum += p.sog_mps;
        ++speed_count;
      }
    }
    if (speed_count == 0) return;
    const double diag = HaversineDistance(GeoPoint(box.min_lat, box.min_lon),
                                          GeoPoint(box.max_lat, box.max_lon));
    const double mean_speed = speed_sum / static_cast<double>(speed_count);
    if (diag <= 2.0 * options_.loiter_radius_m &&
        mean_speed <= options_.loiter_max_speed_mps) {
      vessel.last_loiter_alert = t;
      DetectedEvent ev;
      ev.type = EventType::kLoitering;
      ev.start = window.front().t;
      ev.end = t;
      ev.vessel_a = rp.mmsi;
      ev.where = box.Center();
      ev.severity = 0.6;
      ev.detected_at = t;
      out->push_back(ev);
    }
  }

 private:
  struct Vessel {
    bool has_last = false;
    std::deque<TrajectoryPoint> window;
    Timestamp last_loiter_alert = kInvalidTimestamp;
  };

  const ZoneDatabase* zones_;
  EventRuleOptions options_;
  std::map<Mmsi, Vessel> vessels_;
};

// Seeded per-vessel streams that switch between behaviours every 20–120
// points: drifting round an anchor spot, transit, drifting inside the
// fixture's port zone, exactly repeated coordinates, coordinates of ±0.0,
// and drifting with mostly missing SOG. About 1% of points follow a dark
// gap; timestamps may repeat.
std::vector<ReconstructedPoint> RandomLoiterStreams(uint64_t seed) {
  Rng rng(seed);
  std::vector<ReconstructedPoint> all;
  const GeoPoint port(41.35, 2.15);
  for (Mmsi mmsi = 1; mmsi <= 12; ++mmsi) {
    Timestamp t = 1700000000000 + rng.UniformInt(0, 600000);
    GeoPoint pos(rng.Uniform(36.0, 40.0), rng.Uniform(3.0, 6.0));
    GeoPoint anchor = pos;
    int64_t mode = 0;
    int64_t left = 0;
    bool zero_lon = false;
    double course = 0.0;
    for (int i = 0; i < 900; ++i) {
      if (left-- <= 0) {
        mode = rng.UniformInt(0, 5);
        left = rng.UniformInt(20, 120);
        anchor = pos;
        zero_lon = rng.Bernoulli(0.5);
        course = rng.Uniform(0.0, 360.0);
      }
      ReconstructedPoint rp;
      rp.mmsi = mmsi;
      DurationMs dt = rng.UniformInt(0, 90) * 1000;
      if (rng.Bernoulli(0.01)) {
        dt = Minutes(static_cast<double>(rng.UniformInt(16, 90)));
        rp.gap_before_ms = dt;
        rp.starts_segment = true;
      }
      t += dt;
      double sog = rng.Uniform(0.0, 1.8);
      double missing_sog = 0.1;
      switch (mode) {
        case 0:  // drift round the anchor spot
          pos = Destination(anchor, rng.Uniform(0.0, 360.0),
                            rng.Uniform(0.0, 1500.0));
          break;
        case 1:  // transit
          sog = rng.Uniform(4.0, 9.0);
          pos = Destination(pos, course, sog * static_cast<double>(dt) / 1000);
          break;
        case 2:  // drift inside the port zone
          pos = Destination(port, rng.Uniform(0.0, 360.0),
                            rng.Uniform(0.0, 2500.0));
          break;
        case 3:  // exactly repeated coordinates
          break;
        case 4:  // signed zeros
          pos = GeoPoint(rng.Bernoulli(0.5) ? 0.0 : -0.0,
                         zero_lon ? (rng.Bernoulli(0.5) ? 0.0 : -0.0)
                                  : rng.Uniform(-1e-4, 1e-4));
          break;
        default:  // mostly missing SOG
          missing_sog = 0.9;
          pos = Destination(anchor, rng.Uniform(0.0, 360.0),
                            rng.Uniform(0.0, 800.0));
          break;
      }
      rp.point.t = t;
      rp.point.position = pos;
      rp.point.sog_mps = rng.Bernoulli(missing_sog)
                             ? TrajectoryPoint::Unavailable()
                             : static_cast<float>(sog);
      rp.point.cog_deg = static_cast<float>(course);
      all.push_back(rp);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const ReconstructedPoint& a, const ReconstructedPoint& b) {
                     return a.point.t < b.point.t;
                   });
  return all;
}

// Field-for-field, with coordinates and severity compared by bit pattern
// (so a -0.0 where the rescan gives +0.0 is a difference).
std::string LoiterEventBits(const DetectedEvent& ev) {
  return std::to_string(static_cast<int>(ev.type)) + " " +
         std::to_string(ev.start) + " " + std::to_string(ev.end) + " " +
         std::to_string(ev.vessel_a) + " " + std::to_string(ev.vessel_b) +
         " " + std::to_string(std::bit_cast<uint64_t>(ev.where.lat)) + " " +
         std::to_string(std::bit_cast<uint64_t>(ev.where.lon)) + " " +
         std::to_string(ev.zone_id) + " " +
         std::to_string(std::bit_cast<uint64_t>(ev.severity)) + " " +
         std::to_string(ev.detected_at);
}

TEST_F(EventEngineTest, SlidingLoiterBoxMatchesRescanReference) {
  EventRuleOptions opts;
  opts.loiter_min_duration = Minutes(30);
  opts.loiter_realert_ms = Minutes(45);
  int total = 0, negative_zero_centres = 0;
  int dark_clears = 0, port_checks = 0, realert_suppressed = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    VesselEventEngine engine(&zones_, opts);
    RescanLoiterReference reference(&zones_, opts);
    std::vector<DetectedEvent> got, want, all;
    for (const ReconstructedPoint& rp : RandomLoiterStreams(seed)) {
      all.clear();
      engine.Ingest(rp, &all);
      for (const DetectedEvent& ev : all) {
        if (ev.type == EventType::kLoitering) got.push_back(ev);
      }
      reference.Ingest(rp, &want);
    }
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(LoiterEventBits(got[i]), LoiterEventBits(want[i]))
          << "seed " << seed << " event " << i;
      negative_zero_centres += std::signbit(want[i].where.lat) &&
                               want[i].where.lat == 0.0;
    }
    total += static_cast<int>(want.size());
    dark_clears += reference.dark_clears;
    port_checks += reference.port_checks;
    realert_suppressed += reference.realert_suppressed;
  }
  // The streams reach every path the rule has.
  EXPECT_GT(total, 300);
  EXPECT_GT(negative_zero_centres, 20);
  EXPECT_GT(dark_clears, 0);
  EXPECT_GT(port_checks, 0);
  EXPECT_GT(realert_suppressed, 0);
}

TEST_F(EventEngineTest, SpoofEventsFromRejections) {
  EventEngine::Options opts;
  opts.identity_conflict_count = 3;
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  RejectedReport rej;
  rej.reason = RejectedReport::Reason::kImpossibleJump;
  rej.mmsi = 99;
  rej.reported = GeoPoint(40, 5);
  rej.implied_speed_mps = 500;
  // Single isolated jump: teleport spoof.
  rej.t = t0;
  engine.IngestRejection(rej, &events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kTeleportSpoof);
  // A burst of conflicts upgrades to identity spoofing.
  rej.t = t0 + Minutes(1);
  engine.IngestRejection(rej, &events);
  rej.t = t0 + Minutes(2);
  engine.IngestRejection(rej, &events);
  bool identity = false;
  for (const auto& ev : events) {
    if (ev.type == EventType::kIdentitySpoof) identity = true;
  }
  EXPECT_TRUE(identity);
}

TEST_F(EventEngineTest, CollisionRiskOnConvergingCourses) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint base(40.0, 5.0);
  // Head-on: A eastbound, B westbound, 8 km apart closing at 12 m/s.
  for (int i = 0; i <= 10; ++i) {
    const Timestamp t = t0 + i * 30000;
    engine.Ingest(Point(1, t, Destination(base, 90.0, 6.0 * 30 * i), 6.0, 90.0),
                  &events);
    engine.Ingest(Point(2, t + 1000,
                        Destination(base, 90.0, 8000.0 - 6.0 * 30 * i), 6.0,
                        270.0),
                  &events);
  }
  int risks = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kCollisionRisk) ++risks;
  }
  EXPECT_GE(risks, 1);
}

TEST_F(EventEngineTest, NoCollisionRiskWhenDiverging) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint base(40.0, 5.0);
  for (int i = 0; i <= 10; ++i) {
    const Timestamp t = t0 + i * 30000;
    engine.Ingest(Point(1, t, Destination(base, 270.0, 6.0 * 30 * i), 6.0,
                        270.0),
                  &events);
    engine.Ingest(Point(2, t + 1000,
                        Destination(Destination(base, 90.0, 2000.0), 90.0,
                                    6.0 * 30 * i),
                        6.0, 90.0),
                  &events);
  }
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kCollisionRisk);
  }
}

TEST_F(EventEngineTest, IllegalFishingNeedsCategoryAndZoneAndPattern) {
  EventEngine::Options opts;
  opts.fishing_min_duration = Minutes(20);
  EventEngine engine(&zones_, opts);
  engine.SetVesselInfo(30, 30);  // fishing vessel
  engine.SetVesselInfo(70, 70);  // cargo vessel
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint reserve(37.8, 1.8);
  // Both vessels trawl-speed inside the reserve for 40 minutes.
  for (int i = 0; i <= 40; ++i) {
    const Timestamp t = t0 + Minutes(i);
    const GeoPoint pos = Destination(reserve, 90.0, 30.0 * i);
    engine.Ingest(Point(30, t, pos, 2.0), &events);
    engine.Ingest(Point(70, t + 1000, Destination(pos, 0.0, 2000.0), 2.0),
                  &events);
  }
  int illegal = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kIllegalFishing) {
      ++illegal;
      EXPECT_EQ(ev.vessel_a, 30u);  // only the fishing vessel
      EXPECT_EQ(ev.zone_id, reserve_id_);
    }
  }
  EXPECT_EQ(illegal, 1);
}

TEST_F(EventEngineTest, FastTransitThroughReserveNotFishing) {
  EventEngine engine(&zones_);
  engine.SetVesselInfo(30, 30);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint reserve(37.8, 1.8);
  for (int i = 0; i <= 40; ++i) {
    engine.Ingest(Point(30, t0 + Minutes(i),
                        Destination(reserve, 90.0, 300.0 * i), 6.0),
                  &events);
  }
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kIllegalFishing);
  }
}

// --- PairEventEngine (windowed close) --------------------------------------
//
// The pair rules as both pipelines run them: observation windows closed
// through `PairEventEngine::CloseWindow`. The live picture buckets vessels
// on a 0.1° grid, so the geometry below puts partners on either side of a
// cell line, around a cell corner, and on either side of the antimeridian.

constexpr Timestamp kPairT0 = 1700000000000;

PairObservation PairObs(Mmsi mmsi, Timestamp t, double lat, double lon,
                        double sog_mps, double cog_deg = 90.0) {
  PairObservation obs;
  obs.mmsi = mmsi;
  obs.point.t = t;
  obs.point.position = GeoPoint(lat, lon);
  obs.point.sog_mps = static_cast<float>(sog_mps);
  obs.point.cog_deg = static_cast<float>(cog_deg);
  return obs;
}

/// Closes `windows` in order on `engine` (flushing with the last one) and
/// returns every event.
std::vector<DetectedEvent> CloseWindows(
    PairEventEngine* engine,
    const std::vector<std::vector<PairObservation>>& windows,
    bool flush_last = true) {
  std::vector<DetectedEvent> out;
  for (size_t i = 0; i < windows.size(); ++i) {
    std::vector<PairObservation> window = windows[i];
    std::vector<DetectedEvent> events;
    engine->CloseWindow(&window, flush_last && i + 1 == windows.size(),
                        &events);
    out.insert(out.end(), events.begin(), events.end());
  }
  return out;
}

size_t CountEvents(const std::vector<DetectedEvent>& events, EventType type) {
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const DetectedEvent& ev) { return ev.type == type; }));
}

TEST(PairEventEngineTest, RendezvousAcrossCellLineReportedOnce) {
  // Two slow vessels ~85 m apart with a live-picture cell line (lon 5.0)
  // between them, over several windows: exactly one rendezvous.
  std::vector<std::vector<PairObservation>> windows(1);
  for (int minute = 0; minute <= 15; ++minute) {
    const Timestamp t = kPairT0 + minute * kMillisPerMinute;
    windows.back().push_back(PairObs(111000001, t, 40.0, 4.9995, 0.4));
    windows.back().push_back(PairObs(222000002, t, 40.0, 5.0005, 0.5));
    if (minute % 5 == 4) windows.emplace_back();
  }
  PairEventEngine engine;
  const auto events = CloseWindows(&engine, windows);
  EXPECT_EQ(CountEvents(events, EventType::kRendezvous), 1u);
}

TEST(PairEventEngineTest, CollisionAcrossCellLineReportedOnce) {
  // Head-on along one parallel: the vessels start ~8 km apart on either
  // side of lon 12.0 and close at 12 m/s (TCPA ≈ 11 min). One alert per
  // pair per re-alert window (10 min > the 4.5 min run).
  const double lat = 38.0;
  const double deg_per_m_lon =
      1.0 / (DegToRad(1.0) * kEarthRadiusMetres * std::cos(DegToRad(lat)));
  std::vector<std::vector<PairObservation>> windows(1);
  for (int step = 0; step < 10; ++step) {
    const Timestamp t = kPairT0 + step * 30 * kMillisPerSecond;
    const double offset = (4000.0 - 6.0 * 30 * step) * deg_per_m_lon;
    windows.back().push_back(PairObs(111000001, t, lat, 12.0 - offset, 6.0,
                                     90.0));
    windows.back().push_back(PairObs(222000002, t, lat, 12.0 + offset, 6.0,
                                     270.0));
    if (step % 4 == 3) windows.emplace_back();
  }
  PairEventEngine engine;
  const auto events = CloseWindows(&engine, windows);
  EXPECT_EQ(CountEvents(events, EventType::kCollisionRisk), 1u);
}

TEST(PairEventEngineTest, CellCornerFleetReportsEveryPairOnce) {
  // Four slow vessels, one per quadrant around the cell corner (43.0, 7.0),
  // plus two co-located exactly at the corner: every pairwise distance is
  // ≤ ~90 m, so each of the C(6,2) pairs is a rendezvous, reported once.
  const double d = 0.0003;
  const std::vector<std::tuple<Mmsi, double, double>> fleet = {
      {301000001, 43.0 - d, 7.0 - d}, {301000002, 43.0 - d, 7.0 + d},
      {301000003, 43.0 + d, 7.0 - d}, {301000004, 43.0 + d, 7.0 + d},
      {301000005, 43.0, 7.0},         {301000006, 43.0, 7.0},
  };
  std::vector<std::vector<PairObservation>> windows(1);
  for (int minute = 0; minute <= 14; ++minute) {
    const Timestamp t = kPairT0 + minute * kMillisPerMinute;
    for (const auto& [mmsi, lat, lon] : fleet) {
      windows.back().push_back(PairObs(mmsi, t, lat, lon, 0.3));
    }
    if (minute % 4 == 3) windows.emplace_back();
  }
  PairEventEngine engine;
  const auto events = CloseWindows(&engine, windows);
  EXPECT_EQ(CountEvents(events, EventType::kRendezvous), 15u);
}

TEST(PairEventEngineTest, AntimeridianNeverPairsAcrossTheSeam) {
  // One close pair on each side of the antimeridian, plus a "pair" ~44 m
  // apart physically but straddling the seam. The live picture's grid is
  // unwrapped, so the engine never pairs across it.
  std::vector<std::vector<PairObservation>> windows(1);
  for (int minute = 0; minute <= 14; ++minute) {
    const Timestamp t = kPairT0 + minute * kMillisPerMinute;
    auto& window = windows.back();
    window.push_back(PairObs(401000001, t, 5.0, 179.9930, 0.4));
    window.push_back(PairObs(401000002, t, 5.0, 179.9938, 0.4));
    window.push_back(PairObs(402000001, t, 5.0, -179.9930, 0.4));
    window.push_back(PairObs(402000002, t, 5.0, -179.9938, 0.4));
    window.push_back(PairObs(403000001, t, 5.0, 179.9998, 0.4));
    window.push_back(PairObs(403000002, t, 5.0, -179.9998, 0.4));
    if (minute % 4 == 3) windows.emplace_back();
  }
  PairEventEngine engine;
  const auto events = CloseWindows(&engine, windows);
  EXPECT_EQ(CountEvents(events, EventType::kRendezvous), 2u)
      << "east pair + west pair; never across the seam";
}

TEST(PairEventEngineTest, ExportRestoreRoundTripContinuesIdentically) {
  // 40 vessels random-walking a ~20 km box (collision alerts and re-alert
  // clocks), plus a slow pair whose rendezvous dwell starts before the
  // export and is reported after it: the restored engine must carry the
  // dwell's start, not restart it.
  Rng rng(20260728);
  struct Walker {
    Mmsi mmsi;
    double lat, lon, speed, course;
  };
  std::vector<Walker> fleet;
  for (int i = 0; i < 40; ++i) {
    fleet.push_back(Walker{static_cast<Mmsi>(600000001 + i),
                           39.0 + rng.Uniform(0.0, 0.18),
                           8.0 + rng.Uniform(0.0, 0.18), rng.Uniform(0.0, 8.0),
                           rng.Uniform(0.0, 360.0)});
  }
  const double deg_per_m = 1.0 / (DegToRad(1.0) * kEarthRadiusMetres);
  std::vector<std::vector<PairObservation>> windows(1);
  for (int step = 0; step < 120; ++step) {  // 60 minutes at 30 s ticks
    const Timestamp t = kPairT0 + step * 30 * kMillisPerSecond;
    for (Walker& v : fleet) {
      const double rad = DegToRad(v.course);
      v.lat += std::cos(rad) * v.speed * 30.0 * deg_per_m;
      v.lon += std::sin(rad) * v.speed * 30.0 * deg_per_m;
      v.course += rng.Uniform(-15.0, 15.0);
      v.speed = std::clamp(v.speed + rng.Uniform(-0.4, 0.4), 0.0, 9.0);
      windows.back().push_back(
          PairObs(v.mmsi, t, v.lat, v.lon, v.speed, v.course));
    }
    if (step >= 60) {  // the slow pair, from minute 30
      windows.back().push_back(PairObs(700000001, t, 39.5, 8.5, 0.4));
      windows.back().push_back(PairObs(700000002, t, 39.5, 8.5006, 0.4));
    }
    if (step % 10 == 9) windows.emplace_back();
  }
  windows.pop_back();  // the empty window opened after the last step
  ASSERT_EQ(windows.size(), 12u);
  const size_t kExportAfter = 7;  // minute 35: the slow pair dwells 5 min
  const std::vector<std::vector<PairObservation>> head(
      windows.begin(), windows.begin() + kExportAfter);
  const std::vector<std::vector<PairObservation>> tail(
      windows.begin() + kExportAfter, windows.end());

  PairEventEngine original;
  const auto head_events = CloseWindows(&original, head, /*flush_last=*/false);
  EXPECT_GT(CountEvents(head_events, EventType::kCollisionRisk), 0u);

  std::vector<PairEventEngine::VesselSnapshot> vessels;
  std::vector<PairEventEngine::RendezvousSnapshot> rendezvous;
  std::vector<PairEventEngine::CollisionSnapshot> collisions;
  original.ExportVessels(&vessels);
  original.ExportRendezvous(&rendezvous);
  original.ExportCollisions(&collisions);
  ASSERT_EQ(vessels.size(), 42u);
  ASSERT_FALSE(rendezvous.empty());
  ASSERT_FALSE(collisions.empty());

  PairEventEngine restored;
  for (const auto& v : vessels) restored.RestoreVessel(v);
  for (const auto& r : rendezvous) restored.RestoreRendezvous(r);
  for (const auto& c : collisions) restored.RestoreCollision(c);

  const auto expected = CloseWindows(&original, tail);
  const auto actual = CloseWindows(&restored, tail);
  ASSERT_GT(CountEvents(expected, EventType::kRendezvous), 0u);
  ASSERT_GT(CountEvents(expected, EventType::kCollisionRisk), 0u);
  ASSERT_EQ(expected.size(), actual.size());
  const auto key = [](const DetectedEvent& ev) {
    return std::make_tuple(ev.detected_at, ev.vessel_a, ev.vessel_b,
                           static_cast<int>(ev.type), ev.start, ev.end,
                           ev.zone_id, ev.severity, ev.where.lat,
                           ev.where.lon);
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(key(expected[i]), key(actual[i])) << "event " << i;
  }
}

// --- PatternsOfLife / AnomalyDetector --------------------------------------

TEST(PatternsTest, TrainedLaneScoresLow) {
  PatternsOfLife model;
  // Train on heavy eastbound traffic along a lane.
  Rng rng(263);
  for (int v = 0; v < 50; ++v) {
    Trajectory traj;
    traj.mmsi = v;
    for (int i = 0; i < 100; ++i) {
      TrajectoryPoint p;
      p.t = i;
      p.position = GeoPoint(40.0 + rng.Uniform(-0.02, 0.02), 5.0 + 0.01 * i);
      p.sog_mps = static_cast<float>(6.0 + rng.Uniform(-0.5, 0.5));
      p.cog_deg = 90.0f;
      traj.points.push_back(p);
    }
    model.Train(traj);
  }
  model.Finalize();
  // On-lane, on-course, normal speed: low score.
  TrajectoryPoint normal;
  normal.position = GeoPoint(40.0, 5.5);
  normal.sog_mps = 6.0f;
  normal.cog_deg = 90.0f;
  const double normal_score = model.Score(normal);
  // Off-lane open water: high score.
  TrajectoryPoint off;
  off.position = GeoPoint(42.5, 5.5);
  off.sog_mps = 6.0f;
  off.cog_deg = 90.0f;
  EXPECT_EQ(model.Score(off), 1.0);
  EXPECT_LT(normal_score, 0.5);
  // Wrong-way traffic on the lane: elevated score.
  TrajectoryPoint wrong_way = normal;
  wrong_way.cog_deg = 270.0f;
  EXPECT_GT(model.Score(wrong_way), normal_score);
  // Impossible speed for the lane: elevated score.
  TrajectoryPoint speeding = normal;
  speeding.sog_mps = 15.0f;
  EXPECT_GT(model.Score(speeding), normal_score);
}

TEST(PatternsTest, EmptyModelIsMaximallySurprised) {
  PatternsOfLife model;
  model.Finalize();
  TrajectoryPoint p;
  p.position = GeoPoint(40, 5);
  EXPECT_DOUBLE_EQ(model.Score(p), 1.0);
}

TEST(AnomalyDetectorTest, ThresholdAndRateLimit) {
  PatternsOfLife model;  // empty: everything anomalous
  model.Finalize();
  AnomalyDetector::Options opts;
  opts.threshold = 0.5;
  opts.realert_ms = Minutes(30);
  AnomalyDetector detector(&model, opts);
  TrajectoryPoint p;
  p.t = 1700000000000;
  p.position = GeoPoint(40, 5);
  EXPECT_TRUE(detector.Observe(1, p).has_value());
  p.t += Minutes(5);
  EXPECT_FALSE(detector.Observe(1, p).has_value());  // rate-limited
  p.t += Minutes(40);
  EXPECT_TRUE(detector.Observe(1, p).has_value());
  // A different vessel is not rate-limited by the first.
  EXPECT_TRUE(detector.Observe(2, p).has_value());
}

// --- Forecasters ---------------------------------------------------------

TEST(ForecastTest, DeadReckoningExactOnStraightLine) {
  const Trajectory traj = StraightTrajectory(1, 100, 6.0);
  DeadReckoningForecaster dr;
  const auto samples = EvaluateForecaster(dr, traj, {60.0, 300.0, 600.0});
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_LT(s.error_m, 20.0) << "horizon " << s.horizon_s;
  }
}

Trajectory CurvedTrajectory(Mmsi mmsi, double turn_deg_per_step) {
  Trajectory traj;
  traj.mmsi = mmsi;
  GeoPoint pos(40.0, 5.0);
  double course = 90.0;
  for (int i = 0; i < 200; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 6.0f;
    p.cog_deg = static_cast<float>(NormalizeDegrees(course));
    traj.points.push_back(p);
    course += turn_deg_per_step;
    pos = Destination(pos, course, 60.0);
  }
  return traj;
}

TEST(ForecastTest, ConstantTurnBeatsDeadReckoningOnArc) {
  const Trajectory traj = CurvedTrajectory(1, 0.8);
  DeadReckoningForecaster dr;
  ConstantTurnForecaster ct;
  double dr_err = 0, ct_err = 0;
  int n = 0;
  for (const auto& s : EvaluateForecaster(dr, traj, {600.0})) {
    dr_err += s.error_m;
    ++n;
  }
  for (const auto& s : EvaluateForecaster(ct, traj, {600.0})) {
    ct_err += s.error_m;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(ct_err, dr_err * 0.6);
}

TEST(ForecastTest, FlowFieldBeatsDeadReckoningOnLaneTurns) {
  // Historical traffic follows an L-shaped lane; the flow field learns the
  // corner, dead reckoning sails straight past it. Times derive from actual
  // geodesic distances so SOG is consistent with the motion.
  std::vector<GeoPoint> lane;
  for (int i = 0; i <= 40; ++i) lane.push_back(GeoPoint(40.0, 5.0 + 0.01 * i));
  for (int i = 1; i <= 40; ++i) lane.push_back(GeoPoint(40.0 + 0.01 * i, 5.4));
  constexpr double kSpeed = 6.0;
  auto make_run = [&lane](Mmsi mmsi, double jitter, Rng* rng) {
    Trajectory traj;
    traj.mmsi = mmsi;
    Timestamp t = 1700000000000;
    for (size_t i = 0; i < lane.size(); ++i) {
      TrajectoryPoint p;
      p.t = t;
      p.position = GeoPoint(lane[i].lat + rng->Uniform(-jitter, jitter),
                            lane[i].lon + rng->Uniform(-jitter, jitter));
      p.sog_mps = static_cast<float>(kSpeed);
      p.cog_deg = static_cast<float>(
          i + 1 < lane.size() ? InitialBearing(lane[i], lane[i + 1])
                              : InitialBearing(lane[i - 1], lane[i]));
      traj.points.push_back(p);
      if (i + 1 < lane.size()) {
        t += static_cast<Timestamp>(
            1000.0 * HaversineDistance(lane[i], lane[i + 1]) / kSpeed);
      }
    }
    return traj;
  };
  Rng rng(269);
  FlowFieldForecaster flow;
  for (int v = 0; v < 30; ++v) {
    flow.Train(make_run(100 + v, 0.002, &rng));
  }
  const Trajectory test_run = make_run(999, 0.0, &rng);
  // Evaluate where the 20-minute horizon spans the corner (index 40):
  // samples ~33-39 on the east leg.
  DeadReckoningForecaster dr;
  double dr_err = 0, flow_err = 0;
  int n = 0;
  for (size_t i = 33; i <= 39; ++i) {
    std::vector<TrajectoryPoint> recent(test_run.points.begin(),
                                        test_run.points.begin() + i + 1);
    const Timestamp target = test_run.points[i].t + 1200 * 1000;
    const TrajectoryPoint actual = test_run.At(target);
    dr_err += HaversineDistance(dr.Predict(recent, 1200.0), actual.position);
    flow_err +=
        HaversineDistance(flow.Predict(recent, 1200.0), actual.position);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(flow_err, dr_err * 0.8);
}

TEST(ForecastTest, ErrorGrowsWithHorizon) {
  const Trajectory traj = CurvedTrajectory(1, 0.5);
  DeadReckoningForecaster dr;
  const auto samples =
      EvaluateForecaster(dr, traj, {60.0, 300.0, 900.0}, 10, 20);
  double err[3] = {0, 0, 0};
  int count[3] = {0, 0, 0};
  for (const auto& s : samples) {
    const int idx = s.horizon_s == 60.0 ? 0 : s.horizon_s == 300.0 ? 1 : 2;
    err[idx] += s.error_m;
    ++count[idx];
  }
  ASSERT_GT(count[0], 0);
  ASSERT_GT(count[2], 0);
  EXPECT_LT(err[0] / count[0], err[1] / count[1]);
  EXPECT_LT(err[1] / count[1], err[2] / count[2]);
}

// --- EnrichmentEngine -------------------------------------------------------

TEST(EnrichmentTest, JoinsAllContextSources) {
  ZoneDatabase zones;
  GeoZone port;
  port.name = "P";
  port.type = ZoneType::kPort;
  port.polygon = Polygon::Circle(GeoPoint(41.35, 2.15), 3000.0);
  const uint32_t port_id = zones.Add(std::move(port));
  WeatherProvider weather(31);
  SourceQualityModel quality;
  VesselRegistry reg_a("marinetraffic"), reg_b("lloyds");
  RegistryRecord rec;
  rec.mmsi = 5;
  rec.name = "SEA STAR";
  rec.flag = "FR";
  rec.ship_type = 30;
  rec.length_m = 25;
  reg_a.Upsert(rec);
  rec.flag = "ES";  // conflict
  reg_b.Upsert(rec);

  EnrichmentEngine engine(&zones, &weather, &reg_a, &reg_b, &quality);
  ReconstructedPoint rp;
  rp.mmsi = 5;
  rp.point.t = 1700000000000;
  rp.point.position = GeoPoint(41.35, 2.15);
  const EnrichedPoint enriched = engine.Enrich(rp);
  ASSERT_EQ(enriched.zone_ids.size(), 1u);
  EXPECT_EQ(enriched.zone_ids[0], port_id);
  EXPECT_GE(enriched.weather.wind_speed_mps, 0.0);
  EXPECT_EQ(enriched.category, ShipCategory::kFishing);
  EXPECT_EQ(enriched.vessel_name, "SEA STAR");
  EXPECT_TRUE(enriched.registry_conflict);
  EXPECT_EQ(engine.stats().registry_conflicts, 1u);
}

TEST(EnrichmentTest, NullSourcesSkipped) {
  EnrichmentEngine engine(nullptr, nullptr, nullptr, nullptr, nullptr);
  ReconstructedPoint rp;
  rp.mmsi = 5;
  rp.point.position = GeoPoint(40, 5);
  const EnrichedPoint enriched = engine.Enrich(rp);
  EXPECT_TRUE(enriched.zone_ids.empty());
  EXPECT_EQ(enriched.category, ShipCategory::kUnknown);
}

}  // namespace
}  // namespace marlin
