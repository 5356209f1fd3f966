#ifndef MARLIN_CONTEXT_ZONES_H_
#define MARLIN_CONTEXT_ZONES_H_

/// \file zones.h
/// \brief Geographic zone database: the institutional context (navigation
/// rules, protected areas, EEZs) the paper lists among the sources an MSA
/// must correlate (§2, §2.5).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/geometry.h"
#include "storage/rtree.h"

namespace marlin {

/// \brief Kinds of maritime zones.
enum class ZoneType : uint8_t {
  kPort = 0,
  kAnchorage,
  kEez,
  kProtectedArea,
  kShippingLane,
  kFishingGround,
  kRestricted,
};

const char* ZoneTypeName(ZoneType t);

/// \brief One named zone with optional regulation attributes.
struct GeoZone {
  uint32_t id = 0;
  std::string name;
  ZoneType type = ZoneType::kPort;
  Polygon polygon;
  double speed_limit_knots = 0.0;  ///< 0 = no limit
  bool fishing_prohibited = false;

  /// \brief IRI used when the zone appears in the RDF graph.
  std::string Iri() const { return "dtc:zone/" + std::to_string(id); }
};

/// \brief Spatially indexed zone collection.
class ZoneDatabase {
 public:
  /// \brief Adds a zone and re-packs the spatial index; returns its
  /// assigned id. Lookups never mutate the database, so a populated
  /// database is safe to share across threads.
  uint32_t Add(GeoZone zone);

  /// \brief No-op kept for existing callers: `Add` keeps the index current.
  void Build() const {}

  /// \brief All zones containing `p`.
  std::vector<const GeoZone*> ZonesAt(const GeoPoint& p) const;

  /// \brief Allocation-free variant for per-message callers: clears and
  /// refills `*out` with the zones containing `p` (same order as
  /// `ZonesAt`), retaining its capacity — the same scratch contract as
  /// `GridIndex::QueryRadiusInto`.
  void ZonesAtInto(const GeoPoint& p,
                   std::vector<const GeoZone*>* out) const;

  /// \brief Zones of a given type containing `p`.
  std::vector<const GeoZone*> ZonesAt(const GeoPoint& p, ZoneType type) const;

  /// \brief Zones whose bounds intersect `box`.
  std::vector<const GeoZone*> ZonesIn(const BoundingBox& box) const;

  /// \brief Zone by id; nullptr when unknown.
  const GeoZone* Find(uint32_t id) const;

  size_t size() const { return zones_.size(); }
  const std::vector<GeoZone>& zones() const { return zones_; }

 private:
  std::vector<GeoZone> zones_;
  RTree index_;
};

}  // namespace marlin

#endif  // MARLIN_CONTEXT_ZONES_H_
