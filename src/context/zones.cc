#include "context/zones.h"

namespace marlin {

const char* ZoneTypeName(ZoneType t) {
  switch (t) {
    case ZoneType::kPort:
      return "port";
    case ZoneType::kAnchorage:
      return "anchorage";
    case ZoneType::kEez:
      return "eez";
    case ZoneType::kProtectedArea:
      return "protected-area";
    case ZoneType::kShippingLane:
      return "shipping-lane";
    case ZoneType::kFishingGround:
      return "fishing-ground";
    case ZoneType::kRestricted:
      return "restricted";
  }
  return "unknown";
}

uint32_t ZoneDatabase::Add(GeoZone zone) {
  zone.id = static_cast<uint32_t>(zones_.size());
  zones_.push_back(std::move(zone));
  // Zone sets are small and built once, so a full STR re-pack per Add is
  // cheap and yields the same tree a single bulk load would.
  std::vector<RTreeEntry> entries;
  entries.reserve(zones_.size());
  for (const GeoZone& z : zones_) {
    entries.push_back(RTreeEntry{z.polygon.bounds(), z.id});
  }
  index_ = RTree(std::move(entries));
  return zones_.back().id;
}

void ZoneDatabase::ZonesAtInto(const GeoPoint& p,
                               std::vector<const GeoZone*>* out) const {
  out->clear();
  const BoundingBox probe(p.lat, p.lon, p.lat, p.lon);
  index_.Visit(probe, [&](const RTreeEntry& e) {
    const GeoZone& z = zones_[e.id];
    if (z.polygon.Contains(p)) out->push_back(&z);
    return true;
  });
}

std::vector<const GeoZone*> ZoneDatabase::ZonesAt(const GeoPoint& p) const {
  std::vector<const GeoZone*> out;
  ZonesAtInto(p, &out);
  return out;
}

std::vector<const GeoZone*> ZoneDatabase::ZonesAt(const GeoPoint& p,
                                                  ZoneType type) const {
  std::vector<const GeoZone*> out;
  for (const GeoZone* z : ZonesAt(p)) {
    if (z->type == type) out.push_back(z);
  }
  return out;
}

std::vector<const GeoZone*> ZoneDatabase::ZonesIn(const BoundingBox& box) const {
  std::vector<const GeoZone*> out;
  index_.Visit(box, [&](const RTreeEntry& e) {
    out.push_back(&zones_[e.id]);
    return true;
  });
  return out;
}

const GeoZone* ZoneDatabase::Find(uint32_t id) const {
  if (id >= zones_.size()) return nullptr;
  return &zones_[id];
}

}  // namespace marlin
