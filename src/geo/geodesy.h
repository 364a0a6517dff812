#ifndef TRAJKIT_GEO_GEODESY_H_
#define TRAJKIT_GEO_GEODESY_H_

#include <cmath>

namespace trajkit::geo {

/// Mean Earth radius in meters (IUGG), the constant used by the paper's
/// haversine implementation.
inline constexpr double kEarthRadiusMeters = 6371000.0;

/// Degrees → radians.
constexpr double DegToRad(double deg) { return deg * (M_PI / 180.0); }

/// Radians → degrees.
constexpr double RadToDeg(double rad) { return rad * (180.0 / M_PI); }

/// A WGS-84 geographic coordinate. Latitude in [-90, 90] degrees, longitude
/// in [-180, 180] degrees.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend bool operator==(const LatLon& a, const LatLon& b) {
    return a.lat_deg == b.lat_deg && a.lon_deg == b.lon_deg;
  }
};

/// True iff the coordinate is inside the valid WGS-84 ranges and finite.
bool IsValid(const LatLon& p);

/// The per-fix part of the haversine and bearing formulas: a latitude in
/// radians with its sine and cosine. A trajectory computes it once per fix
/// and shares it between the two legs that touch the fix.
struct LatTrig {
  double lat_rad = 0.0;
  double sin_lat = 0.0;
  double cos_lat = 1.0;
};

/// LatTrig of a latitude given in degrees.
LatTrig LatitudeTrig(double lat_deg);

/// One leg between consecutive fixes.
struct Leg {
  double distance_m = 0.0;
  double bearing_deg = 0.0;
};

/// Distance and initial bearing from `a` to `b`, given each fix's
/// LatitudeTrig. Bit-identical to {HaversineMeters(a, b),
/// InitialBearingDeg(a, b)}, which are computed by the same expressions.
Leg LegBetween(const LatLon& a, const LatTrig& a_trig, const LatLon& b,
               const LatTrig& b_trig);

/// Great-circle distance between two coordinates in meters using the
/// haversine formula (the formula named in §3.2 of the paper).
double HaversineMeters(const LatLon& a, const LatLon& b);

/// Initial bearing (forward azimuth) from `a` to `b` in degrees, normalized
/// to [0, 360). Bearing from a point to itself is defined as 0.
double InitialBearingDeg(const LatLon& a, const LatLon& b);

/// Solves the direct geodesy problem on the sphere: the point reached by
/// travelling `distance_m` meters from `origin` along `bearing_deg`.
LatLon Destination(const LatLon& origin, double bearing_deg,
                   double distance_m);

/// Normalizes an angle to [0, 360).
double NormalizeBearingDeg(double bearing_deg);

/// Signed smallest difference between two bearings, in (-180, 180]. Positive
/// means `b` is clockwise of `a`.
double BearingDifferenceDeg(double a_deg, double b_deg);

/// Local tangent-plane (ENU) projection anchored at a reference coordinate;
/// adequate for city-scale trajectories. Used by the synthetic generator to
/// move in meters and convert back to latitude/longitude.
class EnuProjector {
 public:
  /// Anchors the plane at `reference`.
  explicit EnuProjector(const LatLon& reference);

  /// Geographic → local (east, north) meters.
  void Forward(const LatLon& p, double* east_m, double* north_m) const;

  /// Local (east, north) meters → geographic.
  LatLon Backward(double east_m, double north_m) const;

  const LatLon& reference() const { return reference_; }

 private:
  LatLon reference_;
  double cos_ref_lat_;
};

/// Axis-aligned geographic bounding box.
struct BoundingBox {
  double min_lat = 90.0;
  double max_lat = -90.0;
  double min_lon = 180.0;
  double max_lon = -180.0;

  /// Expands the box to include `p`.
  void Extend(const LatLon& p);

  /// True iff `p` lies inside (inclusive).
  bool Contains(const LatLon& p) const;

  /// True iff at least one point was added.
  bool IsInitialized() const { return min_lat <= max_lat; }
};

}  // namespace trajkit::geo

#endif  // TRAJKIT_GEO_GEODESY_H_
