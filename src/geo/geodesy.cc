#include "geo/geodesy.h"

#include <algorithm>

namespace trajkit::geo {

bool IsValid(const LatLon& p) {
  return std::isfinite(p.lat_deg) && std::isfinite(p.lon_deg) &&
         p.lat_deg >= -90.0 && p.lat_deg <= 90.0 && p.lon_deg >= -180.0 &&
         p.lon_deg <= 180.0;
}

namespace {

// The haversine formula over cached latitude trig.
double HaversineFromTrig(const LatLon& a, const LatTrig& a_trig,
                         const LatLon& b, const LatTrig& b_trig) {
  const double dlat = b_trig.lat_rad - a_trig.lat_rad;
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  double h = sin_dlat * sin_dlat +
             a_trig.cos_lat * b_trig.cos_lat * sin_dlon * sin_dlon;
  h = std::clamp(h, 0.0, 1.0);
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(h));
}

// The forward-azimuth formula over cached latitude trig.
double BearingFromTrig(const LatLon& a, const LatTrig& a_trig,
                       const LatLon& b, const LatTrig& b_trig) {
  if (a == b) return 0.0;
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * b_trig.cos_lat;
  const double x = a_trig.cos_lat * b_trig.sin_lat -
                   a_trig.sin_lat * b_trig.cos_lat * std::cos(dlon);
  return NormalizeBearingDeg(RadToDeg(std::atan2(y, x)));
}

}  // namespace

LatTrig LatitudeTrig(double lat_deg) {
  const double lat_rad = DegToRad(lat_deg);
  return {lat_rad, std::sin(lat_rad), std::cos(lat_rad)};
}

Leg LegBetween(const LatLon& a, const LatTrig& a_trig, const LatLon& b,
               const LatTrig& b_trig) {
  return {HaversineFromTrig(a, a_trig, b, b_trig),
          BearingFromTrig(a, a_trig, b, b_trig)};
}

double HaversineMeters(const LatLon& a, const LatLon& b) {
  return HaversineFromTrig(a, LatitudeTrig(a.lat_deg), b,
                           LatitudeTrig(b.lat_deg));
}

double InitialBearingDeg(const LatLon& a, const LatLon& b) {
  return BearingFromTrig(a, LatitudeTrig(a.lat_deg), b,
                         LatitudeTrig(b.lat_deg));
}

LatLon Destination(const LatLon& origin, double bearing_deg,
                   double distance_m) {
  const double delta = distance_m / kEarthRadiusMeters;
  const double theta = DegToRad(bearing_deg);
  const double lat1 = DegToRad(origin.lat_deg);
  const double lon1 = DegToRad(origin.lon_deg);
  const double sin_lat2 = std::sin(lat1) * std::cos(delta) +
                          std::cos(lat1) * std::sin(delta) * std::cos(theta);
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = std::sin(theta) * std::sin(delta) * std::cos(lat1);
  const double x = std::cos(delta) - std::sin(lat1) * sin_lat2;
  double lon2 = lon1 + std::atan2(y, x);
  // Wrap longitude to [-180, 180).
  double lon2_deg = RadToDeg(lon2);
  while (lon2_deg >= 180.0) lon2_deg -= 360.0;
  while (lon2_deg < -180.0) lon2_deg += 360.0;
  return LatLon{RadToDeg(lat2), lon2_deg};
}

double NormalizeBearingDeg(double bearing_deg) {
  double b = std::fmod(bearing_deg, 360.0);
  if (b < 0.0) b += 360.0;
  return b;
}

double BearingDifferenceDeg(double a_deg, double b_deg) {
  // On [0, 360), the range of every bearing this module returns, both
  // normalizations and the fmod are exact identities (|b - a| < 360), so
  // skipping their three libm calls changes no bit. Segment close runs
  // this once per fix.
  double diff = b_deg - a_deg;
  if (!(a_deg >= 0.0 && a_deg < 360.0 && b_deg >= 0.0 && b_deg < 360.0)) {
    diff = std::fmod(NormalizeBearingDeg(b_deg) - NormalizeBearingDeg(a_deg),
                     360.0);
  }
  if (diff > 180.0) diff -= 360.0;
  if (diff <= -180.0) diff += 360.0;
  return diff;
}

EnuProjector::EnuProjector(const LatLon& reference)
    : reference_(reference),
      cos_ref_lat_(std::cos(DegToRad(reference.lat_deg))) {}

void EnuProjector::Forward(const LatLon& p, double* east_m,
                           double* north_m) const {
  *north_m = DegToRad(p.lat_deg - reference_.lat_deg) * kEarthRadiusMeters;
  *east_m = DegToRad(p.lon_deg - reference_.lon_deg) * kEarthRadiusMeters *
            cos_ref_lat_;
}

LatLon EnuProjector::Backward(double east_m, double north_m) const {
  const double lat =
      reference_.lat_deg + RadToDeg(north_m / kEarthRadiusMeters);
  const double lon =
      reference_.lon_deg +
      RadToDeg(east_m / (kEarthRadiusMeters * cos_ref_lat_));
  return LatLon{lat, lon};
}

void BoundingBox::Extend(const LatLon& p) {
  min_lat = std::min(min_lat, p.lat_deg);
  max_lat = std::max(max_lat, p.lat_deg);
  min_lon = std::min(min_lon, p.lon_deg);
  max_lon = std::max(max_lon, p.lon_deg);
}

bool BoundingBox::Contains(const LatLon& p) const {
  return p.lat_deg >= min_lat && p.lat_deg <= max_lat &&
         p.lon_deg >= min_lon && p.lon_deg <= max_lon;
}

}  // namespace trajkit::geo
