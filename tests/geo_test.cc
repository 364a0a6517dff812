// Unit and property tests for src/geo geodesy primitives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "geo/geodesy.h"

namespace trajkit::geo {
namespace {

TEST(GeodesyTest, HaversineZeroForIdenticalPoints) {
  const LatLon p{39.9, 116.4};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(GeodesyTest, HaversineKnownDistanceParisToLondon) {
  // Paris (48.8566, 2.3522) to London (51.5074, -0.1278): ~343.5 km.
  const LatLon paris{48.8566, 2.3522};
  const LatLon london{51.5074, -0.1278};
  EXPECT_NEAR(HaversineMeters(paris, london), 343.5e3, 1.5e3);
}

TEST(GeodesyTest, HaversineOneDegreeLatitudeIsabout111km) {
  const LatLon a{0.0, 0.0};
  const LatLon b{1.0, 0.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111.19e3, 0.2e3);
}

TEST(GeodesyTest, HaversineIsSymmetric) {
  const LatLon a{39.9, 116.4};
  const LatLon b{40.1, 116.2};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(GeodesyTest, HaversineAntipodalIsHalfCircumference) {
  const LatLon a{0.0, 0.0};
  const LatLon b{0.0, 180.0};
  EXPECT_NEAR(HaversineMeters(a, b), M_PI * kEarthRadiusMeters, 1.0);
}

TEST(GeodesyTest, BearingCardinalDirections) {
  const LatLon origin{39.9, 116.4};
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{40.0, 116.4}), 0.0, 1e-6);
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{39.8, 116.4}), 180.0, 1e-6);
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{39.9, 116.5}), 90.0, 0.1);
  EXPECT_NEAR(InitialBearingDeg(origin, LatLon{39.9, 116.3}), 270.0, 0.1);
}

TEST(GeodesyTest, BearingOfSamePointIsZero) {
  const LatLon p{10.0, 20.0};
  EXPECT_DOUBLE_EQ(InitialBearingDeg(p, p), 0.0);
}

// The haversine and bearing bodies as they were before the shared leg
// kernel, kept verbatim as oracles.
double ReferenceHaversineMeters(const LatLon& a, const LatLon& b) {
  const double lat1 = DegToRad(a.lat_deg);
  const double lat2 = DegToRad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  double h = sin_dlat * sin_dlat +
             std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  h = std::clamp(h, 0.0, 1.0);
  return 2.0 * kEarthRadiusMeters * std::asin(std::sqrt(h));
}

double ReferenceInitialBearingDeg(const LatLon& a, const LatLon& b) {
  if (a == b) return 0.0;
  const double lat1 = DegToRad(a.lat_deg);
  const double lat2 = DegToRad(b.lat_deg);
  const double dlon = DegToRad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  return NormalizeBearingDeg(RadToDeg(std::atan2(y, x)));
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectLegMatchesReference(const LatLon& a, const LatLon& b) {
  const double distance = ReferenceHaversineMeters(a, b);
  const double bearing = ReferenceInitialBearingDeg(a, b);
  const Leg leg =
      LegBetween(a, LatitudeTrig(a.lat_deg), b, LatitudeTrig(b.lat_deg));
  EXPECT_TRUE(SameBits(leg.distance_m, distance))
      << a.lat_deg << "," << a.lon_deg << " -> " << b.lat_deg << ","
      << b.lon_deg << ": " << leg.distance_m << " vs " << distance;
  EXPECT_TRUE(SameBits(leg.bearing_deg, bearing))
      << a.lat_deg << "," << a.lon_deg << " -> " << b.lat_deg << ","
      << b.lon_deg << ": " << leg.bearing_deg << " vs " << bearing;
  EXPECT_TRUE(SameBits(HaversineMeters(a, b), distance));
  EXPECT_TRUE(SameBits(InitialBearingDeg(a, b), bearing));
}

TEST(GeodesyTest, LegKernelBitIdenticalToReferenceFormulas) {
  Rng rng(31);
  // Random pairs anywhere, and short city-scale hops like GPS fixes.
  for (int i = 0; i < 20000; ++i) {
    const LatLon a{rng.Uniform(-90.0, 90.0), rng.Uniform(-180.0, 180.0)};
    ExpectLegMatchesReference(
        a, LatLon{rng.Uniform(-90.0, 90.0), rng.Uniform(-180.0, 180.0)});
    ExpectLegMatchesReference(
        a, LatLon{std::clamp(a.lat_deg + rng.Gaussian(0.0, 1e-4), -90.0, 90.0),
                  a.lon_deg + rng.Gaussian(0.0, 1e-4)});
  }
  const std::vector<LatLon> special = {
      {0.0, 0.0},     {39.9, 116.4},   {39.9, 116.4},  {90.0, 0.0},
      {90.0, 45.0},   {-90.0, 0.0},    {-90.0, -170.0}, {0.0, 180.0},
      {0.0, -180.0},  {10.0, 179.999}, {10.0, -179.999}, {-0.0, -0.0},
      {45.0, 90.0},   {-45.0, -90.0},  {1e-300, 1e-300}, {89.9999, 180.0}};
  // Identical points, poles, the antimeridian and antipodes.
  for (const LatLon& a : special) {
    for (const LatLon& b : special) ExpectLegMatchesReference(a, b);
    ExpectLegMatchesReference(a, LatLon{-a.lat_deg, a.lon_deg < 0.0
                                                        ? a.lon_deg + 180.0
                                                        : a.lon_deg - 180.0});
  }
}

TEST(GeodesyTest, NormalizeBearing) {
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(360.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(-90.0), 270.0);
  EXPECT_DOUBLE_EQ(NormalizeBearingDeg(725.0), 5.0);
}

TEST(GeodesyTest, BearingDifferenceWrapsToSignedHalfCircle) {
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(10.0, 350.0), -20.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(BearingDifferenceDeg(90.0, 90.0), 0.0);
}

// The general formula, which BearingDifferenceDeg short-cuts on [0, 360).
double ReferenceBearingDifferenceDeg(double a_deg, double b_deg) {
  double diff =
      std::fmod(NormalizeBearingDeg(b_deg) - NormalizeBearingDeg(a_deg),
                360.0);
  if (diff > 180.0) diff -= 360.0;
  if (diff <= -180.0) diff += 360.0;
  return diff;
}

TEST(GeodesyTest, BearingDifferenceBitIdenticalToReferenceFormula) {
  std::vector<double> bearings = {
      0.0, -0.0, 1e-300, 90.0, 180.0, std::nextafter(180.0, 0.0),
      std::nextafter(360.0, 0.0), 360.0, -1e-300, -90.0, 725.0, -720.25,
      1e6, std::numeric_limits<double>::infinity()};
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) bearings.push_back(rng.Uniform(0.0, 360.0));
  for (int i = 0; i < 200; ++i) bearings.push_back(rng.Uniform(-1e3, 1e3));
  for (const double a : bearings) {
    for (const double b : {bearings[0], bearings[6], bearings[7], a * 0.5,
                           rng.Uniform(0.0, 360.0), rng.Uniform(-1e3, 1e3)}) {
      const double got = BearingDifferenceDeg(a, b);
      const double want = ReferenceBearingDifferenceDeg(a, b);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "a=" << a << " b=" << b << " got " << got << " want " << want;
    }
  }
  EXPECT_TRUE(std::isnan(BearingDifferenceDeg(std::nan(""), 10.0)));
}

TEST(GeodesyTest, IsValidChecksRanges) {
  EXPECT_TRUE(IsValid(LatLon{0.0, 0.0}));
  EXPECT_TRUE(IsValid(LatLon{-90.0, 180.0}));
  EXPECT_FALSE(IsValid(LatLon{91.0, 0.0}));
  EXPECT_FALSE(IsValid(LatLon{0.0, -181.0}));
  EXPECT_FALSE(IsValid(LatLon{std::nan(""), 0.0}));
}

TEST(GeodesyTest, DestinationNorthIncreasesLatitude) {
  const LatLon origin{39.9, 116.4};
  const LatLon dest = Destination(origin, 0.0, 10000.0);
  EXPECT_GT(dest.lat_deg, origin.lat_deg);
  EXPECT_NEAR(dest.lon_deg, origin.lon_deg, 1e-9);
}

TEST(GeodesyTest, BoundingBoxExtendAndContains) {
  BoundingBox box;
  EXPECT_FALSE(box.IsInitialized());
  box.Extend(LatLon{1.0, 2.0});
  box.Extend(LatLon{-1.0, 5.0});
  EXPECT_TRUE(box.IsInitialized());
  EXPECT_TRUE(box.Contains(LatLon{0.0, 3.0}));
  EXPECT_FALSE(box.Contains(LatLon{2.0, 3.0}));
  EXPECT_TRUE(box.Contains(LatLon{1.0, 2.0}));  // Inclusive edge.
}

TEST(GeodesyTest, EnuRoundTripAtReference) {
  const EnuProjector projector(LatLon{39.9, 116.4});
  double e = 0.0;
  double n = 0.0;
  projector.Forward(LatLon{39.9, 116.4}, &e, &n);
  EXPECT_NEAR(e, 0.0, 1e-9);
  EXPECT_NEAR(n, 0.0, 1e-9);
}

// Property suite: pseudo-random city-scale points.
class GeodesyPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(GeodesyPropertyTest, DestinationInvertsDistanceAndBearing) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const LatLon origin{rng.Uniform(-60.0, 60.0), rng.Uniform(-179.0, 179.0)};
    const double bearing = rng.Uniform(0.0, 360.0);
    const double distance = rng.Uniform(1.0, 50000.0);
    const LatLon dest = Destination(origin, bearing, distance);
    EXPECT_NEAR(HaversineMeters(origin, dest), distance,
                std::max(0.01, distance * 1e-9));
    // The spherical forward azimuth matches the requested bearing.
    EXPECT_NEAR(std::fabs(BearingDifferenceDeg(
                    InitialBearingDeg(origin, dest), bearing)),
                0.0, 0.2);
  }
}

TEST_P(GeodesyPropertyTest, TriangleInequalityHolds) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    const LatLon a{rng.Uniform(-80.0, 80.0), rng.Uniform(-180.0, 180.0)};
    const LatLon b{rng.Uniform(-80.0, 80.0), rng.Uniform(-180.0, 180.0)};
    const LatLon c{rng.Uniform(-80.0, 80.0), rng.Uniform(-180.0, 180.0)};
    EXPECT_LE(HaversineMeters(a, c),
              HaversineMeters(a, b) + HaversineMeters(b, c) + 1e-6);
  }
}

TEST_P(GeodesyPropertyTest, EnuRoundTripCityScale) {
  Rng rng(GetParam() + 2000);
  const LatLon ref{rng.Uniform(-60.0, 60.0), rng.Uniform(-179.0, 179.0)};
  const EnuProjector projector(ref);
  for (int i = 0; i < 50; ++i) {
    const double east = rng.Uniform(-20000.0, 20000.0);
    const double north = rng.Uniform(-20000.0, 20000.0);
    const LatLon p = projector.Backward(east, north);
    double e2 = 0.0;
    double n2 = 0.0;
    projector.Forward(p, &e2, &n2);
    EXPECT_NEAR(e2, east, 1e-6);
    EXPECT_NEAR(n2, north, 1e-6);
  }
}

TEST_P(GeodesyPropertyTest, EnuDistanceMatchesHaversineLocally) {
  Rng rng(GetParam() + 3000);
  const LatLon ref{rng.Uniform(-55.0, 55.0), rng.Uniform(-170.0, 170.0)};
  const EnuProjector projector(ref);
  for (int i = 0; i < 30; ++i) {
    const double east = rng.Uniform(-3000.0, 3000.0);
    const double north = rng.Uniform(-3000.0, 3000.0);
    const LatLon p = projector.Backward(east, north);
    const double planar = std::hypot(east, north);
    const double spherical = HaversineMeters(ref, p);
    // Within 0.5% at city scale.
    EXPECT_NEAR(spherical, planar, std::max(0.5, planar * 5e-3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeodesyPropertyTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace trajkit::geo
