// Unit and property tests for src/stats descriptive statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stats/descriptive.h"

namespace trajkit::stats {
namespace {

TEST(DescriptiveTest, MinMaxMean) {
  const std::vector<double> v = {3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(Min(v), -1.0);
  EXPECT_DOUBLE_EQ(Max(v), 7.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.75);
}

TEST(DescriptiveTest, SingleElement) {
  const std::vector<double> v = {5.0};
  EXPECT_DOUBLE_EQ(Min(v), 5.0);
  EXPECT_DOUBLE_EQ(Max(v), 5.0);
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 0.0);
  EXPECT_DOUBLE_EQ(Median(v), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 5.0);
}

TEST(DescriptiveTest, VarianceAndStdDevPopulation) {
  // numpy: np.var([1,2,3,4]) = 1.25, np.std = 1.1180...
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_NEAR(StdDev(v), 1.118033988749895, 1e-12);
}

TEST(DescriptiveTest, SampleStdDev) {
  // np.std([1,2,3,4], ddof=1) = 1.2909944...
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(SampleStdDev(v), 1.2909944487358056, 1e-12);
}

// The summary is the separate calls, bit for bit: zeros of both signs
// and infinities included.
TEST(DescriptiveTest, SummarizeMatchesSeparateCalls) {
  Rng rng(31);
  const double inf = std::numeric_limits<double>::infinity();
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<double> v(n);
    for (double& x : v) {
      const uint64_t pick = rng.NextBounded(10);
      x = pick == 0   ? 0.0
          : pick == 1 ? -0.0
          : pick == 2 && trial % 4 == 3 ? (rng.NextBounded(2) ? inf : -inf)
                                        : rng.Gaussian(0.0, 5.0);
    }
    const Summary summary = Summarize(v);
    EXPECT_TRUE(same(summary.min, Min(v))) << "trial " << trial;
    EXPECT_TRUE(same(summary.max, Max(v))) << "trial " << trial;
    EXPECT_TRUE(same(summary.mean, Mean(v))) << "trial " << trial;
    EXPECT_TRUE(same(summary.stddev, StdDev(v))) << "trial " << trial;
  }
  // Ties between +0 and -0: the first one wins, as in min/max_element.
  const std::vector<double> zeros = {0.0, -0.0, 0.0};
  EXPECT_FALSE(std::signbit(Summarize(zeros).min));
  EXPECT_FALSE(std::signbit(Summarize(zeros).max));
}

TEST(DescriptiveTest, MedianEvenAndOdd) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(DescriptiveTest, PercentileMatchesNumpyLinearInterpolation) {
  // np.percentile([1,2,3,4], [10,25,50,75,90])
  //   = [1.3, 1.75, 2.5, 3.25, 3.7]
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(Percentile(v, 10.0), 1.3, 1e-12);
  EXPECT_NEAR(Percentile(v, 25.0), 1.75, 1e-12);
  EXPECT_NEAR(Percentile(v, 50.0), 2.5, 1e-12);
  EXPECT_NEAR(Percentile(v, 75.0), 3.25, 1e-12);
  EXPECT_NEAR(Percentile(v, 90.0), 3.7, 1e-12);
}

TEST(DescriptiveTest, PercentileEdges) {
  const std::vector<double> v = {5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 9.0);
}

TEST(DescriptiveTest, PercentileUnsortedInput) {
  const std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 5.0);
}

TEST(DescriptiveTest, PercentilesBatchMatchesSingle) {
  const std::vector<double> v = {2.0, 8.0, 4.0, 6.0, 0.0};
  const std::vector<double> ps = {10.0, 50.0, 90.0};
  const std::vector<double> batch = Percentiles(v, ps);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], Percentile(v, ps[i]));
  }
}

// ------------------------------------ Selection kernel vs. a full sort --

// The percentile path as it was before rank selection, kept verbatim as the
// oracle: copy, std::sort, interpolate on the sorted copy.
double ReferencePercentileOfSorted(std::span<const double> sorted, double p) {
  const size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  const double lo_rank = std::floor(rank);
  const size_t lo = static_cast<size_t>(lo_rank);
  if (lo + 1 >= n) return sorted[n - 1];
  const double frac = rank - lo_rank;
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

std::vector<double> ReferencePercentiles(std::span<const double> values,
                                         std::span<const double> ps) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  for (const double p : ps) {
    out.push_back(ReferencePercentileOfSorted(sorted, p));
  }
  return out;
}

const std::vector<double> kFeaturePs = {10.0, 25.0, 50.0, 75.0, 90.0};
// Unsorted, with repeats, more than one selection round, and both ends.
const std::vector<double> kMixedPs = {90.0, 10.0, 50.0, 50.0, 0.0, 100.0,
                                      25.0, 75.0, 10.0, 33.3, 99.9, 0.1};

// memcmp, not ==: the sign of a zero must match too.
void ExpectBitIdentical(const std::vector<double>& values,
                        const std::vector<double>& ps,
                        const std::string& what) {
  const std::vector<double> expected = ReferencePercentiles(values, ps);
  std::vector<double> scratch;
  std::vector<double> got(ps.size());
  PercentilesInto(values, ps, scratch, got);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got[i], &expected[i], sizeof(double)), 0)
        << what << " n=" << values.size() << " p=" << ps[i]
        << " got=" << got[i] << " expected=" << expected[i];
  }
  // The public wrappers share the kernel.
  EXPECT_EQ(std::memcmp(Percentiles(values, ps).data(), got.data(),
                        ps.size() * sizeof(double)),
            0)
      << what;
  // So does PercentilesAt, in rounds of at most five located ranks.
  std::vector<double> at(ps.size());
  for (size_t begin = 0; begin < ps.size(); begin += 5) {
    const size_t count = std::min<size_t>(5, ps.size() - begin);
    std::vector<PercentileRank> located;
    for (size_t i = begin; i < begin + count; ++i) {
      located.push_back(LocatePercentile(values.size(), ps[i]));
    }
    PercentilesAt(values, located, scratch,
                  std::span(at.data() + begin, count));
  }
  EXPECT_EQ(std::memcmp(at.data(), got.data(), ps.size() * sizeof(double)),
            0)
      << what << " (PercentilesAt)";
}

// Value distributions. Each returns n values in random order.
enum class Distribution { kGaussian, kAllEqual, kDuplicates, kSignedZeros,
                          kInfinities };

std::vector<double> MakeValues(Distribution distribution, size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    switch (distribution) {
      case Distribution::kGaussian:
        x = rng.Gaussian(0.0, 10.0);
        break;
      case Distribution::kAllEqual:
        x = 3.25;
        break;
      case Distribution::kDuplicates:
        x = static_cast<double>(rng.NextBounded(5));
        break;
      case Distribution::kSignedZeros: {
        // Mostly +0/-0, with some values on both sides of zero.
        const uint64_t pick = rng.NextBounded(6);
        x = pick == 0 ? -1.5 : pick == 1 ? 2.5 : pick % 2 == 0 ? 0.0 : -0.0;
        break;
      }
      case Distribution::kInfinities: {
        const uint64_t pick = rng.NextBounded(8);
        x = pick == 0   ? std::numeric_limits<double>::infinity()
            : pick == 1 ? -std::numeric_limits<double>::infinity()
                        : rng.Gaussian(0.0, 1.0);
        break;
      }
    }
  }
  // A positive maximum keeps p = 100 off a zero of unspecified sign (see
  // AllZerosOfBothSignsInterpolateToPositiveZero).
  if (distribution == Distribution::kSignedZeros) v[rng.NextBounded(n)] = 2.5;
  return v;
}

// Musser's median-of-3 killer sequence: exact when n is a multiple of 4;
// other n get the same construction (odd n one more element appended).
std::vector<double> MedianOfThreeKiller(size_t n) {
  const size_t k = n / 2;
  std::vector<double> v(2 * k);
  for (size_t i = 1; i <= k; ++i) {
    if (i % 2 == 1) {
      v[i - 1] = static_cast<double>(i);
      v[i] = static_cast<double>(k + i);
    }
    v[k + i - 1] = static_cast<double>(2 * i);
  }
  if (n % 2 == 1) v.push_back(static_cast<double>(n));
  return v;
}

std::vector<size_t> OracleSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 160; ++n) sizes.push_back(n);  // 63/64/65 included.
  for (const size_t n : {191u, 255u, 256u, 257u, 500u, 584u, 1000u, 1023u,
                         2048u, 3001u, 4861u, 5000u}) {
    sizes.push_back(n);
  }
  return sizes;
}

TEST(PercentileSelectionTest, BitIdenticalToFullSortOnRandomOrders) {
  Rng rng(2024);
  for (const Distribution distribution :
       {Distribution::kGaussian, Distribution::kAllEqual,
        Distribution::kDuplicates, Distribution::kSignedZeros,
        Distribution::kInfinities}) {
    for (const size_t n : OracleSizes()) {
      const std::vector<double> v = MakeValues(distribution, n, rng);
      const std::string what =
          "distribution " + std::to_string(static_cast<int>(distribution));
      ExpectBitIdentical(v, kFeaturePs, what);
      ExpectBitIdentical(v, kMixedPs, what);
    }
  }
}

TEST(PercentileSelectionTest, BitIdenticalToFullSortOnAdversarialOrders) {
  Rng rng(7);
  for (const size_t n : OracleSizes()) {
    std::vector<double> sorted = MakeValues(Distribution::kGaussian, n, rng);
    std::sort(sorted.begin(), sorted.end());
    const std::vector<double> reverse(sorted.rbegin(), sorted.rend());
    // Organ pipe: ascending evens, then descending odds.
    std::vector<double> organ;
    for (size_t i = 0; i < n; i += 2) organ.push_back(sorted[i]);
    for (size_t i = n; i-- > 0;) {
      if (i % 2 == 1) organ.push_back(sorted[i]);
    }
    ASSERT_EQ(organ.size(), n);
    ExpectBitIdentical(sorted, kMixedPs, "sorted");
    ExpectBitIdentical(reverse, kMixedPs, "reverse");
    ExpectBitIdentical(organ, kMixedPs, "organ pipe");
    ExpectBitIdentical(MedianOfThreeKiller(n), kMixedPs, "median-of-3 killer");
    // Sorted runs of signed zeros: -0 block before the +0 block and after.
    std::vector<double> zeros(n, 0.0);
    for (size_t i = 0; i < n / 2; ++i) zeros[i] = -0.0;
    zeros.push_back(1.0);  // A nonzero maximum, so p = 100 is defined.
    ExpectBitIdentical(zeros, kMixedPs, "-0 then +0");
    std::reverse(zeros.begin(), zeros.end() - 1);
    ExpectBitIdentical(zeros, kMixedPs, "+0 then -0");
  }
}

// Two percentiles of one round whose lower ranks are neighbours: the upper
// order statistic of the first is the placed rank of the second.
TEST(PercentileSelectionTest, AdjacentLowerRanksInOneRound) {
  Rng rng(17);
  for (const size_t n : OracleSizes()) {
    if (n < 3) continue;
    const double step = 100.0 / static_cast<double>(n - 1);
    for (const double p : {0.0, 37.0, 50.0, 88.0}) {
      const std::vector<double> ps = {p, std::min(100.0, p + step),
                                      std::min(100.0, p + 2.5 * step)};
      for (const Distribution distribution :
           {Distribution::kGaussian, Distribution::kDuplicates}) {
        ExpectBitIdentical(MakeValues(distribution, n, rng), ps,
                           "adjacent ranks p=" + std::to_string(p));
      }
    }
  }
}

TEST(PercentileSelectionTest, AllZerosOfBothSignsInterpolateToPositiveZero) {
  // With a zero maximum of both signs, p = 100 reads that zero alone and
  // its sign is unspecified (it was for std::sort too); every interpolated
  // percentile is +0.
  Rng rng(11);
  for (const size_t n : {2u, 3u, 64u, 65u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.NextBounded(2) == 0 ? 0.0 : -0.0;
    ExpectBitIdentical(v, kFeaturePs, "all zeros");
    for (const double value : Percentiles(v, kFeaturePs)) {
      EXPECT_FALSE(std::signbit(value));
    }
  }
}

// Up to 32 values the kernel sorts with a comparator network, which has
// no answer for NaN; an input holding one takes std::sort, so it reads
// exactly what the full-sort reference reads.
TEST(PercentileSelectionTest, NanInputOfAtMost32MatchesStdSort) {
  Rng rng(29);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t n = 1; n <= 32; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> v = MakeValues(
          trial % 2 == 0 ? Distribution::kGaussian : Distribution::kInfinities,
          n, rng);
      if (trial < 2) {
        v[rng.NextBounded(n)] = nan;  // One NaN.
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (trial == 5 || rng.NextBounded(3) == 0) v[i] = -nan;
        }
      }
      const std::string what = "NaN trial " + std::to_string(trial);
      ExpectBitIdentical(v, kFeaturePs, what);
      ExpectBitIdentical(v, kMixedPs, what);
    }
  }
}

TEST(PercentileSelectionTest, NanInputReturns) {
  Rng rng(13);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t n : {1u, 5u, 64u, 65u, 300u, 5000u}) {
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> v = MakeValues(Distribution::kDuplicates, n, rng);
      for (size_t i = 0; i < n; ++i) {
        if (trial == 4 || rng.NextBounded(4) == 0) v[i] = nan;
      }
      // The values are unspecified; the call must come back.
      EXPECT_EQ(Percentiles(v, kMixedPs).size(), kMixedPs.size());
    }
  }
}

TEST(RunningStatsTest, MatchesBatchOnKnownData) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  RunningStats rs;
  for (double x : v) rs.Add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.PopulationVariance(), 2.0);
}

TEST(RunningStatsTest, MergeEqualsSinglePass) {
  Rng rng(77);
  std::vector<double> all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    all.push_back(x);
    (i < 200 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.size());
  EXPECT_NEAR(left.mean(), Mean(all), 1e-9);
  EXPECT_NEAR(left.PopulationVariance(), Variance(all), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), Min(all));
  EXPECT_DOUBLE_EQ(left.max(), Max(all));
}

TEST(RunningStatsTest, MergeWithEmptySide) {
  RunningStats a;
  RunningStats b;
  b.Add(2.0);
  b.Add(4.0);
  a.Merge(b);  // Empty ← non-empty.
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  RunningStats c;
  a.Merge(c);  // Non-empty ← empty.
  EXPECT_EQ(a.count(), 2u);
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.Add(0.5);   // Bin 0.
  h.Add(9.5);   // Bin 4.
  h.Add(-3.0);  // Clamped to bin 0.
  h.Add(50.0);  // Clamped to bin 4.
  h.Add(10.0);  // Exactly hi → last bin.
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 3u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_DOUBLE_EQ(h.BinLowerEdge(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BinLowerEdge(4), 8.0);
}

// Property suite: streaming equals batch on random data.
class StatsPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(StatsPropertyTest, RunningMatchesBatch) {
  Rng rng(GetParam());
  std::vector<double> v;
  const int n = 1 + static_cast<int>(rng.NextBounded(500));
  RunningStats rs;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(-100.0, 100.0);
    v.push_back(x);
    rs.Add(x);
  }
  EXPECT_NEAR(rs.mean(), Mean(v), 1e-9);
  EXPECT_NEAR(rs.PopulationVariance(), Variance(v), 1e-7);
  EXPECT_DOUBLE_EQ(rs.min(), Min(v));
  EXPECT_DOUBLE_EQ(rs.max(), Max(v));
}

TEST_P(StatsPropertyTest, PercentileIsMonotoneInP) {
  Rng rng(GetParam() + 99);
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(rng.Gaussian(0.0, 5.0));
  double prev = Percentile(v, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = Percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_P(StatsPropertyTest, PercentileBracketedByMinMax) {
  Rng rng(GetParam() + 199);
  std::vector<double> v;
  for (int i = 0; i < 64; ++i) v.push_back(rng.Uniform(-10.0, 10.0));
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
    const double value = Percentile(v, p);
    EXPECT_GE(value, Min(v));
    EXPECT_LE(value, Max(v));
  }
}

TEST_P(StatsPropertyTest, MedianEqualsP50) {
  Rng rng(GetParam() + 299);
  std::vector<double> v;
  for (int i = 0; i < 31; ++i) v.push_back(rng.Gaussian(1.0, 3.0));
  EXPECT_DOUBLE_EQ(Median(v), Percentile(v, 50.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertyTest,
                         testing::Values(10u, 20u, 30u, 40u, 50u));

}  // namespace
}  // namespace trajkit::stats
