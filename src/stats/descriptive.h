#ifndef TRAJKIT_STATS_DESCRIPTIVE_H_
#define TRAJKIT_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace trajkit::stats {

/// Minimum of a non-empty range. Precondition: !values.empty().
double Min(std::span<const double> values);

/// Maximum of a non-empty range. Precondition: !values.empty().
double Max(std::span<const double> values);

/// Arithmetic mean of a non-empty range.
double Mean(std::span<const double> values);

/// Min, Max, Mean and StdDev of one range.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// All four in two passes (min, max and the sum in the first), each field
/// bit-identical to the separate call: the sums run in the same order, and
/// the first extreme value wins a tie. Precondition: !values.empty().
Summary Summarize(std::span<const double> values);

/// Population variance (ddof = 0, numpy default). Precondition: non-empty.
double Variance(std::span<const double> values);

/// Population standard deviation (ddof = 0). Precondition: non-empty.
double StdDev(std::span<const double> values);

/// Sample standard deviation (ddof = 1). Precondition: size >= 2.
double SampleStdDev(std::span<const double> values);

/// Median via the percentile-50 definition. Precondition: non-empty.
double Median(std::span<const double> values);

/// Percentile with numpy's default "linear" interpolation:
/// rank = p/100 * (n-1); result interpolates between the two surrounding
/// order statistics. `p` in [0, 100]. Precondition: non-empty.
double Percentile(std::span<const double> values, double p);

/// Computes several percentiles in one call (see PercentilesInto).
std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps);

/// Like Percentiles, but writes the ps.size() results into `out` and uses
/// `scratch` as the working copy (refilled for every five percentiles)
/// when the input is longer than 32 values, so tight extraction loops pay
/// no per-call allocation. Precondition: out.size() == ps.size().
///
/// Inputs of at most 32 values are copied into a stack buffer and sorted
/// by a fixed network of 191 branchless compare-exchanges (Batcher's
/// odd-even merge sort, padded with +inf to 32); an input holding a NaN is
/// sorted by std::sort instead. Past 32 values, only the order statistics
/// the percentiles read are placed, by rank selection: each round
/// partitions around a median-of-three pivot in one branchless
/// `x < pivot` pass, and splits off the block equal to the pivot only when
/// nothing is below it; subranges of at most 8 values are insertion-sorted,
/// and past ~2 log2(n) levels a subrange is sorted. Of an interpolated
/// percentile only the lower order statistic is placed; the upper one is
/// the least value between it and the next placed rank.
/// Each result is bit-identical to interpolating on a std::sort-ed copy:
/// without a NaN the two orders differ at most in the signs of zeros, and
/// an interpolation between zeros is +0 whatever their signs. The one
/// exception: when a percentile reads the last order statistic alone
/// (p = 100, or a rank that rounds to n-1) and the maximum is a zero of
/// both signs, which of +0/-0 comes back is unspecified, as it is for
/// std::sort. NaN inputs give unspecified values but the call returns.
void PercentilesInto(std::span<const double> values,
                     std::span<const double> ps,
                     std::vector<double>& scratch, std::span<double> out);

/// Where percentile `p` of `n` sorted values reads (numpy "linear"): the
/// order statistic s[lo] alone when `single`, else
/// s[lo] + frac * (s[lo + 1] - s[lo]).
struct PercentileRank {
  size_t lo = 0;
  bool single = true;
  double frac = 0.0;
};

/// The rank percentile `p` in [0, 100] reads from `n` >= 1 values. Every
/// input of the same length reads the same ranks, so callers that take the
/// same percentiles of several equal-length ranges locate them once.
PercentileRank LocatePercentile(size_t n, double p);

/// The kernel of PercentilesInto, over ranks already located for
/// values.size(): writes the percentile each of `located` (at most 5)
/// reads into `out`. Precondition: out.size() == located.size().
void PercentilesAt(std::span<const double> values,
                   std::span<const PercentileRank> located,
                   std::vector<double>& scratch, std::span<double> out);

/// Single-pass accumulator for min/max/mean/variance (Welford). Useful for
/// streaming point features without materializing them.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  size_t count() const { return count_; }
  /// Preconditions for the accessors below: count() > 0 (count() > 1 for
  /// SampleVariance).
  double min() const;
  double max() const;
  double mean() const;
  double PopulationVariance() const;
  double PopulationStdDev() const;
  double SampleVariance() const;

  /// Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStats& other);

 private:
  size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-width histogram over [lo, hi); values outside are clamped to the
/// edge bins. Used for corpus diagnostics in the synthetic generator.
class Histogram {
 public:
  /// Precondition: lo < hi, bins > 0.
  Histogram(double lo, double hi, size_t bins);

  void Add(double x);
  size_t bin_count(size_t i) const { return counts_.at(i); }
  size_t num_bins() const { return counts_.size(); }
  size_t total() const { return total_; }

  /// Lower edge of bin i.
  double BinLowerEdge(size_t i) const;

 private:
  double lo_;
  double hi_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

}  // namespace trajkit::stats

#endif  // TRAJKIT_STATS_DESCRIPTIVE_H_
