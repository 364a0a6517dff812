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
/// `scratch` as the working copy (refilled each call), so tight extraction
/// loops pay no per-call allocation. Precondition: out.size() == ps.size().
///
/// Only the order statistics the percentiles read are placed, by rank
/// selection (a three-way partition around a median-of-three pivot;
/// subranges of at most 64 values, or past ~2 log2(n) levels, are
/// sorted). Each result is bit-identical to interpolating on a fully
/// sorted copy, with one exception inherited from std::sort: when a
/// percentile reads the last order statistic alone (p = 100, or a rank
/// that rounds to n-1) and the maximum is a zero of both signs, which of
/// +0/-0 comes back is unspecified. NaN inputs give unspecified values but
/// the call returns.
void PercentilesInto(std::span<const double> values,
                     std::span<const double> ps,
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
