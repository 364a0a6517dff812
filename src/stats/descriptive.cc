#include "stats/descriptive.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"

namespace trajkit::stats {

double Min(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double Max(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

double Mean(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  return std::sqrt(Variance(values));
}

double SampleStdDev(std::span<const double> values) {
  TRAJKIT_CHECK_GE(values.size(), 2u);
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mu;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double Median(std::span<const double> values) {
  return Percentile(values, 50.0);
}

namespace {

// Where percentile `p` of `n` sorted values reads (numpy "linear"): the
// order statistic s[lo] alone when `single`, else
// s[lo] + frac * (s[lo + 1] - s[lo]).
struct PercentileRank {
  size_t lo = 0;
  bool single = true;
  double frac = 0.0;
};

PercentileRank LocatePercentile(size_t n, double p) {
  if (n == 1) return {};
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  const double lo_rank = std::floor(rank);
  const size_t lo = static_cast<size_t>(lo_rank);
  if (lo + 1 >= n) return {n - 1, true, 0.0};
  return {lo, false, rank - lo_rank};
}

double PercentileAt(std::span<const double> s, const PercentileRank& r) {
  if (r.single) return s[r.lo];
  return s[r.lo] + r.frac * (s[r.lo + 1] - s[r.lo]);
}

// Percentiles per selection round: two ranks each, so at most 10 ranks
// live in a fixed array.
constexpr size_t kPercentilesPerRound = 5;
// Subranges this small are finished with std::sort.
constexpr size_t kSortCutoff = 64;

// One of a, b, c, and their median when all three are ordered.
double MedianOfThree(double a, double b, double c) {
  if (a < b) {
    if (b < c) return b;
    return a < c ? c : a;
  }
  if (a < c) return a;
  return b < c ? c : b;
}

// Moves the elements of [first, last) that satisfy `pred` to the front,
// without branching on the data; returns the end of that prefix.
template <typename Pred>
double* PartitionBranchless(double* first, double* last, Pred pred) {
  double* out = first;
  for (double* it = first; it != last; ++it) {
    const double x = *it;
    const bool keep = pred(x);
    *it = *out;
    *out = x;
    out += keep;
  }
  return out;
}

// Puts at each position of `ranks` (ascending, offsets from `base`, all in
// [first, last)) the value std::sort would put there. Every other element
// stays in [first, last), on the correct side of each placed rank.
void PlaceRanks(double* base, double* first, double* last,
                const size_t* ranks, const size_t* ranks_end, int depth) {
  while (ranks != ranks_end) {
    if (static_cast<size_t>(last - first) <= kSortCutoff || depth == 0) {
      std::sort(first, last);
      return;
    }
    --depth;
    // The pivot is an element of the range, so the `== pivot` block below
    // is never empty (NaN included) and every round shrinks the range.
    const double pivot =
        MedianOfThree(*first, first[(last - first) / 2], last[-1]);
    double* const lt = PartitionBranchless(
        first, last, [pivot](double x) { return x < pivot; });
    double* const le = PartitionBranchless(
        lt, last, [pivot](double x) { return !(pivot < x); });
    // [first, lt) < pivot, [lt, le) == pivot, [le, last) > pivot.
    const size_t lt_rank = static_cast<size_t>(lt - base);
    const size_t le_rank = static_cast<size_t>(le - base);
    const size_t* left_end = ranks;
    while (left_end != ranks_end && *left_end < lt_rank) ++left_end;
    const size_t* right = left_end;
    while (right != ranks_end && *right < le_rank) ++right;
    PlaceRanks(base, first, lt, ranks, left_end, depth);
    first = le;
    ranks = right;
  }
}

// Places the ranks that `located` reads in `values`.
void SelectRanks(std::span<double> values,
                 std::span<const PercentileRank> located) {
  // Small inputs are PlaceRanks' base case; skip collecting their ranks.
  if (values.size() <= kSortCutoff) {
    std::sort(values.begin(), values.end());
    return;
  }
  // Insertion into an ascending, duplicate-free list of at most 10 ranks.
  std::array<size_t, 2 * kPercentilesPerRound> ranks;
  size_t count = 0;
  const auto insert = [&ranks, &count](size_t rank) {
    size_t i = count;
    while (i > 0 && ranks[i - 1] > rank) --i;
    if (i > 0 && ranks[i - 1] == rank) return;
    for (size_t j = count; j > i; --j) ranks[j] = ranks[j - 1];
    ranks[i] = rank;
    ++count;
  };
  for (const PercentileRank& r : located) {
    insert(r.lo);
    if (!r.single) insert(r.lo + 1);
  }
  const size_t* const ranks_end = ranks.data() + count;
  // Past ~2 log2(n) levels the subrange is sorted: O(n log n) worst case.
  int depth = 0;
  for (size_t n = values.size(); n > 1; n >>= 1) depth += 2;
  PlaceRanks(values.data(), values.data(), values.data() + values.size(),
             ranks.data(), ranks_end, depth);
}

}  // namespace

double Percentile(std::span<const double> values, double p) {
  double out = 0.0;
  std::vector<double> scratch;
  PercentilesInto(values, std::span<const double>(&p, 1), scratch,
                  std::span<double>(&out, 1));
  return out;
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps) {
  std::vector<double> out(ps.size());
  std::vector<double> scratch;
  PercentilesInto(values, ps, scratch, out);
  return out;
}

void PercentilesInto(std::span<const double> values,
                     std::span<const double> ps,
                     std::vector<double>& scratch, std::span<double> out) {
  TRAJKIT_CHECK(!values.empty());
  TRAJKIT_CHECK_EQ(out.size(), ps.size());
  for (const double p : ps) {
    TRAJKIT_CHECK_GE(p, 0.0);
    TRAJKIT_CHECK_LE(p, 100.0);
  }
  scratch.assign(values.begin(), values.end());
  // Selection leaves `scratch` a permutation of `values`, so each round
  // can select again on what the previous one left.
  std::array<PercentileRank, kPercentilesPerRound> located;
  for (size_t begin = 0; begin < ps.size(); begin += kPercentilesPerRound) {
    const size_t count = std::min(kPercentilesPerRound, ps.size() - begin);
    for (size_t i = 0; i < count; ++i) {
      located[i] = LocatePercentile(scratch.size(), ps[begin + i]);
    }
    SelectRanks(scratch, std::span(located.data(), count));
    for (size_t i = 0; i < count; ++i) {
      out[begin + i] = PercentileAt(scratch, located[i]);
    }
  }
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::min() const {
  TRAJKIT_CHECK_GT(count_, 0u);
  return min_;
}

double RunningStats::max() const {
  TRAJKIT_CHECK_GT(count_, 0u);
  return max_;
}

double RunningStats::mean() const {
  TRAJKIT_CHECK_GT(count_, 0u);
  return mean_;
}

double RunningStats::PopulationVariance() const {
  TRAJKIT_CHECK_GT(count_, 0u);
  return m2_ / static_cast<double>(count_);
}

double RunningStats::PopulationStdDev() const {
  return std::sqrt(PopulationVariance());
}

double RunningStats::SampleVariance() const {
  TRAJKIT_CHECK_GT(count_, 1u);
  return m2_ / static_cast<double>(count_ - 1);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * (n2 / n);
  m2_ += other.m2_ + delta * delta * (n1 * n2 / n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  TRAJKIT_CHECK_LT(lo, hi);
  TRAJKIT_CHECK_GT(bins, 0u);
}

void Histogram::Add(double x) {
  const double span = hi_ - lo_;
  double frac = (x - lo_) / span;
  frac = std::clamp(frac, 0.0, 1.0);
  size_t bin = static_cast<size_t>(frac * static_cast<double>(counts_.size()));
  if (bin >= counts_.size()) bin = counts_.size() - 1;
  ++counts_[bin];
  ++total_;
}

double Histogram::BinLowerEdge(size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

}  // namespace trajkit::stats
