#include "stats/descriptive.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

namespace {

// Sum of (v - mean)^2 over `values`, in order.
double SquaredDeviations(std::span<const double> values, double mean) {
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mean;
    acc += d * d;
  }
  return acc;
}

}  // namespace

double Variance(std::span<const double> values) {
  return SquaredDeviations(values, Mean(values)) /
         static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  return std::sqrt(Variance(values));
}

Summary Summarize(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  // The comparisons of std::min_element and std::max_element.
  double lo = values[0];
  double hi = values[0];
  double sum = 0.0;
  for (double v : values) {
    sum += v;
    lo = v < lo ? v : lo;
    hi = hi < v ? v : hi;
  }
  const double n = static_cast<double>(values.size());
  const double mean = sum / n;
  return {lo, hi, mean, std::sqrt(SquaredDeviations(values, mean) / n)};
}

double SampleStdDev(std::span<const double> values) {
  TRAJKIT_CHECK_GE(values.size(), 2u);
  return std::sqrt(SquaredDeviations(values, Mean(values)) /
                   static_cast<double>(values.size() - 1));
}

double Median(std::span<const double> values) {
  return Percentile(values, 50.0);
}

namespace {

// Percentiles per selection round; each places one rank, so at most 5
// ranks live in a fixed array.
constexpr size_t kPercentilesPerRound = 5;
// Subranges this small are finished by insertion sort.
constexpr size_t kInsertionCutoff = 8;
// Inputs this small are sorted whole, by the comparator network below.
constexpr size_t kNetworkWidth = 32;

// One compare-exchange of a sorting network: v[lo] <= v[hi] afterwards.
struct Comparator {
  uint8_t lo;
  uint8_t hi;
};

// Batcher's odd-even merge sort over `width` (a power of two) inputs, in
// its iterative form; with out == nullptr it only counts the comparators.
constexpr size_t BatcherComparators(size_t width, Comparator* out) {
  size_t count = 0;
  for (size_t p = 1; p < width; p *= 2) {
    for (size_t k = p; k >= 1; k /= 2) {
      for (size_t j = k % p; j + k < width; j += 2 * k) {
        for (size_t i = 0; i < k && i + j + k < width; ++i) {
          if ((i + j) / (2 * p) != (i + j + k) / (2 * p)) continue;
          if (out != nullptr) {
            out[count] = {static_cast<uint8_t>(i + j),
                          static_cast<uint8_t>(i + j + k)};
          }
          ++count;
        }
      }
    }
  }
  return count;
}

constexpr size_t kNetworkSize = BatcherComparators(kNetworkWidth, nullptr);
static_assert(kNetworkSize == 191, "Batcher's network sorts 32 in 191");

constexpr std::array<Comparator, kNetworkSize> kNetwork = [] {
  std::array<Comparator, kNetworkSize> network{};
  BatcherComparators(kNetworkWidth, network.data());
  return network;
}();

// Without a NaN, the only doubles that compare equal but differ in bits
// are +0 and -0, so min/max may hand back either zero (minsd and maxsd
// both return their second operand on a tie) without changing any value
// a percentile reads; see SortSmall.
inline void CompareExchange(double* v, size_t lo, size_t hi) {
#if defined(__SSE2__)
  const __m128d a = _mm_load_sd(v + lo);
  const __m128d b = _mm_load_sd(v + hi);
  _mm_store_sd(v + lo, _mm_min_sd(a, b));
  _mm_store_sd(v + hi, _mm_max_sd(a, b));
#else
  const double a = v[lo];
  const double b = v[hi];
  v[lo] = a < b ? a : b;
  v[hi] = a > b ? a : b;
#endif
}

// Every comparator of kNetwork, unrolled so each index is a constant.
template <size_t... I>
inline void RunNetwork(double* v, std::index_sequence<I...>) {
  (CompareExchange(v, kNetwork[I].lo, kNetwork[I].hi), ...);
}

// Copies `values` (1 to kNetworkWidth of them) into sorted[0, n) in
// ascending order; `sorted` has kNetworkWidth slots. Without a NaN, the
// network sorts them padded with +inf to its width: +inf stays above every
// real value, so the first n outputs are the input's order statistics.
// With a NaN there is no order to respect, and std::sort on the n values
// in input order keeps the result what it always was.
void SortSmall(std::span<const double> values, double* sorted) {
  const size_t n = values.size();
  bool nan = false;
  for (size_t i = 0; i < n; ++i) {
    sorted[i] = values[i];
    nan |= std::isnan(values[i]);
  }
  if (nan) {
    std::sort(sorted, sorted + n);
    return;
  }
  std::fill(sorted + n, sorted + kNetworkWidth,
            std::numeric_limits<double>::infinity());
  RunNetwork(sorted, std::make_index_sequence<kNetworkSize>{});
}

// One of a, b, c, and their median when all three are ordered.
double MedianOfThree(double a, double b, double c) {
  if (a < b) {
    if (b < c) return b;
    return a < c ? c : a;
  }
  if (a < c) return a;
  return b < c ? c : b;
}

void InsertionSort(double* first, double* last) {
  for (double* it = first + 1; it < last; ++it) {
    const double x = *it;
    double* hole = it;
    for (; hole != first && x < hole[-1]; --hole) *hole = hole[-1];
    *hole = x;
  }
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
    if (static_cast<size_t>(last - first) <= kInsertionCutoff) {
      InsertionSort(first, last);
      return;
    }
    if (depth == 0) {
      std::sort(first, last);
      return;
    }
    --depth;
    // The pivot is an element of the range, so it lands at or after
    // `split`, and the block equal to it is never empty (NaN included):
    // every round shrinks the range.
    const double pivot =
        MedianOfThree(*first, first[(last - first) / 2], last[-1]);
    double* split = PartitionBranchless(
        first, last, [pivot](double x) { return x < pivot; });
    if (split == first) {
      // Nothing is below the pivot: [first, split) == pivot is placed.
      split = PartitionBranchless(
          first, last, [pivot](double x) { return !(pivot < x); });
      while (ranks != ranks_end &&
             *ranks < static_cast<size_t>(split - base)) {
        ++ranks;
      }
      first = split;
      continue;
    }
    // [first, split) < pivot <= [split, last), both non-empty.
    const size_t* left_end = ranks;
    while (left_end != ranks_end &&
           *left_end < static_cast<size_t>(split - base)) {
      ++left_end;
    }
    PlaceRanks(base, first, split, ranks, left_end, depth);
    first = split;
    ranks = left_end;
  }
}

// Writes to `out` the percentiles `located` (at most kPercentilesPerRound)
// reads from `values`, which holds more than kNetworkWidth values and is
// left permuted. Only the lower order statistic s[lo] of each is placed;
// the upper one, s[lo + 1], is read as the least value after it.
void SelectPercentiles(std::span<double> values,
                       std::span<const PercentileRank> located, double* out) {
  // Insertion into an ascending, duplicate-free list of lower ranks.
  std::array<size_t, kPercentilesPerRound> ranks{};
  size_t count = 0;
  for (const PercentileRank& r : located) {
    size_t i = count;
    while (i > 0 && ranks[i - 1] > r.lo) --i;
    if (i > 0 && ranks[i - 1] == r.lo) continue;
    for (size_t j = count; j > i; --j) ranks[j] = ranks[j - 1];
    ranks[i] = r.lo;
    ++count;
  }
  const size_t n = values.size();
  double* const data = values.data();
  // Past ~2 log2(n) levels a subrange is sorted: O(n log n) worst case.
  int depth = 0;
  for (size_t m = n; m > 1; m >>= 1) depth += 2;
  PlaceRanks(data, data, data + n, ranks.data(), ranks.data() + count,
             depth);
  // Everything after a placed rank is at least its value, and everything
  // after the next placed rank is at least that one's: so s[lo + 1] is the
  // least value from lo + 1 up to the next placed rank (or the end).
  std::array<double, kPercentilesPerRound> upper{};
  for (size_t i = 0; i < count; ++i) {
    const size_t end = i + 1 < count ? ranks[i + 1] + 1 : n;
    if (ranks[i] + 1 >= end) continue;  // The last order statistic.
    double least = data[ranks[i] + 1];
    for (size_t k = ranks[i] + 2; k < end; ++k) {
      least = data[k] < least ? data[k] : least;
    }
    upper[i] = least;
  }
  for (size_t j = 0; j < located.size(); ++j) {
    const PercentileRank& r = located[j];
    const double lo = data[r.lo];
    if (r.single) {
      out[j] = lo;
      continue;
    }
    size_t i = 0;
    while (ranks[i] != r.lo) ++i;
    out[j] = lo + r.frac * (upper[i] - lo);
  }
}

}  // namespace

PercentileRank LocatePercentile(size_t n, double p) {
  TRAJKIT_CHECK_GT(n, 0u);
  TRAJKIT_CHECK_GE(p, 0.0);
  TRAJKIT_CHECK_LE(p, 100.0);
  if (n == 1) return {};
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  const double lo_rank = std::floor(rank);
  const size_t lo = static_cast<size_t>(lo_rank);
  if (lo + 1 >= n) return {n - 1, true, 0.0};
  return {lo, false, rank - lo_rank};
}

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
  std::array<PercentileRank, kPercentilesPerRound> located;
  for (size_t begin = 0; begin < ps.size(); begin += kPercentilesPerRound) {
    const size_t count = std::min(kPercentilesPerRound, ps.size() - begin);
    for (size_t i = 0; i < count; ++i) {
      located[i] = LocatePercentile(values.size(), ps[begin + i]);
    }
    PercentilesAt(values, std::span(located.data(), count), scratch,
                  out.subspan(begin, count));
  }
}

void PercentilesAt(std::span<const double> values,
                   std::span<const PercentileRank> located,
                   std::vector<double>& scratch, std::span<double> out) {
  const size_t n = values.size();
  TRAJKIT_CHECK_GT(n, 0u);
  TRAJKIT_CHECK_EQ(out.size(), located.size());
  TRAJKIT_CHECK_LE(located.size(), kPercentilesPerRound);
  for (const PercentileRank& r : located) {
    TRAJKIT_CHECK_LT(r.single ? r.lo : r.lo + 1, n);
  }
  if (n <= kNetworkWidth) {
    alignas(16) std::array<double, kNetworkWidth> sorted{};
    SortSmall(values, sorted.data());
    for (size_t j = 0; j < located.size(); ++j) {
      const PercentileRank& r = located[j];
      const double lo = sorted[r.lo];
      out[j] = r.single ? lo : lo + r.frac * (sorted[r.lo + 1] - lo);
    }
    return;
  }
  scratch.assign(values.begin(), values.end());
  SelectPercentiles(scratch, located, out.data());
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
