#include "store/trajectory_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "store/hilbert.h"

namespace trajkit::store {
namespace {

/// Discretizes `v` in [lo, hi] onto the Hilbert grid [0, 2^order).
uint32_t GridCoord(double v, double lo, double hi, int order) {
  const uint32_t cells = (1u << order) - 1;
  if (!(hi > lo)) return 0;  // Degenerate extent: everything in cell 0.
  double t = (v - lo) / (hi - lo);
  if (t < 0.0) t = 0.0;
  if (t > 1.0) t = 1.0;
  return static_cast<uint32_t>(t * cells);
}

bool BoxesOverlap(const geo::BoundingBox& a, const geo::BoundingBox& b) {
  return a.IsInitialized() && b.IsInitialized() &&
         a.min_lat <= b.max_lat && b.min_lat <= a.max_lat &&
         a.min_lon <= b.max_lon && b.min_lon <= a.max_lon;
}

int64_t CellIndex(double v, double cell_deg) {
  return static_cast<int64_t>(std::floor(v / cell_deg));
}

}  // namespace

Result<ModeMask> ParseModeMask(std::string_view csv) {
  if (csv.empty()) return kAllModesMask;
  ModeMask mask = 0;
  for (std::string_view token : SplitString(csv, ',')) {
    token = StripWhitespace(token);
    if (token.empty()) continue;
    TRAJKIT_ASSIGN_OR_RETURN(traj::Mode mode, traj::ModeFromString(token));
    mask |= MaskOf(mode);
  }
  if (mask == 0) {
    return Status::InvalidArgument("mode list selects no modes: '" +
                                   std::string(csv) + "'");
  }
  return mask;
}

StoredSegment FromClosedSegment(const serve::ClosedSegment& segment,
                                traj::Mode predicted_mode) {
  StoredSegment stored;
  stored.session_id = segment.session_id;
  stored.user_id = segment.user_id;
  stored.day = segment.day;
  stored.predicted_mode = predicted_mode;
  stored.true_mode = segment.mode;
  stored.start_time = segment.start_time;
  stored.end_time = segment.end_time;
  stored.num_points = static_cast<uint32_t>(segment.num_points);
  stored.bbox = segment.bbox;
  stored.features = segment.features;
  return stored;
}

TrajectoryStore::TrajectoryStore(TrajectoryStoreOptions options)
    : options_(options),
      metric_segments_(
          obs::MetricsRegistry::Global().GetCounter("store.segments")),
      metric_bulk_loads_(
          obs::MetricsRegistry::Global().GetCounter("store.bulk_loads")),
      metric_queries_(
          obs::MetricsRegistry::Global().GetCounter("store.queries")),
      metric_nodes_visited_(obs::MetricsRegistry::Global().GetCounter(
          "store.query.nodes_visited")),
      metric_postings_skipped_(obs::MetricsRegistry::Global().GetCounter(
          "store.query.postings_skipped")),
      metric_size_(obs::MetricsRegistry::Global().GetGauge("store.size")),
      metric_index_nodes_(
          obs::MetricsRegistry::Global().GetGauge("store.index.nodes")),
      metric_query_latency_(obs::MetricsRegistry::Global().GetHistogram(
          "store.query.latency_seconds")),
      metric_bulk_load_seconds_(obs::MetricsRegistry::Global().GetHistogram(
          "store.bulk_load_seconds", obs::HistogramOptions::DurationSeconds())) {
  TRAJKIT_CHECK(options_.leaf_fanout >= 2) << "leaf_fanout must be >= 2";
  TRAJKIT_CHECK(options_.fanout >= 2) << "fanout must be >= 2";
  postings_.resize(traj::kNumModes);
}

void TrajectoryStore::Ingest(StoredSegment segment) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = static_cast<uint32_t>(segments_.size());
  const geo::BoundingBox& box = segment.bbox;
  center_lat_.push_back(
      box.IsInitialized() ? (box.min_lat + box.max_lat) * 0.5 : 0.0);
  center_lon_.push_back(
      box.IsInitialized() ? (box.min_lon + box.max_lon) * 0.5 : 0.0);
  // Columnar match keys; an uninitialized MBR becomes an inverted
  // sentinel interval that fails every overlap test (cf. BoxesOverlap).
  const bool boxed = box.IsInitialized();
  seg_min_lat_.push_back(boxed ? box.min_lat : 2.0e9);
  seg_max_lat_.push_back(boxed ? box.max_lat : -2.0e9);
  seg_min_lon_.push_back(boxed ? box.min_lon : 2.0e9);
  seg_max_lon_.push_back(boxed ? box.max_lon : -2.0e9);
  seg_t_min_.push_back(segment.start_time);
  seg_t_max_.push_back(segment.end_time);
  seg_mask_.push_back(MaskOf(segment.predicted_mode));
  postings_[static_cast<size_t>(segment.predicted_mode)].push_back(id);
  by_user_[segment.user_id].push_back(id);
  segments_.push_back(std::move(segment));
  dirty_ = true;
  ++stats_.segments;
  metric_segments_.Increment();
  metric_size_.Set(static_cast<double>(segments_.size()));
}

std::function<void(const serve::ClosedSegment&)>
TrajectoryStore::MakeSessionSink() {
  return [this](const serve::ClosedSegment& segment) {
    Ingest(FromClosedSegment(segment, segment.mode));
  };
}

size_t TrajectoryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

StoredSegment TrajectoryStore::Segment(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  TRAJKIT_CHECK(id < segments_.size()) << "segment id out of range";
  return segments_[id];
}

void TrajectoryStore::BuildIndex() {
  std::lock_guard<std::mutex> lock(mu_);
  BuildIndexLocked();
}

void TrajectoryStore::BuildIndexLocked() const {
  if (!dirty_) return;
  Stopwatch timer;
  const size_t n = segments_.size();
  order_.resize(n);
  for (uint32_t i = 0; i < n; ++i) order_[i] = i;

  if (n > 1) {
    // Extent of the MBR centers — the frame both packings sort within.
    double lat_lo = center_lat_[0], lat_hi = center_lat_[0];
    double lon_lo = center_lon_[0], lon_hi = center_lon_[0];
    for (size_t i = 1; i < n; ++i) {
      lat_lo = std::min(lat_lo, center_lat_[i]);
      lat_hi = std::max(lat_hi, center_lat_[i]);
      lon_lo = std::min(lon_lo, center_lon_[i]);
      lon_hi = std::max(lon_hi, center_lon_[i]);
    }
    if (options_.strategy == BulkLoadStrategy::kHilbert) {
      std::vector<uint64_t> key(n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t gx =
            GridCoord(center_lon_[i], lon_lo, lon_hi, kHilbertOrder);
        const uint32_t gy =
            GridCoord(center_lat_[i], lat_lo, lat_hi, kHilbertOrder);
        key[i] = HilbertDistance(gx, gy);
      }
      std::sort(order_.begin(), order_.end(),
                [&key](uint32_t a, uint32_t b) {
                  return key[a] != key[b] ? key[a] < key[b] : a < b;
                });
    } else {
      // STR: longitude-sorted vertical slabs, each latitude-sorted.
      const auto by_lon = [this](uint32_t a, uint32_t b) {
        return center_lon_[a] != center_lon_[b]
                   ? center_lon_[a] < center_lon_[b]
                   : a < b;
      };
      const auto by_lat = [this](uint32_t a, uint32_t b) {
        return center_lat_[a] != center_lat_[b]
                   ? center_lat_[a] < center_lat_[b]
                   : a < b;
      };
      std::sort(order_.begin(), order_.end(), by_lon);
      const size_t num_leaves =
          (n + options_.leaf_fanout - 1) / options_.leaf_fanout;
      const size_t num_slabs = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(num_leaves))));
      const size_t slab =
          (n + num_slabs - 1) / std::max<size_t>(1, num_slabs);
      for (size_t begin = 0; begin < n; begin += slab) {
        const size_t end = std::min(n, begin + slab);
        std::sort(order_.begin() + static_cast<ptrdiff_t>(begin),
                  order_.begin() + static_cast<ptrdiff_t>(end), by_lat);
      }
    }
  }

  // Pack leaves over the sorted order, then parent levels bottom-up until
  // one root remains. Children of a node are contiguous in nodes_.
  nodes_.clear();
  height_ = 0;
  if (n > 0) {
    for (size_t begin = 0; begin < n; begin += options_.leaf_fanout) {
      const size_t end = std::min(n, begin + options_.leaf_fanout);
      Node node;
      node.leaf = true;
      node.begin = static_cast<uint32_t>(begin);
      node.end = static_cast<uint32_t>(end);
      node.entry_begin = node.begin;
      node.entry_end = node.end;
      bool first = true;
      for (size_t i = begin; i < end; ++i) {
        const StoredSegment& segment = segments_[order_[i]];
        const geo::BoundingBox& box = segment.bbox;
        node.pure = node.pure && box.IsInitialized();
        const double lo_lat = box.IsInitialized() ? box.min_lat : 0.0;
        const double hi_lat = box.IsInitialized() ? box.max_lat : 0.0;
        const double lo_lon = box.IsInitialized() ? box.min_lon : 0.0;
        const double hi_lon = box.IsInitialized() ? box.max_lon : 0.0;
        if (first) {
          node.min_lat = lo_lat;
          node.max_lat = hi_lat;
          node.min_lon = lo_lon;
          node.max_lon = hi_lon;
          node.t_min = segment.start_time;
          node.t_max = segment.end_time;
          first = false;
        } else {
          node.min_lat = std::min(node.min_lat, lo_lat);
          node.max_lat = std::max(node.max_lat, hi_lat);
          node.min_lon = std::min(node.min_lon, lo_lon);
          node.max_lon = std::max(node.max_lon, hi_lon);
          node.t_min = std::min(node.t_min, segment.start_time);
          node.t_max = std::max(node.t_max, segment.end_time);
        }
        node.mask |= MaskOf(segment.predicted_mode);
      }
      nodes_.push_back(node);
    }
    height_ = 1;
    size_t level_begin = 0;
    size_t level_end = nodes_.size();
    while (level_end - level_begin > 1) {
      for (size_t begin = level_begin; begin < level_end;
           begin += options_.fanout) {
        const size_t end = std::min(level_end, begin + options_.fanout);
        Node node;
        node.leaf = false;
        node.begin = static_cast<uint32_t>(begin);
        node.end = static_cast<uint32_t>(end);
        node.entry_begin = nodes_[begin].entry_begin;
        node.entry_end = nodes_[end - 1].entry_end;
        node.min_lat = nodes_[begin].min_lat;
        node.max_lat = nodes_[begin].max_lat;
        node.min_lon = nodes_[begin].min_lon;
        node.max_lon = nodes_[begin].max_lon;
        node.t_min = nodes_[begin].t_min;
        node.t_max = nodes_[begin].t_max;
        for (size_t i = begin; i < end; ++i) {
          node.min_lat = std::min(node.min_lat, nodes_[i].min_lat);
          node.max_lat = std::max(node.max_lat, nodes_[i].max_lat);
          node.min_lon = std::min(node.min_lon, nodes_[i].min_lon);
          node.max_lon = std::max(node.max_lon, nodes_[i].max_lon);
          node.t_min = std::min(node.t_min, nodes_[i].t_min);
          node.t_max = std::max(node.t_max, nodes_[i].t_max);
          node.mask |= nodes_[i].mask;
          node.pure = node.pure && nodes_[i].pure;
        }
        nodes_.push_back(node);
      }
      level_begin = level_end;
      level_end = nodes_.size();
      ++height_;
    }
  }

  dirty_ = false;
  ++stats_.bulk_loads;
  stats_.index_nodes = nodes_.size();
  stats_.index_height = height_;
  metric_bulk_loads_.Increment();
  metric_index_nodes_.Set(static_cast<double>(nodes_.size()));
  metric_bulk_load_seconds_.Observe(timer.ElapsedSeconds());
}

bool TrajectoryStore::MatchesLocked(uint32_t id, const geo::BoundingBox& box,
                                    const TimeRange& time,
                                    ModeMask mask) const {
  const StoredSegment& segment = segments_[id];
  return (mask & MaskOf(segment.predicted_mode)) != 0 &&
         time.Overlaps(segment.start_time, segment.end_time) &&
         BoxesOverlap(segment.bbox, box);
}

std::vector<uint32_t> TrajectoryStore::QueryBBoxLocked(
    const geo::BoundingBox& box, const TimeRange& time,
    ModeMask mask) const {
  BuildIndexLocked();
  std::vector<uint32_t> result;
  ++stats_.queries;
  metric_queries_.Increment();

  // Postings fast path: when the mode mask is selective, the inverted
  // lists already exclude most of the store — scan them instead of the
  // tree and count what was never examined.
  if (options_.postings_selectivity > 0 && mask != kAllModesMask) {
    size_t candidates = 0;
    for (size_t m = 0; m < postings_.size(); ++m) {
      if (mask & (1u << m)) candidates += postings_[m].size();
    }
    if (candidates * options_.postings_selectivity < segments_.size()) {
      for (size_t m = 0; m < postings_.size(); ++m) {
        if ((mask & (1u << m)) == 0) continue;
        for (const uint32_t id : postings_[m]) {
          if (MatchesColumnarLocked(id, box, time, mask)) result.push_back(id);
        }
      }
      const size_t skipped = segments_.size() - candidates;
      stats_.postings_skipped += skipped;
      metric_postings_skipped_.Increment(skipped);
      std::sort(result.begin(), result.end());
      return result;
    }
  }

  if (nodes_.empty()) return result;
  size_t visited = 0;
  std::vector<uint32_t> stack;
  stack.push_back(static_cast<uint32_t>(nodes_.size() - 1));  // Root.
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    ++visited;
    if ((node.mask & mask) == 0) continue;
    if (node.max_lat < box.min_lat || node.min_lat > box.max_lat ||
        node.max_lon < box.min_lon || node.min_lon > box.max_lon) {
      continue;
    }
    if (node.t_max < time.begin || node.t_min > time.end) continue;
    // Full containment: the query covers this subtree's MBR, time span,
    // and mode set, so every entry below matches — emit the subtree's
    // contiguous order_ run without examining a single segment.
    if (node.pure && box.min_lat <= node.min_lat &&
        node.max_lat <= box.max_lat && box.min_lon <= node.min_lon &&
        node.max_lon <= box.max_lon && time.begin <= node.t_min &&
        node.t_max <= time.end && (node.mask & ~mask) == 0) {
      result.insert(result.end(), order_.begin() + node.entry_begin,
                    order_.begin() + node.entry_end);
      continue;
    }
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = order_[i];
        if (MatchesColumnarLocked(id, box, time, mask)) result.push_back(id);
      }
    } else {
      for (uint32_t child = node.begin; child < node.end; ++child) {
        stack.push_back(child);
      }
    }
  }
  stats_.nodes_visited += visited;
  metric_nodes_visited_.Increment(visited);
  // Restore ascending-id order. Ids are unique, so for large results a
  // bitmap pass is O(size()/64 + |result|) — cheaper than comparison
  // sorting the Hilbert-ordered emission of a wide query.
  if (result.size() > 1024) {
    std::vector<uint64_t> bits((segments_.size() + 63) / 64, 0);
    for (const uint32_t id : result) bits[id >> 6] |= 1ull << (id & 63);
    size_t out = 0;
    for (size_t word = 0; word < bits.size(); ++word) {
      uint64_t w = bits[word];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        w &= w - 1;
        result[out++] = static_cast<uint32_t>((word << 6) | bit);
      }
    }
  } else {
    std::sort(result.begin(), result.end());
  }
  return result;
}

std::vector<uint32_t> TrajectoryStore::QueryBBox(const geo::BoundingBox& box,
                                                 const TimeRange& time,
                                                 ModeMask mask) const {
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> result = QueryBBoxLocked(box, time, mask);
  metric_query_latency_.Observe(timer.ElapsedSeconds());
  return result;
}

std::vector<uint32_t> TrajectoryStore::QueryUser(int32_t user_id,
                                                 const TimeRange& time) const {
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  metric_queries_.Increment();
  std::vector<uint32_t> result;
  const auto it = by_user_.find(user_id);
  if (it != by_user_.end()) {
    for (const uint32_t id : it->second) {
      const StoredSegment& segment = segments_[id];
      if (time.Overlaps(segment.start_time, segment.end_time)) {
        result.push_back(id);
      }
    }
  }
  metric_query_latency_.Observe(timer.ElapsedSeconds());
  return result;
}

std::vector<HotspotCell> TrajectoryStore::TopKHotspotsScan(
    double cell_deg, size_t k, ModeMask mask) const {
  TRAJKIT_CHECK(cell_deg > 0.0) << "cell_deg must be positive";
  // Deterministic aggregation: cells keyed (lat, lon) in a sorted map, so
  // the final ordering is independent of insertion order.
  std::map<std::pair<int64_t, int64_t>, uint64_t> counts;
  for (uint32_t id = 0; id < segments_.size(); ++id) {
    if ((mask & MaskOf(segments_[id].predicted_mode)) == 0) continue;
    if (!segments_[id].bbox.IsInitialized()) continue;
    const int64_t cell_lat = CellIndex(center_lat_[id], cell_deg);
    const int64_t cell_lon = CellIndex(center_lon_[id], cell_deg);
    ++counts[{cell_lat, cell_lon}];
  }
  std::vector<HotspotCell> cells;
  cells.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    HotspotCell cell;
    cell.cell_lat = key.first;
    cell.cell_lon = key.second;
    cell.count = count;
    cell.bounds.Extend(geo::LatLon{static_cast<double>(key.first) * cell_deg,
                                   static_cast<double>(key.second) * cell_deg});
    cell.bounds.Extend(
        geo::LatLon{static_cast<double>(key.first + 1) * cell_deg,
                    static_cast<double>(key.second + 1) * cell_deg});
    cells.push_back(cell);
  }
  std::sort(cells.begin(), cells.end(),
            [](const HotspotCell& a, const HotspotCell& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.cell_lat != b.cell_lat) return a.cell_lat < b.cell_lat;
              return a.cell_lon < b.cell_lon;
            });
  if (cells.size() > k) cells.resize(k);
  return cells;
}

std::vector<HotspotCell> TrajectoryStore::TopKHotspots(double cell_deg,
                                                       size_t k,
                                                       ModeMask mask) const {
  Stopwatch timer;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  metric_queries_.Increment();
  std::vector<HotspotCell> cells = TopKHotspotsScan(cell_deg, k, mask);
  metric_query_latency_.Observe(timer.ElapsedSeconds());
  return cells;
}

std::vector<uint32_t> TrajectoryStore::QueryBBoxBruteForce(
    const geo::BoundingBox& box, const TimeRange& time,
    ModeMask mask) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> result;
  for (uint32_t id = 0; id < segments_.size(); ++id) {
    if (MatchesLocked(id, box, time, mask)) result.push_back(id);
  }
  return result;
}

std::vector<uint32_t> TrajectoryStore::QueryUserBruteForce(
    int32_t user_id, const TimeRange& time) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> result;
  for (uint32_t id = 0; id < segments_.size(); ++id) {
    const StoredSegment& segment = segments_[id];
    if (segment.user_id == user_id &&
        time.Overlaps(segment.start_time, segment.end_time)) {
      result.push_back(id);
    }
  }
  return result;
}

std::vector<HotspotCell> TrajectoryStore::TopKHotspotsBruteForce(
    double cell_deg, size_t k, ModeMask mask) const {
  TRAJKIT_CHECK(cell_deg > 0.0) << "cell_deg must be positive";
  std::lock_guard<std::mutex> lock(mu_);
  // Independent of the indexed path: recompute centers from the raw MBRs.
  std::map<std::pair<int64_t, int64_t>, uint64_t> counts;
  for (const StoredSegment& segment : segments_) {
    if ((mask & MaskOf(segment.predicted_mode)) == 0) continue;
    if (!segment.bbox.IsInitialized()) continue;
    const double lat = (segment.bbox.min_lat + segment.bbox.max_lat) * 0.5;
    const double lon = (segment.bbox.min_lon + segment.bbox.max_lon) * 0.5;
    ++counts[{CellIndex(lat, cell_deg), CellIndex(lon, cell_deg)}];
  }
  std::vector<HotspotCell> cells;
  cells.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    HotspotCell cell;
    cell.cell_lat = key.first;
    cell.cell_lon = key.second;
    cell.count = count;
    cell.bounds.Extend(geo::LatLon{static_cast<double>(key.first) * cell_deg,
                                   static_cast<double>(key.second) * cell_deg});
    cell.bounds.Extend(
        geo::LatLon{static_cast<double>(key.first + 1) * cell_deg,
                    static_cast<double>(key.second + 1) * cell_deg});
    cells.push_back(cell);
  }
  std::sort(cells.begin(), cells.end(),
            [](const HotspotCell& a, const HotspotCell& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.cell_lat != b.cell_lat) return a.cell_lat < b.cell_lat;
              return a.cell_lon < b.cell_lon;
            });
  if (cells.size() > k) cells.resize(k);
  return cells;
}

StoreStats TrajectoryStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace trajkit::store
