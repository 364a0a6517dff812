#include <cmath>
#include <cstring>
#include <string>

#include "common/csv.h"
#include "common/strings.h"
#include "store/trajectory_store.h"

// Segment log v1 (DESIGN.md §12): an 8-byte magic followed by one
// variable-length record per segment, little-endian, no padding. Readers
// consume records until end of file and tolerate a repeated magic at any
// record boundary, so `cat a.log b.log > c.log` is a valid merge.
//
//   magic   "TKSEGLG1"
//   record  session_id  i64
//           user_id     i32
//           day         i64
//           predicted_mode u8   (traj::Mode)
//           true_mode   u8
//           start_time  f64
//           end_time    f64
//           num_points  u32     (points seen, not points stored)
//           bbox        f64 x4  (min_lat max_lat min_lon max_lon)
//           num_features    u32, then f64 x num_features
//           stored_points   u32, then (lat f64, lon f64, ts f64, mode u8)
//
// Multi-byte values are raw host little-endian (the same assumption the
// FlatForest dump makes; asserted at compile time below).

namespace trajkit::store {
namespace {

static_assert(sizeof(double) == 8, "segment log assumes 8-byte doubles");

constexpr char kMagic[8] = {'T', 'K', 'S', 'E', 'G', 'L', 'G', '1'};

template <typename T>
void Append(std::string& out, T value) {
  char raw[sizeof(T)];
  std::memcpy(raw, &value, sizeof(T));
  out.append(raw, sizeof(T));
}

/// Sequential little-endian reader over an in-memory log image.
class LogReader {
 public:
  LogReader(const std::string& data, const std::string& path)
      : data_(data), path_(path) {}

  size_t remaining() const { return data_.size() - pos_; }

  template <typename T>
  Result<T> Read(const char* what) {
    if (remaining() < sizeof(T)) {
      return Status::ParseError(StrPrintf(
          "%s: truncated segment log: expected %zu bytes for %s at offset "
          "%zu, have %zu",
          path_.c_str(), sizeof(T), what, pos_, remaining()));
    }
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// A double the index and the hotspot grid compute with: NaN or ±inf
  /// would slip past the node-bound min/max and overflow the grid casts.
  Result<double> ReadFinite(const char* what) {
    TRAJKIT_ASSIGN_OR_RETURN(double value, Read<double>(what));
    if (!std::isfinite(value)) {
      return Status::ParseError(StrPrintf("%s: non-finite %s in segment log",
                                          path_.c_str(), what));
    }
    return value;
  }

  /// Consumes the 8-byte magic. `required` distinguishes the mandatory
  /// leading header from optional mid-stream ones at concatenation seams.
  Result<bool> ReadMagic(bool required) {
    if (remaining() < sizeof(kMagic)) {
      if (required) {
        return Status::ParseError(path_ + ": not a segment log (too short)");
      }
      return false;
    }
    if (std::memcmp(data_.data() + pos_, kMagic, sizeof(kMagic)) != 0) {
      if (required) {
        return Status::ParseError(path_ +
                                  ": not a segment log (bad magic)");
      }
      return false;
    }
    pos_ += sizeof(kMagic);
    return true;
  }

 private:
  const std::string& data_;
  const std::string& path_;
  size_t pos_ = 0;
};

Result<StoredSegment> ReadSegment(LogReader& reader) {
  StoredSegment segment;
  TRAJKIT_ASSIGN_OR_RETURN(segment.session_id,
                           reader.Read<int64_t>("session_id"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.user_id, reader.Read<int32_t>("user_id"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.day, reader.Read<int64_t>("day"));
  TRAJKIT_ASSIGN_OR_RETURN(uint8_t predicted,
                           reader.Read<uint8_t>("predicted_mode"));
  TRAJKIT_ASSIGN_OR_RETURN(uint8_t annotated,
                           reader.Read<uint8_t>("true_mode"));
  if (predicted >= traj::kNumModes || annotated >= traj::kNumModes) {
    return Status::ParseError(
        StrPrintf("segment log mode out of range: %d/%d", predicted,
                  annotated));
  }
  segment.predicted_mode = static_cast<traj::Mode>(predicted);
  segment.true_mode = static_cast<traj::Mode>(annotated);
  TRAJKIT_ASSIGN_OR_RETURN(segment.start_time,
                           reader.ReadFinite("start_time"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.end_time, reader.ReadFinite("end_time"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.num_points,
                           reader.Read<uint32_t>("num_points"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.bbox.min_lat,
                           reader.ReadFinite("bbox.min_lat"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.bbox.max_lat,
                           reader.ReadFinite("bbox.max_lat"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.bbox.min_lon,
                           reader.ReadFinite("bbox.min_lon"));
  TRAJKIT_ASSIGN_OR_RETURN(segment.bbox.max_lon,
                           reader.ReadFinite("bbox.max_lon"));
  TRAJKIT_ASSIGN_OR_RETURN(uint32_t num_features,
                           reader.Read<uint32_t>("num_features"));
  if (static_cast<size_t>(num_features) * sizeof(double) >
      reader.remaining()) {
    return Status::ParseError(
        StrPrintf("truncated segment log: %u features declared", num_features));
  }
  segment.features.reserve(num_features);
  for (uint32_t i = 0; i < num_features; ++i) {
    TRAJKIT_ASSIGN_OR_RETURN(double v, reader.Read<double>("feature"));
    segment.features.push_back(v);
  }
  TRAJKIT_ASSIGN_OR_RETURN(uint32_t stored_points,
                           reader.Read<uint32_t>("stored_points"));
  if (static_cast<size_t>(stored_points) * (3 * sizeof(double) + 1) >
      reader.remaining()) {
    return Status::ParseError(StrPrintf(
        "truncated segment log: %u points declared", stored_points));
  }
  segment.points.reserve(stored_points);
  for (uint32_t i = 0; i < stored_points; ++i) {
    traj::TrajectoryPoint point;
    TRAJKIT_ASSIGN_OR_RETURN(point.pos.lat_deg, reader.Read<double>("lat"));
    TRAJKIT_ASSIGN_OR_RETURN(point.pos.lon_deg, reader.Read<double>("lon"));
    TRAJKIT_ASSIGN_OR_RETURN(point.timestamp,
                             reader.Read<double>("timestamp"));
    TRAJKIT_ASSIGN_OR_RETURN(uint8_t mode, reader.Read<uint8_t>("point mode"));
    if (mode >= traj::kNumModes) {
      return Status::ParseError("segment log point mode out of range");
    }
    point.mode = static_cast<traj::Mode>(mode);
    segment.points.push_back(point);
  }
  return segment;
}

}  // namespace

Status TrajectoryStore::SaveTo(const std::string& path) const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  std::lock_guard<std::mutex> lock(mu_);
  for (const StoredSegment& segment : segments_) {
    Append(out, segment.session_id);
    Append(out, segment.user_id);
    Append(out, segment.day);
    Append(out, static_cast<uint8_t>(segment.predicted_mode));
    Append(out, static_cast<uint8_t>(segment.true_mode));
    Append(out, segment.start_time);
    Append(out, segment.end_time);
    Append(out, segment.num_points);
    Append(out, segment.bbox.min_lat);
    Append(out, segment.bbox.max_lat);
    Append(out, segment.bbox.min_lon);
    Append(out, segment.bbox.max_lon);
    Append(out, static_cast<uint32_t>(segment.features.size()));
    for (const double v : segment.features) Append(out, v);
    Append(out, static_cast<uint32_t>(segment.points.size()));
    for (const traj::TrajectoryPoint& point : segment.points) {
      Append(out, point.pos.lat_deg);
      Append(out, point.pos.lon_deg);
      Append(out, point.timestamp);
      Append(out, static_cast<uint8_t>(point.mode));
    }
  }
  return WriteStringToFile(path, out);
}

Status TrajectoryStore::Load(const std::string& path) {
  TRAJKIT_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  LogReader reader(data, path);
  TRAJKIT_ASSIGN_OR_RETURN(bool ok, reader.ReadMagic(/*required=*/true));
  (void)ok;
  // Parse the whole image before ingesting anything: a failed load leaves
  // the store exactly as it was.
  std::vector<StoredSegment> parsed;
  while (reader.remaining() > 0) {
    // A magic at a record boundary is a concatenation seam — skip it.
    TRAJKIT_ASSIGN_OR_RETURN(bool seam, reader.ReadMagic(/*required=*/false));
    if (seam) continue;
    if (reader.remaining() == 0) break;
    TRAJKIT_ASSIGN_OR_RETURN(StoredSegment segment, ReadSegment(reader));
    parsed.push_back(std::move(segment));
  }
  for (StoredSegment& segment : parsed) Ingest(std::move(segment));
  return Status::Ok();
}

}  // namespace trajkit::store
