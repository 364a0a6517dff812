#include "geolife/geolife_reader.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>

#include "common/csv.h"
#include "common/strings.h"
#include "geo/geodesy.h"

namespace trajkit::geolife {

namespace {

// Days from 1970-01-01 of a proleptic-Gregorian civil date (Hinnant's
// days_from_civil).
int64_t DaysFromCivil(int year, int month, int day) {
  year -= month <= 2;
  const int64_t era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy = static_cast<unsigned>(
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

// Parses one date or time field, rejecting a value outside [lo, hi]
// before it is narrowed to int.
Result<int> ParseIntField(std::string_view text, int lo, int hi) {
  TRAJKIT_ASSIGN_OR_RETURN(long long v, ParseInt64(text));
  if (v < lo || v > hi) {
    return Status::ParseError(StrPrintf(
        "GeoLife datetime field %lld outside [%d, %d]", v, lo, hi));
  }
  return static_cast<int>(v);
}

}  // namespace

Result<double> ParseGeoLifeDateTime(std::string_view date,
                                    std::string_view time) {
  char date_sep = '/';
  if (date.find('-') != std::string_view::npos) date_sep = '-';
  const std::vector<std::string_view> d = SplitString(date, date_sep);
  const std::vector<std::string_view> t = SplitString(time, ':');
  if (d.size() != 3 || t.size() != 3) {
    return Status::ParseError("bad GeoLife datetime: '" + std::string(date) +
                              " " + std::string(time) + "'");
  }
  // The year is bounded by what a 4-digit date holds.
  TRAJKIT_ASSIGN_OR_RETURN(int year, ParseIntField(d[0], 0, 9999));
  TRAJKIT_ASSIGN_OR_RETURN(int month, ParseIntField(d[1], 1, 12));
  TRAJKIT_ASSIGN_OR_RETURN(int day, ParseIntField(d[2], 1, 31));
  TRAJKIT_ASSIGN_OR_RETURN(int hour, ParseIntField(t[0], 0, 23));
  TRAJKIT_ASSIGN_OR_RETURN(int minute, ParseIntField(t[1], 0, 59));
  TRAJKIT_ASSIGN_OR_RETURN(int second, ParseIntField(t[2], 0, 60));
  return static_cast<double>(DaysFromCivil(year, month, day)) * 86400.0 +
         hour * 3600.0 + minute * 60.0 + second;
}

Result<std::vector<traj::TrajectoryPoint>> ParsePltText(
    std::string_view text) {
  CsvOptions options;
  options.has_header = false;
  options.skip_lines = 6;
  options.skip_malformed_rows = true;
  TRAJKIT_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text, options));
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(table.rows.size());
  for (const std::vector<std::string>& row : table.rows) {
    if (row.size() < 7) continue;
    const Result<double> lat = ParseDouble(row[0]);
    const Result<double> lon = ParseDouble(row[1]);
    if (!lat.ok() || !lon.ok()) continue;
    traj::TrajectoryPoint point;
    point.pos = geo::LatLon{lat.value(), lon.value()};
    if (!geo::IsValid(point.pos)) continue;
    const Result<double> timestamp = ParseGeoLifeDateTime(row[5], row[6]);
    if (!timestamp.ok()) continue;
    point.timestamp = timestamp.value();
    points.push_back(point);
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const traj::TrajectoryPoint& a,
                      const traj::TrajectoryPoint& b) {
                     return a.timestamp < b.timestamp;
                   });
  return points;
}

Result<std::vector<traj::TrajectoryPoint>> ReadPltFile(
    const std::string& path) {
  TRAJKIT_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParsePltText(content);
}

Result<std::vector<LabelInterval>> ParseLabelsText(std::string_view text) {
  CsvOptions options;
  options.delimiter = '\t';
  options.has_header = true;
  options.skip_malformed_rows = true;
  TRAJKIT_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text, options));
  std::vector<LabelInterval> intervals;
  intervals.reserve(table.rows.size());
  for (const std::vector<std::string>& row : table.rows) {
    if (row.size() < 3) continue;
    // Fields: "yyyy/mm/dd hh:mm:ss" twice, then the mode.
    const std::vector<std::string_view> start = SplitString(row[0], ' ');
    const std::vector<std::string_view> end = SplitString(row[1], ' ');
    if (start.size() != 2 || end.size() != 2) continue;
    const Result<double> start_time =
        ParseGeoLifeDateTime(start[0], start[1]);
    const Result<double> end_time = ParseGeoLifeDateTime(end[0], end[1]);
    const Result<traj::Mode> mode = traj::ModeFromString(row[2]);
    if (!start_time.ok() || !end_time.ok() || !mode.ok()) continue;
    intervals.push_back(
        {start_time.value(), end_time.value(), mode.value()});
  }
  return intervals;
}

void ApplyLabels(std::vector<LabelInterval> intervals,
                 std::vector<traj::TrajectoryPoint>& points) {
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const LabelInterval& a, const LabelInterval& b) {
                     return a.start_time < b.start_time;
                   });
  size_t cursor = 0;
  for (traj::TrajectoryPoint& point : points) {
    // Points are time-sorted, so the matching interval only moves forward.
    while (cursor < intervals.size() &&
           intervals[cursor].end_time < point.timestamp) {
      ++cursor;
    }
    point.mode = traj::Mode::kUnknown;
    if (cursor < intervals.size() &&
        point.timestamp >= intervals[cursor].start_time &&
        point.timestamp <= intervals[cursor].end_time) {
      point.mode = intervals[cursor].mode;
    }
  }
}

Result<traj::Trajectory> LoadGeoLifeUser(const std::string& user_directory,
                                         int user_id) {
  namespace fs = std::filesystem;
  traj::Trajectory trajectory;
  trajectory.user_id = user_id;

  const fs::path traj_dir = fs::path(user_directory) / "Trajectory";
  std::error_code ec;
  if (!fs::is_directory(traj_dir, ec)) {
    return Status::NotFound("no Trajectory directory under: " +
                            user_directory);
  }
  std::vector<fs::path> plt_files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(traj_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".plt") {
      plt_files.push_back(entry.path());
    }
  }
  std::sort(plt_files.begin(), plt_files.end());
  for (const fs::path& file : plt_files) {
    TRAJKIT_ASSIGN_OR_RETURN(std::vector<traj::TrajectoryPoint> points,
                             ReadPltFile(file.string()));
    trajectory.points.insert(trajectory.points.end(), points.begin(),
                             points.end());
  }
  std::stable_sort(trajectory.points.begin(), trajectory.points.end(),
                   [](const traj::TrajectoryPoint& a,
                      const traj::TrajectoryPoint& b) {
                     return a.timestamp < b.timestamp;
                   });

  const fs::path labels_path = fs::path(user_directory) / "labels.txt";
  if (fs::is_regular_file(labels_path, ec)) {
    TRAJKIT_ASSIGN_OR_RETURN(std::string text,
                             ReadFileToString(labels_path.string()));
    TRAJKIT_ASSIGN_OR_RETURN(std::vector<LabelInterval> intervals,
                             ParseLabelsText(text));
    ApplyLabels(std::move(intervals), trajectory.points);
  }
  return trajectory;
}

Result<std::vector<traj::Trajectory>> LoadGeoLifeCorpus(
    const std::string& data_root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(data_root, ec)) {
    return Status::NotFound("not a directory: " + data_root);
  }
  std::vector<fs::path> user_dirs;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(data_root, ec)) {
    if (entry.is_directory()) user_dirs.push_back(entry.path());
  }
  std::sort(user_dirs.begin(), user_dirs.end());
  std::vector<traj::Trajectory> corpus;
  for (const fs::path& dir : user_dirs) {
    const Result<long long> uid = ParseInt64(dir.filename().string());
    if (!uid.ok()) continue;  // Not a numbered user directory.
    TRAJKIT_ASSIGN_OR_RETURN(
        traj::Trajectory trajectory,
        LoadGeoLifeUser(dir.string(), static_cast<int>(uid.value())));
    corpus.push_back(std::move(trajectory));
  }
  if (corpus.empty()) {
    return Status::NotFound("no user directories under: " + data_root);
  }
  return corpus;
}

std::string WritePltText(const std::vector<traj::TrajectoryPoint>& points) {
  std::string out =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n0\n";
  for (const traj::TrajectoryPoint& p : points) {
    const int64_t days = static_cast<int64_t>(
        std::floor(p.timestamp / 86400.0));
    double rem = p.timestamp - static_cast<double>(days) * 86400.0;
    const int hour = static_cast<int>(rem / 3600.0);
    rem -= hour * 3600.0;
    const int minute = static_cast<int>(rem / 60.0);
    const int second = static_cast<int>(rem - minute * 60.0);
    // Invert DaysFromCivil via civil_from_days.
    int64_t z = days + 719468;
    const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const int64_t y = static_cast<int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    const unsigned d = doy - (153 * mp + 2) / 5 + 1;
    const unsigned m = mp + (mp < 10 ? 3 : -9);
    const int64_t year = y + (m <= 2);
    // Excel-style day number used by GeoLife (days since 1899-12-30).
    const double excel_days =
        static_cast<double>(days) + 25569.0 +
        (p.timestamp - static_cast<double>(days) * 86400.0) / 86400.0;
    out += StrPrintf("%.6f,%.6f,0,0,%.10f,%04lld/%02u/%02u,%02d:%02d:%02d\n",
                     p.pos.lat_deg, p.pos.lon_deg, excel_days,
                     static_cast<long long>(year), m, d, hour, minute,
                     second);
  }
  return out;
}

namespace {

// civil_from_days (Hinnant): inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, unsigned* month, unsigned* day) {
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = doy - (153 * mp + 2) / 5 + 1;
  *month = mp + (mp < 10 ? 3 : -9);
  *year = static_cast<int>(y + (*month <= 2));
}

}  // namespace

std::string FormatGeoLifeDateTime(double timestamp) {
  const int64_t days = static_cast<int64_t>(std::floor(timestamp / 86400.0));
  double rem = timestamp - static_cast<double>(days) * 86400.0;
  const int hour = static_cast<int>(rem / 3600.0);
  rem -= hour * 3600.0;
  const int minute = static_cast<int>(rem / 60.0);
  const int second = static_cast<int>(rem - minute * 60.0);
  int year;
  unsigned month;
  unsigned day;
  CivilFromDays(days, &year, &month, &day);
  return StrPrintf("%04d/%02u/%02u %02d:%02d:%02d", year, month, day, hour,
                   minute, second);
}

Status ExportGeoLifeUser(const traj::Trajectory& user,
                         const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path user_dir = fs::path(root) / StrPrintf("%03d", user.user_id);

  // One .plt file per UTC day.
  std::map<int64_t, std::vector<traj::TrajectoryPoint>> by_day;
  for (const traj::TrajectoryPoint& p : user.points) {
    by_day[traj::DayIndex(p.timestamp)].push_back(p);
  }
  for (const auto& [day, points] : by_day) {
    const std::string path =
        (user_dir / "Trajectory" /
         StrPrintf("day%06lld.plt", static_cast<long long>(day)))
            .string();
    TRAJKIT_RETURN_IF_ERROR(WriteStringToFile(path, WritePltText(points)));
  }

  // labels.txt: one interval per maximal run of a labelled mode.
  std::string labels = "Start Time\tEnd Time\tTransportation Mode\n";
  traj::Mode run_mode = traj::Mode::kUnknown;
  double run_start = 0.0;
  double run_end = 0.0;
  auto flush = [&]() {
    if (run_mode != traj::Mode::kUnknown) {
      labels += FormatGeoLifeDateTime(run_start) + "\t" +
                FormatGeoLifeDateTime(run_end) + "\t" +
                std::string(traj::ModeToString(run_mode)) + "\n";
    }
  };
  for (const traj::TrajectoryPoint& p : user.points) {
    if (p.mode != run_mode) {
      flush();
      run_mode = p.mode;
      run_start = p.timestamp;
    }
    run_end = p.timestamp;
  }
  flush();
  return WriteStringToFile((user_dir / "labels.txt").string(), labels);
}

Status ExportGeoLifeCorpus(const std::vector<traj::Trajectory>& corpus,
                           const std::string& root) {
  for (const traj::Trajectory& user : corpus) {
    TRAJKIT_RETURN_IF_ERROR(ExportGeoLifeUser(user, root));
  }
  return Status::Ok();
}

}  // namespace trajkit::geolife
