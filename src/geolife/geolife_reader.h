#ifndef TRAJKIT_GEOLIFE_GEOLIFE_READER_H_
#define TRAJKIT_GEOLIFE_GEOLIFE_READER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "traj/types.h"

namespace trajkit::geolife {

/// One labelled interval from a user's labels.txt.
struct LabelInterval {
  double start_time = 0.0;  // Seconds since epoch.
  double end_time = 0.0;
  traj::Mode mode = traj::Mode::kUnknown;
};

/// Parses one GeoLife .plt file (6 preamble lines, then
/// "lat,lon,0,altitude_ft,days_since_1899,date,time" rows) into time-ordered
/// unlabelled points. Rows with invalid coordinates are skipped.
Result<std::vector<traj::TrajectoryPoint>> ParsePltText(
    std::string_view text);

/// Reads and parses a .plt file from disk.
Result<std::vector<traj::TrajectoryPoint>> ReadPltFile(
    const std::string& path);

/// Parses a GeoLife labels.txt ("Start Time\tEnd Time\tTransportation Mode"
/// header plus tab-separated rows with "yyyy/mm/dd hh:mm:ss" timestamps).
Result<std::vector<LabelInterval>> ParseLabelsText(std::string_view text);

/// Assigns modes to points from labelled intervals: a point gets the mode
/// of the first interval containing its timestamp (inclusive), else
/// kUnknown. Intervals are expected sorted; unsorted input is sorted first.
void ApplyLabels(std::vector<LabelInterval> intervals,
                 std::vector<traj::TrajectoryPoint>& points);

/// Loads one user directory ("<root>/<user>/Trajectory/*.plt" plus optional
/// "<root>/<user>/labels.txt") into a labelled Trajectory. Unlabelled users
/// load with all points kUnknown.
Result<traj::Trajectory> LoadGeoLifeUser(const std::string& user_directory,
                                         int user_id);

/// Loads every user directory under a GeoLife "Data" root. Directory names
/// must parse as integers ("000", "001", ...); others are skipped.
Result<std::vector<traj::Trajectory>> LoadGeoLifeCorpus(
    const std::string& data_root);

/// Parses "yyyy/mm/dd hh:mm:ss" or "yyyy-mm-dd hh:mm:ss" (GeoLife uses
/// both) into seconds since epoch, treating the wall time as UTC — a fixed
/// offset that cancels in all derived features. A field outside its range
/// (year 0-9999, month 1-12, day 1-31, hour 0-23, minute 0-59, second
/// 0-60) is a ParseError.
Result<double> ParseGeoLifeDateTime(std::string_view date,
                                    std::string_view time);

/// Serializes points to GeoLife .plt text (the inverse of ParsePltText),
/// used by the round-trip tests and the export example.
std::string WritePltText(const std::vector<traj::TrajectoryPoint>& points);

/// Formats seconds-since-epoch as the "yyyy/mm/dd hh:mm:ss" wall time used
/// by labels.txt (inverse of ParseGeoLifeDateTime; sub-second truncated).
std::string FormatGeoLifeDateTime(double timestamp);

/// Writes one user in the GeoLife directory layout under `root`:
/// <root>/<user_id as %03d>/Trajectory/day*.plt (one file per UTC day)
/// plus labels.txt with one interval per maximal labelled mode run.
Status ExportGeoLifeUser(const traj::Trajectory& user,
                         const std::string& root);

/// Exports a whole corpus (ExportGeoLifeUser per trajectory).
Status ExportGeoLifeCorpus(const std::vector<traj::Trajectory>& corpus,
                           const std::string& root);

}  // namespace trajkit::geolife

#endif  // TRAJKIT_GEOLIFE_GEOLIFE_READER_H_
