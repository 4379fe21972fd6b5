// Walkie-Markie-style baseline (Shen et al., NSDI'13; the paper's §VII):
// trajectories are aggregated on *Wi-Fi-Marks* — the points where an AP's
// RSSI trend reverses, i.e. the walker's closest approach to the AP —
// instead of CrowdMap's visual key-frame anchors. Marks are coarse (meters
// of RSSI noise) but free of cameras; the comparison bench quantifies what
// the visual anchors buy.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "trajectory/aggregate.hpp"
#include "trajectory/trajectory.hpp"
#include "wifi/model.hpp"

namespace crowdmap::wifi {

/// One detected Wi-Fi-Mark on a trajectory.
struct WifiMark {
  int ap_id = 0;
  std::size_t keyframe_index = 0;  // where the RSSI peaked
  double peak_rssi = 0.0;
  double prominence_db = 0.0;      // peak above the trace's edges
};

struct MarkDetectionParams {
  double min_prominence_db = 6.0;  // trend reversal must be this pronounced
  double min_peak_dbm = -80.0;     // too-faint peaks are unreliable
};

/// Samples the AP at the trajectory's key-frame times (Wi-Fi scan rate is
/// ~1 Hz, like our key-frames) and returns the marks. RSSI is measured at
/// the walker's true position — the radio doesn't care about dead-reckoning
/// error — with per-scan noise from `rng`.
[[nodiscard]] std::vector<WifiMark> detect_marks(
    const trajectory::Trajectory& traj, const WifiModel& model,
    common::Rng& rng, const MarkDetectionParams& params = {});

struct WifiAggregationConfig {
  MarkDetectionParams marks;
  /// Two trajectories merge when >= this many shared APs' marks imply a
  /// consistent translation.
  int min_common_marks = 2;
  double consensus_dist = 4.0;  // meters between implied translations
  trajectory::AggregationConfig placement;  // spanning tree + relaxation
};

/// Aggregates trajectories on Wi-Fi-Marks alone (no vision): shared-AP mark
/// pairs imply candidate translations (compass keeps frames rotation-
/// aligned, as Walkie-Markie assumes); consistent candidates become edges in
/// the same pose graph CrowdMap uses.
[[nodiscard]] trajectory::AggregationResult aggregate_by_wifi_marks(
    std::span<const trajectory::Trajectory> trajectories, const WifiModel& model,
    const WifiAggregationConfig& config, common::Rng& rng);

}  // namespace crowdmap::wifi
