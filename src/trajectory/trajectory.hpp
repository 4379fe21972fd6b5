// User trajectory extraction from a sensor-rich video: dead-reckoned motion
// trace plus key-frames carrying visual descriptors (§III.A, §III.B.I).
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "geometry/vec2.hpp"
#include "imaging/hog.hpp"
#include "sensors/dead_reckoning.hpp"
#include "sim/user_sim.hpp"
#include "vision/matcher.hpp"
#include "vision/similarity.hpp"
#include "vision/surf.hpp"

namespace crowdmap::trajectory {

using geometry::Vec2;

/// One selected key-frame: the visual anchor point of the trajectory.
struct KeyFrame {
  std::size_t frame_index = 0;  // index into the source video's frames
  double t = 0.0;
  Vec2 position;                // dead-reckoned position at capture time
  double heading = 0.0;         // estimated heading at capture time
  imaging::Image gray;          // retained for panorama generation
  vision::CheapDescriptors cheap;
  std::vector<vision::SurfFeature> surf;
  Vec2 true_position;           // ground truth, evaluation only
  double true_heading = 0.0;    // ground truth, evaluation only
};

/// A user trajectory: motion trace in its own local frame + key-frames.
struct Trajectory {
  int video_id = 0;
  int user_id = 0;
  std::string building;
  std::vector<sensors::TrackPoint> points;  // local coordinates
  std::vector<KeyFrame> keyframes;
  int true_room_id = -1;   // evaluation only
  bool true_junk = false;  // evaluation only
  sim::Lighting lighting;  // recorded lighting condition

  [[nodiscard]] bool empty() const noexcept { return points.empty(); }
};

/// Extraction parameters (thresholds named after the paper's notation).
struct ExtractionConfig {
  /// Key-frame selection: drop a frame whose NCC similarity S_cc to the last
  /// kept frame exceeds this (extremely similar frames removed)...
  double keyframe_ncc_max = 0.93;
  /// ...unless its HOG distance to the last kept frame exceeds h_g
  /// (noticeable camera motion keeps the frame).
  double keyframe_hog_min = 0.35;  // h_g
  /// Minimum variance gate: frames with near-zero texture (motion blur) are
  /// unqualified data and dropped entirely.
  float min_frame_stddev = 0.035f;
  /// Hard cap on key-frames per trajectory: after selection, the survivors
  /// are decimated uniformly in time (bounds matching cost; SRS rotations
  /// stay angularly dense enough for panorama coverage).
  std::size_t max_keyframes = 28;
  /// SURF detector settings for key-frame descriptors.
  vision::SurfParams surf{.hessian_threshold = 4e-4, .octaves = 2,
                          .max_features = 150, .upright = false};
  /// HOG settings for key-frame selection.
  imaging::HogParams hog;
  sensors::DeadReckoningParams dead_reckoning;
};

/// Builds a trajectory from an uploaded video: dead-reckon the IMU stream,
/// select key-frames, compute descriptors. The video's pixel data is no
/// longer needed afterwards. The per-frame probe and the per-key-frame
/// descriptors fan out on `pool` (not owned; nullptr runs them serially);
/// the result is byte-identical with or without it.
[[nodiscard]] Trajectory extract_trajectory(const sim::SensorRichVideo& video,
                                            const ExtractionConfig& config = {},
                                            common::ThreadPool* pool = nullptr);

/// Position on the dead-reckoned track at time t (linear interpolation).
[[nodiscard]] sensors::TrackPoint track_at(
    const std::vector<sensors::TrackPoint>& track, double t);

/// Fraction of the video's frames that survived key-frame selection.
[[nodiscard]] double keyframe_ratio(const Trajectory& traj,
                                    std::size_t source_frames);

}  // namespace crowdmap::trajectory
