// Key-frame selection for panorama generation (§III.C.I): the point-panorama
// overlap/cover model. Given the key-frames accumulated in one grid cell
// (typically an SRS rotation), select a subset whose viewing angles
// (i) pairwise overlap between angular neighbors and (ii) cover 360°.
#pragma once

#include <cstddef>
#include <vector>

#include "trajectory/trajectory.hpp"
#include "vision/panorama.hpp"

namespace crowdmap::room {

struct PanoramaSelectConfig {
  double fov = 0.9495;          // camera FoV (54.4°)
  double min_overlap = 0.25;    // required overlap fraction between neighbors
  // Frames within this radius co-locate. SRS spins are stationary; walking
  // frames inside the radius parallax-corrupt the panorama, so keep it tight.
  double cell_radius = 0.5;
};

/// Indices of a covering, overlapping subset of frames by heading; empty if
/// the input cannot cover 360° (then no panorama is generated for the cell).
[[nodiscard]] std::vector<std::size_t> select_covering_frames(
    const std::vector<double>& headings, const PanoramaSelectConfig& config = {});

/// Groups a trajectory's key-frames into spatial clusters ("cells") of
/// radius `cell_radius` and returns, for each cluster that passes the
/// overlap/cover check, the key-frame indices selected for stitching.
struct PanoramaCandidate {
  std::vector<std::size_t> keyframe_indices;  // into trajectory.keyframes
  geometry::Vec2 cell_center;                 // dead-reckoned cluster center
};
[[nodiscard]] std::vector<PanoramaCandidate> find_panorama_candidates(
    const trajectory::Trajectory& traj, const PanoramaSelectConfig& config = {});

/// Stitches the selected key-frames of one candidate.
[[nodiscard]] vision::Panorama stitch_candidate(
    const trajectory::Trajectory& traj, const PanoramaCandidate& candidate,
    const vision::StitchParams& params = {});

/// Effective vertical focal length, in panorama pixels, of a panorama
/// stitched with `params` from frames `frame_width` x `frame_height` pixels
/// large: the frame focal width / (2·tan(fov/2)) scaled by output_height /
/// frame_height (DESIGN.md). Room layout takes it as LayoutConfig::focal_px,
/// and the room artifact key hashes it, so the operation order is fixed.
[[nodiscard]] double panorama_focal_px(int frame_width, int frame_height,
                                       const vision::StitchParams& params);

}  // namespace crowdmap::room
