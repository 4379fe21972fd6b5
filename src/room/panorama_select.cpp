#include "room/panorama_select.hpp"

#include <algorithm>
#include <cmath>

#include "common/mathutil.hpp"

namespace crowdmap::room {

std::vector<std::size_t> select_covering_frames(
    const std::vector<double>& headings, const PanoramaSelectConfig& config) {
  if (headings.empty()) return {};
  // Sort indices by wrapped heading.
  std::vector<std::size_t> order(headings.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto wrapped = [&headings](std::size_t i) {
    return common::wrap_angle_2pi(headings[i]);
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return wrapped(a) < wrapped(b); });

  // Coverage check first: if any gap between adjacent headings reaches the
  // FoV, Cover(f_i) cannot reach 360°.
  const double max_allowed_gap = config.fov * (1.0 - config.min_overlap);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const double cur = wrapped(order[k]);
    const double next = k + 1 < order.size()
                            ? wrapped(order[k + 1])
                            : wrapped(order[0]) + common::kTwoPi;
    if (next - cur >= config.fov) return {};
  }

  // Greedy thinning: walk the circle keeping a frame once the angular
  // advance since the last kept frame reaches half the allowed gap. Kept
  // neighbors then overlap comfortably while redundant frames drop out.
  std::vector<std::size_t> kept;
  double last_heading = wrapped(order[0]);
  kept.push_back(order[0]);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const double h = wrapped(order[k]);
    if (h - last_heading >= max_allowed_gap * 0.5) {
      kept.push_back(order[k]);
      last_heading = h;
    }
  }
  return kept;
}

std::vector<PanoramaCandidate> find_panorama_candidates(
    const trajectory::Trajectory& traj, const PanoramaSelectConfig& config) {
  std::vector<PanoramaCandidate> candidates;
  const auto& kfs = traj.keyframes;
  if (kfs.empty()) return candidates;

  // Temporal segmentation into stationary runs: an SRS rotation is a maximal
  // run of key-frames whose consecutive dead-reckoned displacement stays
  // small (slow drift across the whole run is fine; a walking step is not).
  auto emit_segment = [&](std::size_t begin, std::size_t end) {
    const std::size_t n = end - begin;
    if (n < 4) return;
    geometry::Vec2 sum;
    std::vector<double> headings;
    std::vector<std::size_t> members;
    headings.reserve(n);
    members.reserve(n);
    for (std::size_t i = begin; i < end; ++i) {
      sum += kfs[i].position;
      headings.push_back(kfs[i].heading);
      members.push_back(i);
    }
    const auto kept_local = select_covering_frames(headings, config);
    if (kept_local.empty()) return;
    PanoramaCandidate cand;
    cand.cell_center = sum / static_cast<double>(n);
    cand.keyframe_indices.reserve(kept_local.size());
    for (const std::size_t k : kept_local) {
      cand.keyframe_indices.push_back(members[k]);
    }
    candidates.push_back(std::move(cand));
  };

  std::size_t run_begin = 0;
  for (std::size_t i = 1; i <= kfs.size(); ++i) {
    const bool run_ends =
        i == kfs.size() ||
        kfs[i].position.distance_to(kfs[i - 1].position) > config.cell_radius;
    if (run_ends) {
      emit_segment(run_begin, i);
      run_begin = i;
    }
  }
  return candidates;
}

vision::Panorama stitch_candidate(const trajectory::Trajectory& traj,
                                  const PanoramaCandidate& candidate,
                                  const vision::StitchParams& params) {
  std::vector<vision::PanoFrame> frames;
  frames.reserve(candidate.keyframe_indices.size());
  for (const std::size_t i : candidate.keyframe_indices) {
    frames.push_back({traj.keyframes[i].gray, traj.keyframes[i].heading});
  }
  return vision::stitch_panorama(std::move(frames), params);
}

double panorama_focal_px(int frame_width, int frame_height,
                         const vision::StitchParams& params) {
  const double frame_focal = frame_width / (2.0 * std::tan(params.fov / 2.0));
  return frame_focal * static_cast<double>(params.output_height) /
         std::max(frame_height, 1);
}

}  // namespace crowdmap::room
