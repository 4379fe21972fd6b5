// Shared workload for Fig. 8(a)/(b): per-room layout estimates from the
// visual pipeline (SRS panorama -> layout) and the inertial-only baseline
// (room wander -> bounding box), across all three buildings.
#pragma once

#include <iostream>
#include <vector>

#include "baselines/inertial_room.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "eval/datasets.hpp"
#include "floorplan/eval.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/trajectory.hpp"

namespace crowdmap::bench {

struct RoomErrorSamples {
  std::vector<double> visual_area;
  std::vector<double> visual_aspect;
  std::vector<double> inertial_area;
  std::vector<double> inertial_aspect;
};

/// Runs the per-room comparison over every room of all three buildings.
[[nodiscard]] inline RoomErrorSamples collect_room_errors(std::uint64_t seed) {
  RoomErrorSamples samples;
  for (const auto& dataset : eval::all_datasets(1.0)) {
    const auto scene = sim::Scene::from_spec(dataset.building, dataset.seed);
    sim::SimOptions options = dataset.options.sim;
    sim::UserSimulator user(scene, dataset.building, options,
                            common::Rng(seed ^ dataset.seed));
    common::Rng light_rng(seed * 31 + dataset.seed);
    for (const auto& room : dataset.building.rooms) {
      // Recordings arrive under mixed lighting, as in the real campaign.
      const auto light = light_rng.chance(dataset.options.night_fraction)
                             ? sim::Lighting::night()
                             : sim::Lighting::day();
      // --- Visual: SRS panorama -> rectangular layout.
      const auto video = user.room_visit(room, 4.0, light);
      const auto traj = trajectory::extract_trajectory(video);
      const auto candidates = room::find_panorama_candidates(traj);
      if (!candidates.empty()) {
        vision::StitchParams stitch;
        stitch.output_width = 512;
        stitch.output_height = 128;
        const auto pano = room::stitch_candidate(traj, candidates.front(), stitch);
        room::LayoutConfig layout_config;
        const auto& kf = traj.keyframes[candidates.front().keyframe_indices.front()];
        layout_config.focal_px =
            room::panorama_focal_px(kf.gray.width(), kf.gray.height(), stitch);
        if (const auto layout = room::estimate_layout(pano.image, layout_config)) {
          samples.visual_area.push_back(
              common::relative_error(layout->area(), room.area()));
          samples.visual_aspect.push_back(floorplan::aspect_ratio_error(
              layout->width, layout->depth, room.width, room.depth));
        }
      }
      // --- Inertial baseline: wander loop -> dead-reckoned bounding box.
      const auto wander = user.room_wander(room, light);
      const auto wander_traj = trajectory::extract_trajectory(wander);
      std::vector<geometry::Vec2> trace;
      for (const auto& p : wander_traj.points) trace.push_back(p.position);
      if (const auto est = baselines::estimate_room_inertial(trace)) {
        samples.inertial_area.push_back(
            common::relative_error(est->area(), room.area()));
        samples.inertial_aspect.push_back(floorplan::aspect_ratio_error(
            est->width, est->depth, room.width, room.depth));
      }
    }
  }
  return samples;
}

}  // namespace crowdmap::bench
