// render_assets — writes a gallery of intermediate artifacts for inspection
// and documentation: rendered frames (day/night), a room panorama with its
// detected wall-floor boundary burned in, the occupancy skeleton, and the
// final plan, all as PGM/PPM/SVG next to the working directory.
//
//   $ ./build/tools/render_assets [output_prefix]
#include <cmath>
#include <fstream>
#include <iostream>

#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "io/image_io.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/trajectory.hpp"

int main(int argc, char** argv) {
  using namespace crowdmap;
  const std::string prefix = argc > 1 ? argv[1] : "asset_";

  const auto dataset = eval::lab1_dataset(0.5);
  const auto scene = sim::Scene::from_spec(dataset.building, dataset.seed);
  sim::CameraIntrinsics intr;
  common::Rng rng(0xA55E7);

  // 1. Example frames: a hallway view by day and by night.
  const geometry::Pose2 hall_pose{{10.0, 0.0}, 0.0};
  io::write_ppm(prefix + "frame_day.ppm",
                scene.render(hall_pose, intr, sim::Lighting::day(), rng));
  io::write_ppm(prefix + "frame_night.ppm",
                scene.render(hall_pose, intr, sim::Lighting::night(), rng));
  const geometry::Pose2 room_pose{dataset.building.rooms[0].center, 1.0};
  io::write_ppm(prefix + "frame_room.ppm",
                scene.render(room_pose, intr, sim::Lighting::day(), rng));

  // 2. A room panorama with the detected boundary burned in.
  sim::SimOptions options = dataset.options.sim;
  sim::UserSimulator user(scene, dataset.building, options, common::Rng(0xA55E7));
  const auto video =
      user.room_visit(dataset.building.rooms[0], 3.0, sim::Lighting::day());
  const auto traj = trajectory::extract_trajectory(video);
  const auto candidates = room::find_panorama_candidates(traj);
  if (!candidates.empty()) {
    vision::StitchParams stitch;
    stitch.output_width = 512;
    stitch.output_height = 128;
    auto pano = room::stitch_candidate(traj, candidates.front(), stitch);
    const auto& kf = traj.keyframes[candidates.front().keyframe_indices.front()];
    const double focal =
        room::panorama_focal_px(kf.gray.width(), kf.gray.height(), stitch);
    const double horizon =
        stitch.output_height / 2.0 - focal * std::tan(0.15);
    const auto boundary = room::detect_floor_boundary(pano.image, horizon);
    for (int c = 0; c < pano.image.width(); ++c) {
      const double row = boundary[static_cast<std::size_t>(c)];
      if (!std::isnan(row) && row >= 0 && row < pano.image.height()) {
        pano.image.at(c, static_cast<int>(row)) = 1.0f;  // burn in white
      }
    }
    io::write_pgm(prefix + "panorama_boundary.pgm", pano.image);
  }

  // 3. Skeleton raster and final plan of a full run.
  const auto run =
      eval::run_experiment(dataset, core::PipelineConfig::fast_profile());
  io::write_pgm(prefix + "skeleton.pgm", run.result.skeleton.raster);
  std::ofstream(prefix + "plan.svg") << run.result.plan.to_svg();

  std::cout << "wrote " << prefix << "frame_day.ppm, " << prefix
            << "frame_night.ppm, " << prefix << "frame_room.ppm, " << prefix
            << "panorama_boundary.pgm, " << prefix << "skeleton.pgm, "
            << prefix << "plan.svg\n";
  return 0;
}
