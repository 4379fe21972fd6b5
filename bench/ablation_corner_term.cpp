// Ablation — the corner-consistency term in layout scoring (Fig. 5's
// vertical wall-joint lines): room area/aspect error with the corner term
// off, default, and strong.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "floorplan/eval.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/trajectory.hpp"

int main() {
  using namespace crowdmap;
  const auto dataset = eval::lab2_dataset(1.0);
  const auto scene = sim::Scene::from_spec(dataset.building, dataset.seed);
  sim::SimOptions options = dataset.options.sim;
  sim::UserSimulator user(scene, dataset.building, options, common::Rng(0xAB6));

  // Precompute panoramas once per room.
  struct RoomPano {
    imaging::Image image;
    double focal = 0.0;
    double true_w = 0.0;
    double true_d = 0.0;
  };
  std::vector<RoomPano> panos;
  vision::StitchParams stitch;
  stitch.output_width = 512;
  stitch.output_height = 128;
  for (const auto& room : dataset.building.rooms) {
    const auto video = user.room_visit(room, 3.0, sim::Lighting::day());
    const auto traj = trajectory::extract_trajectory(video);
    const auto candidates = room::find_panorama_candidates(traj);
    if (candidates.empty()) continue;
    const auto pano = room::stitch_candidate(traj, candidates.front(), stitch);
    const auto& kf = traj.keyframes[candidates.front().keyframe_indices.front()];
    RoomPano rp;
    rp.image = pano.image;
    rp.focal =
        room::panorama_focal_px(kf.gray.width(), kf.gray.height(), stitch);
    rp.true_w = room.width;
    rp.true_d = room.depth;
    panos.push_back(std::move(rp));
  }
  std::cout << "# panoramas prepared: " << panos.size() << "\n";

  std::cout << "=== Ablation: corner-consistency weight in layout scoring ===\n";
  eval::print_table_row(std::cout,
                        {"corner weight", "mean area err", "mean aspect err"});
  for (const double weight : {0.0, 0.1, 0.4}) {
    std::vector<double> area_errors;
    std::vector<double> aspect_errors;
    for (const auto& rp : panos) {
      room::LayoutConfig config;
      config.hypotheses = 4000;
      config.corner_weight = weight;
      config.focal_px = rp.focal;
      if (const auto layout = room::estimate_layout(rp.image, config)) {
        area_errors.push_back(common::relative_error(layout->area(),
                                                     rp.true_w * rp.true_d));
        aspect_errors.push_back(floorplan::aspect_ratio_error(
            layout->width, layout->depth, rp.true_w, rp.true_d));
      }
    }
    eval::print_table_row(
        std::cout,
        {eval::fmt(weight, 2), eval::pct(common::mean(area_errors)),
         eval::pct(common::mean(aspect_errors))});
    bench::emit_bench_json("ablation_corner_term",
                           "area_error.w=" + eval::fmt(weight, 2), area_errors);
    bench::emit_bench_json("ablation_corner_term",
                           "aspect_error.w=" + eval::fmt(weight, 2),
                           aspect_errors);
  }
  std::cout << "# corner evidence mostly sharpens orientation/aspect; the "
               "boundary term carries area\n";
  return 0;
}
