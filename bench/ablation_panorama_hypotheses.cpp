// Ablation — room-layout hypothesis count (§III.C.II): the paper samples
// 20,000 layout models per panorama. Sweeps the sample count (with the
// data-driven seeds disabled, so this measures pure random-sampling
// convergence) and reports room area error.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/trajectory.hpp"

int main() {
  using namespace crowdmap;
  const auto dataset = eval::lab1_dataset(1.0);
  const auto scene = sim::Scene::from_spec(dataset.building, dataset.seed);
  sim::SimOptions options = dataset.options.sim;
  sim::UserSimulator user(scene, dataset.building, options, common::Rng(0xAB5));

  // Precompute panoramas once per room.
  struct RoomPano {
    imaging::Image image;
    double focal = 0.0;
    double true_area = 0.0;
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
    rp.true_area = room.area();
    panos.push_back(std::move(rp));
  }
  std::cout << "# panoramas prepared: " << panos.size() << "\n";

  std::cout << "=== Ablation: layout hypotheses (random sampling only) ===\n";
  eval::print_table_row(std::cout,
                        {"hypotheses", "mean area err", "p90 area err"});
  for (const int hypotheses : {20, 200, 2000, 20000}) {
    std::vector<double> errors;
    for (const auto& rp : panos) {
      // Average over independent sampler seeds: at low counts the variance
      // between runs dominates, which is itself part of the story.
      for (std::uint64_t sampler_seed = 1; sampler_seed <= 5; ++sampler_seed) {
        room::LayoutConfig config;
        config.hypotheses = hypotheses;
        config.use_seed_hypotheses = false;
        config.focal_px = rp.focal;
        config.seed = 0xAB5000u + sampler_seed;
        if (const auto layout = room::estimate_layout(rp.image, config)) {
          errors.push_back(
              common::relative_error(layout->area(), rp.true_area));
        }
      }
    }
    const auto summary = common::summarize(errors);
    eval::print_table_row(std::cout, {std::to_string(hypotheses),
                                      eval::pct(summary.mean),
                                      eval::pct(summary.p90)});
    bench::emit_bench_json("ablation_panorama_hypotheses",
                           "area_error.hypotheses=" + std::to_string(hypotheses),
                           errors);
  }
  std::cout << "# error should fall steeply with more samples and flatten "
               "well before 20k (the paper's setting is conservative)\n";
  return 0;
}
