// End-to-end integration tests over the evaluation harness, including the
// determinism guarantee and parameterized property sweeps.
#include <gtest/gtest.h>

#include "core/incremental.hpp"
#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "trajectory/trajectory.hpp"

namespace ce = crowdmap::eval;
namespace co = crowdmap::core;

namespace {

/// Small, fast dataset for integration tests.
ce::DatasetSpec tiny_lab1() {
  auto dataset = ce::lab1_dataset(0.25);
  dataset.options.room_videos_per_room = 1;
  return dataset;
}

}  // namespace

TEST(Integration, Lab1SmallCampaignMetricsAboveFloor) {
  const auto run = ce::run_experiment(tiny_lab1(), co::PipelineConfig::fast_profile());
  // Floors far below the paper's numbers: regression alarms, not targets.
  EXPECT_GT(run.hallway.precision, 0.5);
  EXPECT_GT(run.hallway.recall, 0.4);
  EXPECT_GE(run.room_errors.size(), 6u);
  double mean_area = 0.0;
  double mean_loc = 0.0;
  for (const auto& e : run.room_errors) {
    mean_area += e.area_error;
    mean_loc += e.location_error_m;
  }
  mean_area /= static_cast<double>(run.room_errors.size());
  mean_loc /= static_cast<double>(run.room_errors.size());
  EXPECT_LT(mean_area, 0.35);
  EXPECT_LT(mean_loc, 3.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  const auto dataset = tiny_lab1();
  const auto config = co::PipelineConfig::fast_profile();
  const auto run1 = ce::run_experiment(dataset, config);
  const auto run2 = ce::run_experiment(dataset, config);
  EXPECT_EQ(run1.hallway.precision, run2.hallway.precision);
  EXPECT_EQ(run1.hallway.recall, run2.hallway.recall);
  ASSERT_EQ(run1.room_errors.size(), run2.room_errors.size());
  for (std::size_t i = 0; i < run1.room_errors.size(); ++i) {
    EXPECT_EQ(run1.room_errors[i].area_error, run2.room_errors[i].area_error);
    EXPECT_EQ(run1.room_errors[i].location_error_m,
              run2.room_errors[i].location_error_m);
  }
}

TEST(Integration, TruthRasterMatchesSpec) {
  const auto dataset = ce::lab1_dataset(0.25);
  const auto raster = ce::truth_hallway_raster(dataset, 0.5);
  EXPECT_NEAR(raster.set_area(), dataset.building.hallway_area(0.5), 5.0);
}

TEST(Integration, DatasetsHaveDistinctCharacter) {
  const auto lab1 = ce::lab1_dataset();
  const auto gym = ce::gym_dataset();
  EXPECT_GT(lab1.building.feature_density, gym.building.feature_density);
  EXPECT_NE(lab1.seed, gym.seed);
}

// ------------------------- parameterized property sweep: building scaling ---

class RandomBuildingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomBuildingSweep, PipelinePlacesAndReconstructs) {
  const int n_rooms = GetParam();
  crowdmap::common::Rng rng(300 + static_cast<std::uint64_t>(n_rooms));
  const auto building = crowdmap::sim::random_building(n_rooms, rng);

  crowdmap::sim::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 2 * n_rooms;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;

  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  crowdmap::sim::generate_campaign_streaming(
      building, options, 400 + static_cast<std::uint64_t>(n_rooms),
      [&planner](crowdmap::sim::SensorRichVideo&& video) {
        (void)planner.ingest(crowdmap::trajectory::extract_trajectory(
            video, planner.config().extraction));
      });
  const auto result = planner.refresh();

  // Invariants that must hold at any scale:
  EXPECT_LE(result.diagnostics.trajectories_placed,
            result.diagnostics.trajectories_kept);
  EXPECT_EQ(result.plan.rooms.size(), result.rooms.size());
  for (const auto& room : result.plan.rooms) {
    EXPECT_GT(room.width, 0.0);
    EXPECT_GT(room.depth, 0.0);
  }
  // With junk disabled and generous matching data, most trajectories place.
  EXPECT_GE(result.diagnostics.trajectories_placed,
            result.diagnostics.trajectories_kept / 2);
}

INSTANTIATE_TEST_SUITE_P(BuildingSizes, RandomBuildingSweep,
                         ::testing::Values(2, 4, 6));
