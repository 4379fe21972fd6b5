// Tests for the floor planner's build path: ingestion gates, configuration
// and a small end-to-end build.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"

namespace co = crowdmap::core;
namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;
namespace obs = crowdmap::obs;

namespace {

/// Extracts one upload and admits it, as the service's extraction task does.
bool ingest_video(co::IncrementalPlanner& planner,
                  const cs::SensorRichVideo& video) {
  return planner.ingest(crowdmap::trajectory::extract_trajectory(
      video, planner.config().extraction));
}

/// Renders a seeded campaign and admits every upload to `planner`.
void ingest_campaign(co::IncrementalPlanner& planner,
                     const cs::FloorPlanSpec& spec,
                     const cs::CampaignOptions& options, std::uint64_t seed) {
  cs::generate_campaign_streaming(
      spec, options, seed, [&planner](cs::SensorRichVideo&& video) {
        (void)ingest_video(planner, video);
      });
}

cs::CampaignOptions small_campaign_options() {
  cs::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 8;
  options.junk_fraction = 0.0;
  options.night_fraction = 0.2;
  options.sim.fps = 3.0;
  return options;
}

}  // namespace

TEST(PipelineConfig, FastProfileShrinksWork) {
  const auto fast = co::PipelineConfig::fast_profile();
  const co::PipelineConfig full;
  // The paper's 20,000-model sweep stays the declared default everywhere; the
  // fast profile cuts fidelity through the explicit cap instead.
  EXPECT_EQ(fast.layout.hypotheses, full.layout.hypotheses);
  EXPECT_EQ(full.layout_hypothesis_cap, 0);
  EXPECT_GT(fast.layout_hypothesis_cap, 0);
  EXPECT_LT(fast.layout_hypothesis_cap, full.layout.hypotheses);
}

TEST(Pipeline, JunkUploadDropped) {
  const auto spec = cs::random_building(3, *[] {
    static cc::Rng rng(211);
    return &rng;
  }());
  const auto scene = cs::Scene::from_spec(spec, 211);
  cs::SimOptions options;
  options.fps = 3.0;
  cs::UserSimulator user(scene, spec, options, cc::Rng(211));

  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  (void)ingest_video(planner, user.junk_video(cs::Lighting::day()));
  (void)ingest_video(planner, user.hallway_walk(cs::Lighting::day()));
  EXPECT_EQ(planner.trajectories().size() + planner.dropped_count(), 2u);
  EXPECT_GE(planner.trajectories().size(), 1u);
}

TEST(Pipeline, IngestTrajectoryGates) {
  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  crowdmap::trajectory::Trajectory empty;
  EXPECT_FALSE(planner.ingest(empty));  // no keyframes -> dropped
  EXPECT_EQ(planner.dropped_count(), 1u);
  EXPECT_TRUE(planner.trajectories().empty());
  // The build reports the rejected upload beside the (empty) corpus.
  const auto result = planner.refresh();
  EXPECT_EQ(result.diagnostics.trajectories_dropped, 1u);
  EXPECT_EQ(result.diagnostics.videos_ingested, 1u);
}

TEST(Pipeline, RunOnEmptyInputProducesEmptyPlan) {
  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  const auto result = planner.refresh();
  EXPECT_EQ(result.diagnostics.trajectories_kept, 0u);
  EXPECT_TRUE(result.plan.rooms.empty());
  EXPECT_EQ(result.plan.hallway.count_set(), 0u);
}

TEST(Pipeline, EndToEndSmallCampaign) {
  // A 4-room random building with a small crowd: the pipeline must place
  // most trajectories, reconstruct a skeleton and at least half the rooms.
  cc::Rng rng(223);
  const auto spec = cs::random_building(4, rng);
  const auto options = small_campaign_options();

  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  ingest_campaign(planner, spec, options, 223);

  // Build in the planner's own frame (no truth alignment): structure checks
  // only.
  const auto result = planner.refresh();

  const auto& d = result.diagnostics;
  EXPECT_EQ(d.videos_ingested, spec.rooms.size() + 8);
  EXPECT_GE(d.trajectories_placed, d.trajectories_kept / 2);
  EXPECT_GT(result.skeleton.raster.count_set(), 20u);
  EXPECT_GE(result.rooms.size(), spec.rooms.size() / 2);
  EXPECT_EQ(result.plan.rooms.size(), result.rooms.size());
  // The stage spans carry the build's timings.
  const obs::SpanRecord* run = result.trace.find("run");
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->children.size(), 4u);
  double stage_seconds = 0.0;
  for (const auto& stage : run->children) {
    stage_seconds += stage.duration_seconds;
  }
  EXPECT_GT(stage_seconds, 0.0);
}

TEST(Pipeline, TraceAgreesWithDiagnostics) {
  // The stage and refresh histograms are observed from the build's closed
  // spans, so after one refresh each histogram's sum is its span's duration
  // exactly.
  cc::Rng rng(233);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options = small_campaign_options();
  options.hallway_walks = 4;
  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  ingest_campaign(planner, spec, options, 233);
  const auto result = planner.refresh();

  const auto& d = result.diagnostics;
  const obs::SpanRecord* run = result.trace.find("run");
  ASSERT_NE(run, nullptr);
  const auto snap = planner.metrics_registry()->snapshot();
  const auto* refresh = snap.find_series("crowdmap_plan_refresh_seconds");
  ASSERT_NE(refresh, nullptr);
  EXPECT_EQ(refresh->histogram.count, 1u);
  EXPECT_EQ(refresh->histogram.sum, run->duration_seconds);
  for (const char* stage : {"aggregate", "skeleton", "rooms", "arrange"}) {
    const obs::SpanRecord* span = run->find(stage);
    ASSERT_NE(span, nullptr) << stage;
    const auto* series =
        snap.find_series("crowdmap_stage_seconds", {{"stage", stage}});
    ASSERT_NE(series, nullptr) << stage;
    EXPECT_EQ(series->histogram.count, 1u) << stage;
    EXPECT_EQ(series->histogram.sum, span->duration_seconds) << stage;
  }
  // Counters track the build's outcome.
  EXPECT_EQ(static_cast<std::size_t>(
                snap.value("crowdmap_videos_ingested_total")),
            d.videos_ingested);
  EXPECT_EQ(static_cast<std::size_t>(
                snap.value("crowdmap_trajectories_placed_total")),
            d.trajectories_placed);
}

TEST(Pipeline, WorldFrameControlsExtent) {
  cc::Rng rng(227);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options = small_campaign_options();
  options.hallway_walks = 4;
  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  ingest_campaign(planner, spec, options, 227);
  co::WorldFrame frame;
  frame.extent = spec.extent();
  const auto result = planner.refresh(frame);
  EXPECT_NEAR(result.plan.hallway.extent().min.x, spec.extent().min.x, 1e-9);
  EXPECT_NEAR(result.plan.hallway.extent().max.y, spec.extent().max.y, 1e-9);
}

TEST(Pipeline, RoomDedupMergesRevisits) {
  // Two visits to the same room must produce one reconstructed room.
  cc::Rng rng(229);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options = small_campaign_options();
  options.room_videos_per_room = 2;
  options.hallway_walks = 6;
  co::IncrementalPlanner planner(co::PipelineConfig::fast_profile());
  ingest_campaign(planner, spec, options, 229);
  const auto result = planner.refresh();
  // No more reconstructed rooms than real rooms (dedup worked), allowing one
  // spurious extra in the worst case.
  EXPECT_LE(result.rooms.size(), spec.rooms.size() + 1);
}
