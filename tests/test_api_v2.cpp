// Tests for the api::v2 facade: the structured Status error model,
// request-scoped deadlines, cluster topology surface, the router adding
// nothing to the bytes (a single-node client's FloorPlan and
// DegradationReport match a bare CrowdMapService's over the same campaign),
// and the 4-submitter-thread regression for the submit critical section
// (docs/API.md).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/v2.hpp"
#include "cloud/chunking.hpp"
#include "cloud/service.hpp"
#include "common/rng.hpp"
#include "floorplan/serialize.hpp"
#include "sensors/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace api = crowdmap::api;
namespace cl = crowdmap::cloud;
namespace cs = crowdmap::sim;
namespace co = crowdmap::core;
namespace cc = crowdmap::common;
namespace fp = crowdmap::floorplan;

namespace {

std::vector<cs::SensorRichVideo> tiny_campaign(std::uint64_t seed) {
  std::vector<cs::SensorRichVideo> out;
  cc::Rng rng(seed);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 4;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  cs::generate_campaign_streaming(spec, options, seed,
                                  [&out](cs::SensorRichVideo&& video) {
                                    out.push_back(std::move(video));
                                  });
  return out;
}

api::Client make_v2(std::size_t nodes = 1) {
  api::ClientOptions options;
  options.config = co::PipelineConfig::fast_profile();
  options.config.cluster.nodes = nodes;
  return api::Client(std::move(options));
}

std::string plan_bytes(const co::PipelineResult& result) {
  const auto bytes = fp::encode_floorplan(result.plan);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

// ----------------------------------------------------------- versioning ---

TEST(ApiV2, InlineNamespaceMakesV2TheDefault) {
  static_assert(std::is_same_v<api::Client, api::v2::Client>);
  static_assert(std::is_same_v<api::ClientOptions, api::v2::ClientOptions>);
  SUCCEED();
}

TEST(ApiV2, StatusModelIsSelfDescribing) {
  EXPECT_TRUE(api::Status::Ok().ok());
  EXPECT_EQ(api::Status::Ok().code, api::StatusCode::kOk);
  const auto status =
      api::Status::Error(api::StatusCode::kShedding, "over queue bound");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(api::to_string(status.code), "shedding");
  EXPECT_EQ(api::to_string(api::StatusCode::kOk), "ok");
  EXPECT_EQ(api::to_string(api::StatusCode::kWrongShard), "wrong_shard");
  EXPECT_EQ(api::to_string(api::StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
}

// ------------------------------------------------- router conformance ---

TEST(ApiV2, SingleNodeMatchesBareServiceByteForByte) {
  const auto videos = tiny_campaign(820);
  ASSERT_GE(videos.size(), 3u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  // Reference: one CrowdMapService fed the same uploads directly, decoding
  // through a side table keyed by upload id — no router, no shard log. The
  // table is filled before the first delivery, so extraction workers only
  // ever read it.
  std::map<std::string, cs::SensorRichVideo> side_table;
  for (const auto& video : videos) {
    side_table["video-" + std::to_string(video.video_id)] = video;
  }
  cc::ThreadPool pool(2);
  cl::CrowdMapService bare(
      co::PipelineConfig::fast_profile(),
      [&side_table](const cl::Document& doc)
          -> std::optional<cs::SensorRichVideo> {
        const auto it = side_table.find(doc.id);
        if (it == side_table.end()) return std::nullopt;
        return it->second;
      },
      pool);
  for (const auto& video : videos) {
    const std::string id = "video-" + std::to_string(video.video_id);
    bare.open_session(id, video.building, video.floor);
    for (const auto& chunk : cl::split_into_chunks(
             crowdmap::sensors::encode_imu(video.imu), id, 4096)) {
      ASSERT_NE(bare.deliver(chunk), cl::IngestStatus::kRejected);
    }
  }
  bare.drain();
  const auto bare_plan = bare.build_floor_plan(building, floor, std::nullopt);

  auto v2 = make_v2();
  for (const auto& video : videos) {
    const auto response = v2.submit_video(video);
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_GT(response.chunks_sent, 0u);
    EXPECT_GT(response.seqno, 0u);
  }
  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto v2_plan = v2.build_plan(request);
  ASSERT_TRUE(v2_plan.status.ok());

  EXPECT_EQ(plan_bytes(bare_plan), plan_bytes(v2_plan.result));
  EXPECT_EQ(bare_plan.degradation.to_string(),
            v2_plan.degradation.to_string());
  EXPECT_EQ(v2_plan.degradation.to_string(),
            v2_plan.result.degradation.to_string());
}

TEST(ApiV2, MultiNodeClientMatchesSingleNodeByteForByte) {
  const auto videos = tiny_campaign(821);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto single = make_v2(1);
  auto sharded = make_v2(3);
  EXPECT_EQ(single.nodes(), 1u);
  EXPECT_EQ(sharded.nodes(), 3u);
  for (const auto& video : videos) {
    ASSERT_TRUE(single.submit_video(video).status.ok());
    ASSERT_TRUE(sharded.submit_video(video).status.ok());
  }
  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto lone = single.build_plan(request);
  const auto spread = sharded.build_plan(request);
  EXPECT_EQ(plan_bytes(lone.result), plan_bytes(spread.result));

  // The serving node is the shard's primary, and the merged snapshot keeps
  // router families unlabeled while node families carry {"node", ...}.
  EXPECT_EQ(spread.node, sharded.shard_of(building, floor).primary);
  EXPECT_EQ(spread.metrics.value("crowdmap_cluster_nodes"), 3.0);
  EXPECT_TRUE(spread.metrics.has(
      "crowdmap_worker_queue_depth",
      {{"node", sharded.node_name(spread.node)}}));
}

// ------------------------------------------------------- error surface ---

TEST(ApiV2, StaleRoutingIsRefusedAsWrongShard) {
  const auto videos = tiny_campaign(822);
  const auto& video = videos.front();
  auto client = make_v2(3);

  const auto view = client.shard_of(video.building, video.floor);
  std::size_t wrong = 0;
  while (wrong == view.primary) ++wrong;

  api::SubmitUploadRequest request;
  request.upload_id = "video-" + std::to_string(video.video_id);
  request.building = video.building;
  request.floor = video.floor;
  request.payload = crowdmap::sensors::encode_imu(video.imu);

  const auto refused = client.submit_upload_to(wrong, request);
  EXPECT_EQ(refused.status.code, api::StatusCode::kWrongShard);
  EXPECT_FALSE(refused.status.message.empty());
  EXPECT_EQ(refused.node, view.primary) << "response names the real primary";
  EXPECT_EQ(refused.seqno, 0u);

  const auto accepted = client.submit_upload_to(view.primary, request);
  EXPECT_TRUE(accepted.status.ok());
}

TEST(ApiV2, RequestDeadlinesBoundAdmission) {
  const auto videos = tiny_campaign(823);
  const auto& video = videos.front();
  auto client = make_v2();
  ASSERT_TRUE(client.submit_video(video).status.ok());
  ASSERT_GE(client.now_tick(), 1u);

  api::RequestOptions expired;
  expired.deadline_tick = 1;
  const auto late = client.submit_video(videos.back(), expired);
  EXPECT_EQ(late.status.code, api::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.seqno, 0u);

  api::BuildPlanRequest build;
  build.building = video.building;
  build.floor = video.floor;
  build.options = expired;
  const auto plan = client.build_plan(build);
  EXPECT_EQ(plan.status.code, api::StatusCode::kDeadlineExceeded);

  build.options.deadline_tick = client.now_tick() + 100;
  EXPECT_TRUE(client.build_plan(build).status.ok());
}

// ------------------------------------------- submit critical section ---

TEST(ApiV2, FourConcurrentSubmittersMatchSerialSubmissionByteForByte) {
  // Regression for the submit critical section: chunk delivery runs outside
  // the router lock, so concurrent submitters must neither corrupt routing
  // state nor change the committed upload set. Four threads stripe the
  // campaign; the resulting plan must match a serial submission's bytes.
  const auto videos = tiny_campaign(824);
  ASSERT_GE(videos.size(), 4u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto serial = make_v2();
  for (const auto& video : videos) {
    ASSERT_TRUE(serial.submit_video(video).status.ok());
  }
  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto reference = serial.build_plan(request);

  auto concurrent = make_v2();
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> accepted(kThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t v = t; v < videos.size(); v += kThreads) {
          if (concurrent.submit_video(videos[v]).status.ok()) ++accepted[t];
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  std::size_t total = 0;
  for (const auto count : accepted) total += count;
  ASSERT_EQ(total, videos.size());

  const auto built = concurrent.build_plan(request);
  EXPECT_EQ(plan_bytes(reference.result), plan_bytes(built.result));
  EXPECT_EQ(reference.result.degradation.to_string(),
            built.result.degradation.to_string());
}

// ------------------------------------------------------ topology surface ---

TEST(ApiV2, TopologyChangesKeepServingIdenticalPlans) {
  const auto videos = tiny_campaign(825);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto fixed = make_v2();
  auto elastic = make_v2();
  const std::size_t half = videos.size() / 2;
  for (std::size_t v = 0; v < videos.size(); ++v) {
    ASSERT_TRUE(fixed.submit_video(videos[v]).status.ok());
    if (v == half) (void)elastic.add_node();
    ASSERT_TRUE(elastic.submit_video(videos[v]).status.ok());
  }
  EXPECT_EQ(elastic.nodes(), 2u);
  EXPECT_EQ(elastic.node_name(0), "node-0");

  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto before = elastic.build_plan(request);
  ASSERT_TRUE(elastic.remove_node(0));
  const auto after = elastic.build_plan(request);
  const auto baseline = fixed.build_plan(request);
  EXPECT_EQ(plan_bytes(baseline.result), plan_bytes(before.result));
  EXPECT_EQ(plan_bytes(baseline.result), plan_bytes(after.result));
}
