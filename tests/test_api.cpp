// Tests for the api::Client facade: the structured Status error model, the
// router adding nothing to the bytes (a single-node client's FloorPlan and
// DegradationReport match a bare CrowdMapService's over the same campaign),
// the 4-submitter-thread regression for the submit critical section
// (docs/API.md), and incremental recomputation semantics: submission-order
// independence, warm-vs-cold byte identity, cache reuse across rebuilds,
// persistence warm-start, and floors sharing a node each reporting only
// their own diagnostics and losses. The ApiV2 suite keeps the client's error
// surface (a stale-routing refusal, request deadlines) and a topology change
// seen through the client; routing, shedding, deadlines and membership are
// checked in depth in test_cluster.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/v2.hpp"
#include "cloud/chunking.hpp"
#include "cloud/docstore.hpp"
#include "cloud/service.hpp"
#include "common/rng.hpp"
#include "floorplan/serialize.hpp"
#include "sensors/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace ap = crowdmap::api;
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

ap::Client make_client(co::PipelineConfig config = co::PipelineConfig::fast_profile()) {
  ap::ClientOptions options;
  options.config = std::move(config);
  return ap::Client(std::move(options));
}

std::string plan_bytes(const co::PipelineResult& result) {
  const auto bytes = fp::encode_floorplan(result.plan);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

// ----------------------------------------------------------- versioning ---

TEST(Api, InlineNamespaceMakesV2TheDefault) {
  static_assert(std::is_same_v<ap::Client, ap::v2::Client>);
  static_assert(std::is_same_v<ap::ClientOptions, ap::v2::ClientOptions>);
  SUCCEED();
}

TEST(Api, StatusModelIsSelfDescribing) {
  EXPECT_TRUE(ap::Status::Ok().ok());
  EXPECT_EQ(ap::Status::Ok().code, ap::StatusCode::kOk);
  const auto status =
      ap::Status::Error(ap::StatusCode::kShedding, "over queue bound");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ap::to_string(status.code), "shedding");
  EXPECT_EQ(ap::to_string(ap::StatusCode::kOk), "ok");
  EXPECT_EQ(ap::to_string(ap::StatusCode::kWrongShard), "wrong_shard");
  EXPECT_EQ(ap::to_string(ap::StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
}

// ------------------------------------------------- router conformance ---

TEST(Api, SingleNodeMatchesBareServiceByteForByte) {
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

  auto client = make_client();
  for (const auto& video : videos) {
    const auto response = client.submit_video(video);
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_GT(response.chunks_sent, 0u);
    EXPECT_GT(response.seqno, 0u);
  }
  ap::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto routed = client.build_plan(request);
  ASSERT_TRUE(routed.status.ok());

  EXPECT_EQ(plan_bytes(bare_plan), plan_bytes(routed.result));
  EXPECT_EQ(bare_plan.degradation.to_string(),
            routed.degradation.to_string());
  EXPECT_EQ(routed.degradation.to_string(),
            routed.result.degradation.to_string());
}

TEST(Api, MultiNodeClientMatchesSingleNodeByteForByte) {
  const auto videos = tiny_campaign(821);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto three_nodes = co::PipelineConfig::fast_profile();
  three_nodes.cluster.nodes = 3;
  auto single = make_client();
  auto sharded = make_client(three_nodes);
  EXPECT_EQ(single.nodes(), 1u);
  EXPECT_EQ(sharded.nodes(), 3u);
  for (const auto& video : videos) {
    ASSERT_TRUE(single.submit_video(video).status.ok());
    ASSERT_TRUE(sharded.submit_video(video).status.ok());
  }
  ap::BuildPlanRequest request;
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
  auto three_nodes = co::PipelineConfig::fast_profile();
  three_nodes.cluster.nodes = 3;
  auto client = make_client(three_nodes);

  const auto view = client.shard_of(video.building, video.floor);
  std::size_t wrong = 0;
  while (wrong == view.primary) ++wrong;

  ap::SubmitUploadRequest request;
  request.upload_id = "video-" + std::to_string(video.video_id);
  request.building = video.building;
  request.floor = video.floor;
  request.payload = crowdmap::sensors::encode_imu(video.imu);

  const auto refused = client.submit_upload_to(wrong, request);
  EXPECT_EQ(refused.status.code, ap::StatusCode::kWrongShard);
  EXPECT_FALSE(refused.status.message.empty());
  EXPECT_EQ(refused.node, view.primary) << "response names the real primary";
  EXPECT_EQ(refused.seqno, 0u);

  const auto accepted = client.submit_upload_to(view.primary, request);
  EXPECT_TRUE(accepted.status.ok());
}

TEST(ApiV2, RequestDeadlinesBoundAdmission) {
  const auto videos = tiny_campaign(823);
  const auto& video = videos.front();
  auto client = make_client();
  ASSERT_TRUE(client.submit_video(video).status.ok());
  ASSERT_GE(client.now_tick(), 1u);

  ap::RequestOptions expired;
  expired.deadline_tick = 1;
  const auto late = client.submit_video(videos.back(), expired);
  EXPECT_EQ(late.status.code, ap::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.seqno, 0u);

  ap::BuildPlanRequest build;
  build.building = video.building;
  build.floor = video.floor;
  build.options = expired;
  const auto plan = client.build_plan(build);
  EXPECT_EQ(plan.status.code, ap::StatusCode::kDeadlineExceeded);

  build.options.deadline_tick = client.now_tick() + 100;
  EXPECT_TRUE(client.build_plan(build).status.ok());
}

TEST(ApiV2, RefusedSubmitVideoLeavesNoVideoBehind) {
  // A submit_video refused at admission must not file its video in the side
  // table: a later upload under the same id, on a client with no fallback
  // decoder, then has nothing to decode instead of the stale pixels.
  const auto videos = tiny_campaign(825);
  const auto& video = videos.front();
  auto client = make_client();
  // An (empty) build advances the router tick, so now_tick() is a deadline
  // that has passed by the next request.
  ASSERT_TRUE(client.build_plan({video.building, video.floor, std::nullopt, {}})
                  .status.ok());
  ap::RequestOptions expired;
  expired.deadline_tick = client.now_tick();
  ASSERT_NE(expired.deadline_tick, 0u);
  EXPECT_EQ(client.submit_video(video, expired).status.code,
            ap::StatusCode::kDeadlineExceeded);

  ap::SubmitUploadRequest upload;
  upload.upload_id = "video-" + std::to_string(video.video_id);
  upload.building = video.building;
  upload.floor = video.floor;
  upload.payload = crowdmap::sensors::encode_imu(video.imu);
  EXPECT_TRUE(client.submit_upload(upload).status.ok());
  client.drain();
  const auto stats = client.stats();
  EXPECT_EQ(stats.decode_failures, 1u);
  EXPECT_EQ(stats.videos_decoded, 0u);
  EXPECT_TRUE(client.trajectories(video.building, video.floor).empty());
}

// ------------------------------------------- submit critical section ---

TEST(Api, FourConcurrentSubmittersMatchSerialSubmissionByteForByte) {
  // Regression for the submit critical section: chunk delivery runs outside
  // the router lock, so concurrent submitters must neither corrupt routing
  // state nor change the committed upload set. Four threads stripe the
  // campaign; the resulting plan must match a serial submission's bytes.
  const auto videos = tiny_campaign(824);
  ASSERT_GE(videos.size(), 4u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto serial = make_client();
  for (const auto& video : videos) {
    ASSERT_TRUE(serial.submit_video(video).status.ok());
  }
  ap::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto reference = serial.build_plan(request);

  auto concurrent = make_client();
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

  auto fixed = make_client();
  auto elastic = make_client();
  const std::size_t half = videos.size() / 2;
  for (std::size_t v = 0; v < videos.size(); ++v) {
    ASSERT_TRUE(fixed.submit_video(videos[v]).status.ok());
    if (v == half) (void)elastic.add_node();
    ASSERT_TRUE(elastic.submit_video(videos[v]).status.ok());
  }
  EXPECT_EQ(elastic.nodes(), 2u);
  EXPECT_EQ(elastic.node_name(0), "node-0");

  ap::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto before = elastic.build_plan(request);
  ASSERT_TRUE(elastic.remove_node(0));
  const auto after = elastic.build_plan(request);
  const auto baseline = fixed.build_plan(request);
  EXPECT_EQ(plan_bytes(baseline.result), plan_bytes(before.result));
  EXPECT_EQ(plan_bytes(baseline.result), plan_bytes(after.result));
}

// ------------------------------------------- incremental recomputation ---

TEST(Api, SubmissionOrderDoesNotChangeThePlan) {
  const auto videos = tiny_campaign(810);
  ASSERT_GE(videos.size(), 3u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto forward = make_client();
  for (const auto& video : videos) ASSERT_TRUE(forward.submit_video(video).status.ok());
  const auto plan_fwd = forward.build_plan({building, floor, std::nullopt, {}});

  auto reversed = make_client();
  for (auto it = videos.rbegin(); it != videos.rend(); ++it) {
    ASSERT_TRUE(reversed.submit_video(*it).status.ok());
  }
  const auto plan_rev = reversed.build_plan({building, floor, std::nullopt, {}});

  EXPECT_EQ(plan_bytes(plan_fwd.result), plan_bytes(plan_rev.result));
  EXPECT_EQ(plan_fwd.result.degradation.to_string(),
            plan_rev.result.degradation.to_string());
}

TEST(Api, BuildingsSharingVideoIdsMatchSeparateClients) {
  // Upload ids ("video-<id>") are unique per floor only: two buildings whose
  // campaigns both number their videos 0..5 must not decode each other's
  // videos. The membership change makes the joining node replay every
  // upload after both campaigns landed, so a collision cannot hide behind
  // extraction timing.
  const auto campaign = [](std::uint64_t seed, const std::string& building) {
    auto videos = tiny_campaign(seed);
    videos.resize(std::min<std::size_t>(videos.size(), 6));
    for (std::size_t i = 0; i < videos.size(); ++i) {
      videos[i].building = building;
      videos[i].video_id = static_cast<int>(i);
    }
    return videos;
  };
  const auto a = campaign(910, "A");
  const auto b = campaign(911, "B");
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);

  const auto build = [](ap::Client& client, const cs::SensorRichVideo& video) {
    return plan_bytes(
        client.build_plan({video.building, video.floor, std::nullopt, {}})
            .result);
  };
  const auto alone = [&](const std::vector<cs::SensorRichVideo>& videos) {
    auto client = make_client();
    for (const auto& video : videos) {
      EXPECT_TRUE(client.submit_video(video).status.ok());
    }
    return build(client, videos.front());
  };

  auto shared = make_client();
  for (const auto& video : a) ASSERT_TRUE(shared.submit_video(video).status.ok());
  for (const auto& video : b) ASSERT_TRUE(shared.submit_video(video).status.ok());
  shared.drain();
  (void)shared.add_node();
  ASSERT_TRUE(shared.remove_node(0));
  EXPECT_EQ(build(shared, a.front()), alone(a));
  EXPECT_EQ(build(shared, b.front()), alone(b));
}

TEST(Api, IncrementalRefreshMatchesColdRebuildByteForByte) {
  const auto videos = tiny_campaign(811);
  ASSERT_GE(videos.size(), 2u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  // Warm path: N-1 uploads, build, then the last upload arrives and we
  // rebuild incrementally.
  auto warm = make_client();
  for (std::size_t v = 0; v + 1 < videos.size(); ++v) {
    ASSERT_TRUE(warm.submit_video(videos[v]).status.ok());
  }
  (void)warm.build_plan({building, floor, std::nullopt, {}});
  ASSERT_TRUE(warm.submit_video(videos.back()).status.ok());
  const auto incremental = warm.build_plan({building, floor, std::nullopt, {}});

  // Cold path: all uploads, one build, no cache history.
  auto cold = make_client();
  for (const auto& video : videos) ASSERT_TRUE(cold.submit_video(video).status.ok());
  const auto scratch = cold.build_plan({building, floor, std::nullopt, {}});

  EXPECT_EQ(plan_bytes(incremental.result), plan_bytes(scratch.result));
  EXPECT_EQ(incremental.result.diagnostics.trajectories_kept,
            scratch.result.diagnostics.trajectories_kept);

  // The refresh replayed prior-corpus pair decisions instead of recomputing.
  EXPECT_GT(incremental.cache.pairs_reused, 0u);
  EXPECT_GT(incremental.cache.artifact_hits, 0u);
  EXPECT_EQ(scratch.cache.artifact_hits, 0u);  // first build is all misses
}

TEST(Api, ResubmittedUploadReplacesItsTrajectoryByteForByte) {
  auto videos = tiny_campaign(817);
  ASSERT_GE(videos.size(), 3u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto warm = make_client();
  for (const auto& video : videos) ASSERT_TRUE(warm.submit_video(video).status.ok());
  const auto first = warm.build_plan({building, floor, std::nullopt, {}});

  // The same video id arrives again with different content: the head of
  // the capture, as a retried upload that lost its tail would carry.
  auto& retried = videos[1];
  retried.frames.resize(retried.frames.size() * 2 / 3);
  const double cutoff = retried.frames.back().t;
  auto& samples = retried.imu.samples;
  while (!samples.empty() && samples.back().t > cutoff) samples.pop_back();
  ASSERT_TRUE(warm.submit_video(retried).status.ok());
  warm.drain();

  auto cold = make_client();
  for (const auto& video : videos) ASSERT_TRUE(cold.submit_video(video).status.ok());
  const auto scratch = cold.build_plan({building, floor, std::nullopt, {}});

  // Before the build, the drained re-submission already replaces the built
  // trajectory in the listing.
  const auto points_of = [&](const ap::Client& client) {
    for (const auto& traj : client.trajectories(building, floor)) {
      if (traj.video_id == retried.video_id) return traj.points.size();
    }
    return std::size_t{0};
  };
  EXPECT_GT(points_of(cold), 0u);
  EXPECT_EQ(points_of(warm), points_of(cold));

  const auto second = warm.build_plan({building, floor, std::nullopt, {}});
  EXPECT_EQ(plan_bytes(second.result), plan_bytes(scratch.result));
  EXPECT_EQ(second.result.diagnostics.trajectories_kept,
            scratch.result.diagnostics.trajectories_kept);
  EXPECT_EQ(second.result.diagnostics.trajectories_kept,
            first.result.diagnostics.trajectories_kept);
}

TEST(Api, TrajectoriesListDrainedUploadsBeforeTheirBuild) {
  const auto videos = tiny_campaign(818);
  ASSERT_GE(videos.size(), 4u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  // Half the uploads built into the corpus; the rest, submitted in reverse,
  // drained but not built yet.
  auto client = make_client();
  const std::size_t half = videos.size() / 2;
  for (std::size_t v = 0; v < half; ++v) {
    ASSERT_TRUE(client.submit_video(videos[v]).status.ok());
  }
  const auto first = client.build_plan({building, floor, std::nullopt, {}});
  for (std::size_t v = videos.size(); v-- > half;) {
    ASSERT_TRUE(client.submit_video(videos[v]).status.ok());
  }
  client.drain();

  const auto ids_of = [](const std::vector<crowdmap::trajectory::Trajectory>& trajs) {
    std::vector<int> ids;
    for (const auto& traj : trajs) ids.push_back(traj.video_id);
    return ids;
  };
  const auto listed = ids_of(client.trajectories(building, floor));
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
  EXPECT_EQ(std::adjacent_find(listed.begin(), listed.end()), listed.end());
  EXPECT_GT(listed.size(), first.result.diagnostics.trajectories_kept);

  const auto built = client.build_plan({building, floor, std::nullopt, {}});
  EXPECT_EQ(listed.size(), built.result.diagnostics.trajectories_kept);
  EXPECT_EQ(listed, ids_of(client.trajectories(building, floor)));
}

TEST(Api, RepeatBuildReusesEverythingAndKeepsConfigHoisted) {
  // Regression for the per-build config/state rebuild: a second build over
  // an unchanged corpus must replay every cached stage (the planner keeps
  // the artifact cache and hashed corpus across refreshes) and still return
  // the same bytes.
  const auto videos = tiny_campaign(812);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto client = make_client();
  for (const auto& video : videos) ASSERT_TRUE(client.submit_video(video).status.ok());
  const auto first = client.build_plan({building, floor, std::nullopt, {}});
  const auto second = client.build_plan({building, floor, std::nullopt, {}});

  EXPECT_EQ(plan_bytes(first.result), plan_bytes(second.result));
  EXPECT_EQ(second.cache.pairs_reused, second.cache.pairs_total);
  EXPECT_GT(second.cache.rooms_total, 0u);
  EXPECT_EQ(second.cache.rooms_reused, second.cache.rooms_total);
  EXPECT_TRUE(second.cache.skeleton_reused);
  EXPECT_TRUE(second.cache.arrange_reused);
  EXPECT_EQ(second.cache.artifact_misses, 0u);
}

TEST(Api, PersistedCacheWarmsARestartedBackend) {
  const auto videos = tiny_campaign(813);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto original = make_client();
  for (const auto& video : videos) ASSERT_TRUE(original.submit_video(video).status.ok());
  const auto before = original.build_plan({building, floor, std::nullopt, {}});
  ASSERT_TRUE(original.persist_artifact_cache(building, floor));
  // The snapshot is a reserved system document: floor queries still return
  // only the uploads themselves.
  for (const auto& id :
       original.document_store().ids_for_floor(building, floor)) {
    EXPECT_EQ(id.rfind("video-", 0), 0u) << "snapshot leaked into " << id;
  }

  auto restarted = make_client();
  EXPECT_GT(restarted.warm_artifact_cache_from(original.document_store()), 0u);
  for (const auto& video : videos) ASSERT_TRUE(restarted.submit_video(video).status.ok());
  const auto after = restarted.build_plan({building, floor, std::nullopt, {}});

  EXPECT_EQ(plan_bytes(before.result), plan_bytes(after.result));
  // First build after the restart already replays warmed artifacts.
  EXPECT_GT(after.cache.artifact_hits, 0u);
  EXPECT_EQ(after.cache.pairs_reused, after.cache.pairs_total);
}

TEST(Api, MalformedCacheSnapshotRejectsCleanlyAndFallsBackCold) {
  // Warm-start resilience (docs/DURABILITY.md): truncated or corrupt CMC1
  // snapshot bytes must produce a clean rejection — counted in
  // crowdmap_cache_warmstart_rejected_total — and the restarted backend
  // must fall back to a cold build that still serializes the same plan.
  const auto videos = tiny_campaign(816);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto original = make_client();
  for (const auto& video : videos) ASSERT_TRUE(original.submit_video(video).status.ok());
  const auto before = original.build_plan({building, floor, std::nullopt, {}});
  ASSERT_TRUE(original.persist_artifact_cache(building, floor));

  // A predecessor store whose snapshot bytes were mangled at rest: one
  // truncated mid-entry, one with the CMC1 magic flipped.
  crowdmap::cloud::DocumentStore truncated_store;
  crowdmap::cloud::DocumentStore corrupted_store;
  std::size_t snapshots_seen = 0;
  for (const auto& doc : original.document_store().export_documents()) {
    const auto kind = doc.metadata.find("kind");
    if (kind != doc.metadata.end() && kind->second == "artifact-cache") {
      ++snapshots_seen;
      ASSERT_GT(doc.payload.size(), 8u);
      auto truncated = doc;
      truncated.payload.resize(truncated.payload.size() / 2);
      truncated_store.put(std::move(truncated));
      auto corrupted = doc;
      corrupted.payload[0] ^= 0xFF;
      corrupted_store.put(std::move(corrupted));
    } else {
      truncated_store.put(doc);
      corrupted_store.put(doc);
    }
  }
  ASSERT_EQ(snapshots_seen, 1u);

  auto restarted = make_client();
  EXPECT_EQ(restarted.warm_artifact_cache_from(truncated_store), 0u);
  EXPECT_EQ(restarted.stats().cache_warmstart_rejected, 1u);
  EXPECT_EQ(restarted.warm_artifact_cache_from(corrupted_store), 0u);
  EXPECT_EQ(restarted.stats().cache_warmstart_rejected, 2u);

  // Cold fallback: nothing was warmed, the first build is all misses, and
  // the plan bytes still match the original backend's.
  for (const auto& video : videos) ASSERT_TRUE(restarted.submit_video(video).status.ok());
  const auto after = restarted.build_plan({building, floor, std::nullopt, {}});
  EXPECT_EQ(plan_bytes(before.result), plan_bytes(after.result));
  EXPECT_EQ(after.cache.artifact_hits, 0u);
}

TEST(Api, DisabledCacheStillBuildsIdenticalPlans) {
  auto config = co::PipelineConfig::fast_profile();
  config.incremental.artifact_cache_bytes = 0;  // caching off
  auto uncached = make_client(config);
  auto cached = make_client(co::PipelineConfig::fast_profile());

  const auto videos = tiny_campaign(815);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  for (const auto& video : videos) {
    ASSERT_TRUE(uncached.submit_video(video).status.ok());
    ASSERT_TRUE(cached.submit_video(video).status.ok());
  }
  (void)cached.build_plan({building, floor, std::nullopt, {}});
  const auto warm = cached.build_plan({building, floor, std::nullopt, {}});
  const auto plain = uncached.build_plan({building, floor, std::nullopt, {}});
  (void)uncached.build_plan({building, floor, std::nullopt, {}});

  EXPECT_EQ(plan_bytes(warm.result), plan_bytes(plain.result));
  EXPECT_EQ(uncached.stats().artifact_cache.hits, 0u);
  EXPECT_FALSE(uncached.persist_artifact_cache(building, floor));
}

namespace {

/// The build counts of a diagnostics block (timings excluded).
std::vector<std::size_t> build_counts(const co::PipelineDiagnostics& d) {
  return {d.videos_ingested,     d.trajectories_kept,
          d.trajectories_dropped, d.trajectories_placed,
          d.match_edges,         d.panoramas_attempted,
          d.panoramas_stitched,  d.rooms_reconstructed};
}

/// tiny_campaign() under its own building name, video ids moved by
/// `id_offset` so two buildings' uploads never share an id.
std::vector<cs::SensorRichVideo> named_campaign(std::uint64_t seed,
                                                const std::string& building,
                                                int id_offset) {
  auto videos = tiny_campaign(seed);
  for (auto& video : videos) {
    video.building = building;
    video.video_id += id_offset;
  }
  return videos;
}

}  // namespace

TEST(Api, ConcurrentFloorBuildsReportTheirOwnDiagnostics) {
  // Two floors of one node share its metrics registry. A build's
  // diagnostics must count that build's own work, never the other floor's,
  // even when both floors build at the same time.
  const std::vector<std::vector<cs::SensorRichVideo>> buildings = {
      named_campaign(830, "A", 0), named_campaign(831, "B", 1000)};
  std::vector<std::vector<std::size_t>> solo;
  for (const auto& videos : buildings) {
    auto client = make_client();
    for (const auto& video : videos) {
      ASSERT_TRUE(client.submit_video(video).status.ok());
    }
    solo.push_back(build_counts(
        client.build_plan({videos.front().building, 1, std::nullopt, {}})
            .result.diagnostics));
  }

  auto client = make_client();
  for (const auto& videos : buildings) {
    for (const auto& video : videos) {
      ASSERT_TRUE(client.submit_video(video).status.ok());
    }
  }
  client.drain();
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::vector<std::size_t>> got(buildings.size());
    std::barrier start(static_cast<std::ptrdiff_t>(buildings.size()));
    std::vector<std::thread> builders;
    for (std::size_t b = 0; b < buildings.size(); ++b) {
      builders.emplace_back([&, b] {
        start.arrive_and_wait();
        const std::string& name = buildings[b].front().building;
        got[b] = build_counts(
            client.build_plan({name, 1, std::nullopt, {}}).result.diagnostics);
      });
    }
    for (auto& builder : builders) builder.join();
    for (std::size_t b = 0; b < buildings.size(); ++b) {
      EXPECT_EQ(got[b], solo[b]) << "building " << b << " rep " << rep;
    }
  }
}

TEST(Api, FloorDegradationReportsCountOnlyTheirOwnLosses) {
  // Two buildings on one node. Every upload of B fails to decode: it goes in
  // through submit_upload with no side-table entry and no fallback decoder.
  // B's report counts those losses; A's clean build counts none of them.
  const auto a = named_campaign(833, "A", 0);
  const auto b = named_campaign(834, "B", 1000);
  auto client = make_client();
  for (const auto& video : a) {
    ASSERT_TRUE(client.submit_video(video).status.ok());
  }
  for (const auto& video : b) {
    ap::SubmitUploadRequest request;
    request.upload_id = "video-" + std::to_string(video.video_id);
    request.building = video.building;
    request.floor = video.floor;
    request.payload = crowdmap::sensors::encode_imu(video.imu);
    ASSERT_TRUE(client.submit_upload(request).status.ok());
  }
  const auto built_a =
      client.build_plan({"A", a.front().floor, std::nullopt, {}});
  const auto built_b =
      client.build_plan({"B", b.front().floor, std::nullopt, {}});
  EXPECT_EQ(client.stats().decode_failures, b.size());

  EXPECT_EQ(built_a.degradation.uploads_lost_decode, 0u);
  EXPECT_EQ(built_a.degradation.sensor_dropouts, 0u);
  EXPECT_FALSE(built_a.degradation.degraded())
      << built_a.degradation.to_string();
  EXPECT_EQ(built_b.degradation.uploads_lost_decode, b.size());
  EXPECT_EQ(built_b.result.diagnostics.trajectories_kept, 0u);
}

TEST(Api, RepeatedBuildsCountEachUploadOnce) {
  // Admission is counted once, when an upload joins its floor's corpus —
  // not again by every build that reads the corpus.
  const auto videos = tiny_campaign(832);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  auto client = make_client();
  for (const auto& video : videos) {
    ASSERT_TRUE(client.submit_video(video).status.ok());
  }
  ap::BuildPlanResponse built;
  for (int build = 0; build < 3; ++build) {
    built = client.build_plan({building, floor, std::nullopt, {}});
    ASSERT_TRUE(built.status.ok());
  }
  const crowdmap::obs::Labels node0{{"node", "node-0"}};
  const auto snap = client.metrics();
  const auto count = [&](const char* name) {
    return static_cast<std::size_t>(snap.value(name, node0));
  };
  const auto& d = built.result.diagnostics;
  EXPECT_EQ(count("crowdmap_videos_ingested_total"), videos.size());
  EXPECT_EQ(count("crowdmap_trajectories_kept_total"), d.trajectories_kept);
  EXPECT_EQ(count("crowdmap_trajectories_dropped_total"),
            d.trajectories_dropped);
  EXPECT_EQ(d.videos_ingested, videos.size());
  EXPECT_EQ(d.trajectories_kept + d.trajectories_dropped, videos.size());
}
