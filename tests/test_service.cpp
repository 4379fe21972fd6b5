// Tests for the assembled cloud backend through the api::Client facade:
// chunked uploads through ingestion, async extraction on the worker pool,
// per-floor incremental plan builds. A bare service counts each refused
// chunk delivery once, and SharedPool drives two bare services on one pool
// through the cluster's node-crash teardown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "api/v2.hpp"
#include "cloud/chunking.hpp"
#include "cloud/service.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace ap = crowdmap::api;
namespace cl = crowdmap::cloud;
namespace cs = crowdmap::sim;
namespace co = crowdmap::core;
namespace cc = crowdmap::common;

namespace {

ap::Client make_client(std::size_t workers = 2) {
  ap::ClientOptions options;
  options.config = co::PipelineConfig::fast_profile();
  options.config.parallel.threads = workers;
  return ap::Client(std::move(options));
}

std::vector<cs::SensorRichVideo> small_campaign(std::uint64_t seed) {
  std::vector<cs::SensorRichVideo> out;
  cc::Rng rng(seed);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 5;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  cs::generate_campaign_streaming(spec, options, seed,
                                  [&out](cs::SensorRichVideo&& video) {
                                    out.push_back(std::move(video));
                                  });
  return out;
}

}  // namespace

TEST(Service, EndToEndUploadsBuildPlan) {
  auto client = make_client();
  const auto videos = small_campaign(701);
  for (const auto& video : videos) {
    const auto response = client.submit_video(video);
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.chunks_rejected, 0u);
  }
  client.drain();
  const auto stats = client.stats();
  EXPECT_EQ(stats.uploads_completed, videos.size());
  EXPECT_EQ(stats.videos_decoded, videos.size());
  EXPECT_GT(stats.trajectories_extracted, 0u);

  const auto response = client.build_plan(
      {videos.front().building, videos.front().floor, std::nullopt, {}});
  EXPECT_GT(response.result.diagnostics.trajectories_kept, 0u);
  EXPECT_GT(response.result.skeleton.raster.count_set(), 0u);
}

TEST(Service, StatsMatchMetricsRegistry) {
  auto client = make_client();
  const auto videos = small_campaign(702);
  for (const auto& video : videos) (void)client.submit_video(video);
  client.drain();

  // stats() is a view over the registry, so the two must agree exactly.
  // metrics() labels every node series with its node name. Decodes and kept
  // extractions are the planners' admission series.
  const crowdmap::obs::Labels node0{{"node", "node-0"}};
  const auto stats = client.stats();
  const auto snap = client.metrics();
  const auto count = [&](const char* name) {
    return static_cast<std::size_t>(snap.value(name, node0));
  };
  EXPECT_EQ(stats.uploads_completed, count("crowdmap_uploads_completed_total"));
  EXPECT_EQ(stats.uploads_rejected,
            count("crowdmap_ingest_uploads_rejected_total") +
                count("crowdmap_ingest_chunks_rejected_total"));
  EXPECT_EQ(stats.videos_decoded, count("crowdmap_videos_ingested_total"));
  EXPECT_EQ(stats.videos_decoded, videos.size());
  EXPECT_EQ(stats.decode_failures, count("crowdmap_decode_failures_total"));
  EXPECT_EQ(stats.trajectories_extracted,
            count("crowdmap_trajectories_kept_total"));
  EXPECT_EQ(stats.trajectories_dropped,
            count("crowdmap_trajectories_dropped_total"));
  EXPECT_EQ(stats.trajectories_extracted + stats.trajectories_dropped,
            stats.videos_decoded);
  EXPECT_FALSE(snap.has("crowdmap_videos_decoded_total", node0));
  EXPECT_FALSE(snap.has("crowdmap_trajectories_extracted_total", node0));

  // The extraction histogram saw one observation per decoded video, and the
  // drained pool leaves the queue-depth gauge at zero.
  const auto* extract = snap.find("crowdmap_extract_seconds");
  ASSERT_NE(extract, nullptr);
  ASSERT_EQ(extract->series.size(), 1u);
  EXPECT_EQ(extract->series[0].histogram.count, stats.videos_decoded);
  EXPECT_DOUBLE_EQ(snap.value("crowdmap_worker_queue_depth", node0), 0.0);
}

TEST(Service, RefusedDeliveriesAreCountedOnceByIngest) {
  // One checksum-damaged chunk and one chunk for a session never opened:
  // each refusal lands in exactly one ingest family, and the service's
  // total is their sum, not a series of its own.
  cc::ThreadPool pool(1);
  auto registry = std::make_shared<crowdmap::obs::MetricsRegistry>();
  cl::CrowdMapService service(co::PipelineConfig::fast_profile(), {}, pool,
                              registry);
  service.open_session("up-1", "Lab1", 1);
  auto damaged = cl::split_into_chunks(cl::Blob(300, 7), "up-1", 100)[0];
  damaged.payload[0] ^= 0xFF;
  EXPECT_EQ(service.deliver(damaged), cl::IngestStatus::kRejected);
  auto unknown = cl::split_into_chunks(cl::Blob(50, 9), "ghost", 100)[0];
  EXPECT_EQ(service.deliver(unknown), cl::IngestStatus::kRejected);

  const auto stats = service.stats();
  EXPECT_EQ(stats.uploads_rejected, 2u);
  EXPECT_EQ(stats.uploads_rejected,
            stats.ingest.uploads_rejected + stats.ingest.chunks_rejected);
  for (const auto& family : registry->snapshot().families) {
    if (family.name.find("uploads_rejected") == std::string::npos) continue;
    EXPECT_EQ(family.name, "crowdmap_ingest_uploads_rejected_total");
  }
}

TEST(Service, ArtifactCacheCountersSurfaceInStatsAndMetrics) {
  auto client = make_client();
  const auto videos = small_campaign(705);
  for (const auto& video : videos) (void)client.submit_video(video);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  (void)client.build_plan({building, floor, std::nullopt, {}});
  const auto warm = client.build_plan({building, floor, std::nullopt, {}});

  // The repeat build replayed artifacts; the service-level view agrees with
  // the per-build reuse report and with the exported counters.
  EXPECT_GT(warm.cache.artifact_hits, 0u);
  const auto stats = client.stats();
  EXPECT_GE(stats.artifact_cache.hits, warm.cache.artifact_hits);
  const auto snap = client.metrics();
  EXPECT_GE(snap.value("crowdmap_artifact_cache_hits_total",
                       {{"node", "node-0"}}),
            static_cast<double>(warm.cache.artifact_hits));
}

TEST(Service, DecodeFailureCounted) {
  auto client = make_client(1);  // nothing registered: every decode fails
  ap::SubmitUploadRequest request;
  request.upload_id = "ghost";
  request.building = "Lab1";
  request.floor = 1;
  request.payload = cl::Blob(64, 7);
  const auto response = client.submit_upload(request);
  EXPECT_TRUE(response.status.ok());
  client.drain();
  const auto stats = client.stats();
  EXPECT_EQ(stats.uploads_completed, 1u);
  EXPECT_EQ(stats.decode_failures, 1u);
  EXPECT_EQ(stats.trajectories_extracted, 0u);
}

TEST(Service, UnknownFloorBuildsEmptyPlan) {
  auto client = make_client(1);
  const auto response = client.build_plan({"Nowhere", 9, std::nullopt, {}});
  EXPECT_EQ(response.result.diagnostics.trajectories_kept, 0u);
}

TEST(Service, ConcurrentSubmissionFromManyClients) {
  auto client = make_client();
  const auto videos = small_campaign(703);
  std::vector<std::thread> clients;
  clients.reserve(videos.size());
  for (const auto& video : videos) {
    clients.emplace_back([&client, &video] {
      const auto response = client.submit_video(video);
      EXPECT_TRUE(response.status.ok());
    });
  }
  for (auto& t : clients) t.join();
  client.drain();
  EXPECT_EQ(client.stats().uploads_completed, videos.size());
  EXPECT_EQ(client.document_store().size(), videos.size());
}

TEST(SharedPool, TornDownServiceDropsItsQueueAndSparesItsNeighbour) {
  // A crashed cluster node in miniature: services A and B share a one-worker
  // pool. A's first extraction blocks in its decoder with two more queued
  // behind it, and B has one queued behind those. Tearing A down must wait
  // for the running extraction, which still reaches A's planners once
  // released, drop A's queued work, and leave B's intact.
  const auto videos = small_campaign(706);
  ASSERT_GE(videos.size(), 4u);
  const std::map<std::string, std::size_t> index{
      {"a0", 0}, {"a1", 1}, {"a2", 2}, {"b0", 3}};
  const std::string building = videos[0].building;
  const int floor = videos[0].floor;
  const auto document = [&](const std::string& id) {
    cl::Document doc;
    doc.id = id;
    doc.building = building;
    doc.floor = floor;
    doc.payload = cl::Blob(64, 1);
    return doc;
  };
  const auto config = co::PipelineConfig::fast_profile();
  cc::ThreadPool pool(1);

  std::promise<void> entered;
  std::promise<void> release;
  std::atomic<int> a_decodes{0};
  auto registry_a = std::make_shared<crowdmap::obs::MetricsRegistry>();
  auto a = std::make_unique<cl::CrowdMapService>(
      config,
      [&, gate = release.get_future().share()](const cl::Document& doc)
          -> std::optional<cs::SensorRichVideo> {
        if (a_decodes.fetch_add(1) == 0) {
          entered.set_value();
          gate.wait();
        }
        return videos[index.at(doc.id)];
      },
      pool, registry_a);
  cl::CrowdMapService b(
      config,
      [&](const cl::Document& doc) -> std::optional<cs::SensorRichVideo> {
        return videos[index.at(doc.id)];
      },
      pool);

  // A's planner for the floor exists before the teardown, so a task that
  // outlived the planners would touch freed memory.
  (void)a->build_floor_plan(building, floor);
  a->ingest_document(document("a0"));
  entered.get_future().wait();
  a->ingest_document(document("a1"));
  a->ingest_document(document("a2"));
  b.ingest_document(document("b0"));
  EXPECT_EQ(registry_a->gauge("crowdmap_worker_queue_depth", {},
                              "Extraction tasks waiting in the pool")
                .value(),
            2.0);

  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    a.reset();
    destroyed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(destroyed.load()) << "A was torn down under a running task";
  release.set_value();
  destroyer.join();
  EXPECT_EQ(a_decodes.load(), 1);
  // The dropped queue is reported, so the node's surviving gauge reads empty.
  EXPECT_EQ(registry_a->gauge("crowdmap_worker_queue_depth", {},
                              "Extraction tasks waiting in the pool")
                .value(),
            0.0);

  b.drain();
  const auto stats = b.stats();
  EXPECT_EQ(stats.videos_decoded, 1u);
  EXPECT_EQ(stats.trajectories_extracted + stats.trajectories_dropped, 1u);
}
