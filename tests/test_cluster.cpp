// Tests for the cluster router behind api::Client — hash-ring routing, the
// CMWL-framed shard replication log, and the determinism contract the whole
// design exists for: serialized FloorPlans are byte-identical across node
// counts and failure schedules (crash, partition, duplicate delivery), at
// any parallel.threads (docs/CLUSTER.md).
// Every node shares the client's one worker pool through its own task group,
// so one node's backlog is its own (Cluster.RealBacklogShedsOnlyTheLoadedNode).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/v2.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "floorplan/serialize.hpp"
#include "sensors/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace ap = crowdmap::api;
namespace cl = crowdmap::cluster;
namespace cc = crowdmap::common;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;
namespace cd = crowdmap::cloud;
namespace fp = crowdmap::floorplan;

namespace {

/// Seed for the chaos schedules: the CI chaos matrix overrides it via
/// CROWDMAP_FAULT_SEED so the same binary covers several timelines — the
/// byte-identity assertions must hold for every seed.
std::string chaos_seed() {
  std::uint64_t seed = 0;
  if (cc::env_fault_seed(seed)) return std::to_string(seed);
  return "42";
}

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

ap::ClientOptions make_options(std::size_t nodes, std::size_t threads,
                               const cc::FaultPlan& faults = {}) {
  ap::ClientOptions options;
  options.config = co::PipelineConfig::fast_profile();
  options.config.cluster.nodes = nodes;
  options.config.faults = faults;
  options.config.parallel.threads = threads;
  return options;
}

std::string plan_bytes(const co::PipelineResult& result) {
  const auto bytes = fp::encode_floorplan(result.plan);
  return std::string(bytes.begin(), bytes.end());
}

std::string build(ap::Client& client, const cs::SensorRichVideo& video) {
  return plan_bytes(
      client.build_plan({video.building, video.floor, std::nullopt, {}})
          .result);
}

std::string run_campaign(const std::vector<cs::SensorRichVideo>& videos,
                         ap::Client& client) {
  for (const auto& video : videos) {
    const auto response = client.submit_video(video);
    EXPECT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_GT(response.seqno, 0u);
  }
  return build(client, videos.front());
}

/// On divergence, keep both serialized plans so CI uploads them as
/// artifacts (the chaos job's debugging trail).
void dump_divergence(const std::string& label, const std::string& reference,
                     const std::string& actual) {
  const std::filesystem::path dir = "cluster_divergence";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / (label + ".reference.cmplan"), std::ios::binary)
      << reference;
  std::ofstream(dir / (label + ".actual.cmplan"), std::ios::binary) << actual;
}

cd::Document sample_doc(const std::string& id, int floor) {
  cd::Document doc;
  doc.id = id;
  doc.building = "lab";
  doc.floor = floor;
  doc.metadata["kind"] = "upload";
  doc.metadata["codec"] = "imu-v1";
  doc.payload = {0x01, 0x02, 0x03, 0xFF, 0x00, 0x42};
  return doc;
}

}  // namespace

// ---------------------------------------------------------- hash ring ---

TEST(HashRing, PreferenceListsAreDistinctAndClampedToMembership) {
  cl::HashRing ring({0, 1, 2});
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto pref = ring.preference(cc::hash_u64(key), 3);
    ASSERT_EQ(pref.size(), 3u);
    EXPECT_EQ(std::set<std::size_t>(pref.begin(), pref.end()).size(), 3u);
  }
  EXPECT_EQ(ring.preference(7, 8).size(), 3u) << "clamped to member count";
  EXPECT_TRUE(cl::HashRing(std::vector<std::size_t>{}).preference(7, 2).empty());
}

TEST(HashRing, SurvivingNodesKeepTheirTokensAcrossRebuilds) {
  // Consistent hashing's point: adding a member re-homes only the keys the
  // new member takes over; every other key keeps its primary.
  cl::HashRing before({0, 1, 2});
  cl::HashRing after({0, 1, 2, 3});
  std::size_t moved = 0;
  constexpr std::size_t kKeys = 256;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const auto old_primary = before.preference(cc::hash_u64(key), 1).front();
    const auto new_primary = after.preference(cc::hash_u64(key), 1).front();
    if (new_primary != old_primary) {
      EXPECT_EQ(new_primary, 3u)
          << "a key moved to a node that was present before the join";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys / 2) << "join re-homed a majority of keys";
}

// --------------------------------------------------- replication codec ---

TEST(ReplicationRecord, CodecRoundTripsDocuments) {
  const auto doc = sample_doc("video-42", 3);
  const auto decoded = cl::decode_record(cl::encode_record(doc));
  EXPECT_EQ(decoded.id, doc.id);
  EXPECT_EQ(decoded.building, doc.building);
  EXPECT_EQ(decoded.floor, doc.floor);
  EXPECT_EQ(decoded.metadata, doc.metadata);
  EXPECT_EQ(decoded.payload, doc.payload);
}

TEST(ReplicationRecord, DecodeRejectsForeignBytes) {
  auto bytes = cl::encode_record(sample_doc("video-1", 1));
  bytes[0] ^= 0xFF;  // break the CMRR magic
  EXPECT_THROW((void)cl::decode_record(bytes), crowdmap::io::DecodeError);
}

TEST(ReplicationLog, AppendsKeepDenseSeqnosAndRecordBytes) {
  cl::ReplicationLog log;
  EXPECT_EQ(log.head(), 0u);
  std::vector<crowdmap::io::Bytes> appended;
  for (int i = 0; i < 3; ++i) {
    appended.push_back(cl::encode_record(sample_doc("v" + std::to_string(i), i)));
    EXPECT_EQ(log.append(appended.back()), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(log.head(), 3u);
  for (std::uint64_t seqno = 1; seqno <= log.head(); ++seqno) {
    EXPECT_EQ(log.record(seqno), appended[seqno - 1]) << "seqno " << seqno;
  }
  EXPECT_EQ(cl::decode_record(log.record(2)).id, "v1");
}

// ------------------------------------------------ determinism contract ---

TEST(ClusterDeterminism, PlansAreByteIdenticalAcrossNodesFaultsAndWorkers) {
  const auto videos = tiny_campaign(910);
  ASSERT_GE(videos.size(), 3u);

  // Reference: one node, no faults.
  std::string reference;
  {
    ap::Client client(make_options(1, 2));
    reference = run_campaign(videos, client);
  }
  ASSERT_FALSE(reference.empty());

  const std::vector<std::pair<std::string, std::string>> schedules = {
      {"crash", "cluster.node_crash=0.3"},
      {"partition", "cluster.partition=0.4"},
      {"duplicate", "cluster.replication_duplicate=0.6"},
  };
  for (const std::size_t nodes : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    for (const auto& [name, spec] : schedules) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        auto plan = cc::parse_fault_plan(chaos_seed() + ":" + spec);
        ASSERT_TRUE(plan.ok());
        ap::Client client(make_options(nodes, threads, plan.value()));
        const std::string actual = run_campaign(videos, client);
        const std::string label = name + "-n" + std::to_string(nodes) + "-w" +
                                  std::to_string(threads);
        if (actual != reference) dump_divergence(label, reference, actual);
        ASSERT_EQ(actual, reference)
            << label << ": plan bytes diverged from the single-node "
            << "no-fault reference (artifacts in cluster_divergence/)";
      }
    }
  }
}

TEST(ClusterDeterminism, InjectedFaultsActuallyFire) {
  // Guard against a vacuous matrix: under the same seeds the schedules use,
  // crashes and duplicate deliveries must actually happen.
  const auto videos = tiny_campaign(910);
  {
    auto plan = cc::parse_fault_plan(chaos_seed() + ":cluster.node_crash=0.3");
    ASSERT_TRUE(plan.ok());
    ap::Client client(make_options(3, 1, plan.value()));
    (void)run_campaign(videos, client);
    EXPECT_GT(client.metrics().value("crowdmap_cluster_node_crashes_total"),
              0.0);
  }
  {
    auto plan = cc::parse_fault_plan(chaos_seed() + ":cluster.replication_duplicate=0.6");
    ASSERT_TRUE(plan.ok());
    ap::Client client(make_options(3, 1, plan.value()));
    (void)run_campaign(videos, client);
    EXPECT_GT(
        client.metrics().value("crowdmap_cluster_replication_duplicates_total"),
        0.0);
  }
}

TEST(ClusterDeterminism, DelayedReplicationConvergesOnDrain) {
  const auto videos = tiny_campaign(911);
  auto plan = cc::parse_fault_plan(chaos_seed() + ":cluster.replication_delay=1.0");
  ASSERT_TRUE(plan.ok());
  auto options = make_options(3, 1, plan.value());
  options.config.cluster.replication_factor = 3;
  ap::Client client(std::move(options));

  const std::string reference = [&] {
    ap::Client single(make_options(1, 2));
    return run_campaign(videos, single);
  }();
  EXPECT_EQ(run_campaign(videos, client), reference);
  EXPECT_GT(client.metrics().value(
                "crowdmap_cluster_replication_delayed_total"),
            0.0);

  // After drain, every parked delivery has landed: all three replicas hold
  // the full committed upload set.
  client.drain();
  const auto view =
      client.shard_of(videos.front().building, videos.front().floor);
  ASSERT_EQ(view.replicas.size(), 3u);
  for (const std::size_t node : view.replicas) {
    for (const auto& video : videos) {
      EXPECT_TRUE(client.document_store(node)
                      .get("video-" + std::to_string(video.video_id))
                      .has_value())
          << "node " << node << " missing a committed upload after drain";
    }
  }
}

// --------------------------------------------------- routing semantics ---

TEST(Cluster, DirectSubmitToANonPrimaryIsRefusedAsWrongShard) {
  const auto videos = tiny_campaign(912);
  ap::Client client(make_options(3, 1));
  const auto& video = videos.front();
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
  EXPECT_EQ(refused.node, view.primary) << "response names the right node";
  EXPECT_EQ(client.metrics().value("crowdmap_cluster_wrong_shard_total"),
            1.0);

  const auto accepted = client.submit_upload_to(view.primary, request);
  EXPECT_TRUE(accepted.status.ok());
  EXPECT_EQ(accepted.seqno, 1u) << "the refusal committed nothing";
}

TEST(Cluster, OverloadedPrimaryShedsUploads) {
  // One node on a one-worker pool, and a decoder whose first call blocks:
  // later uploads queue behind it until the primary's backlog exceeds
  // max_node_queue and the next upload is shed before it reaches the log.
  std::promise<void> entered;
  std::promise<void> release;
  std::atomic<bool> first{true};
  auto options = make_options(1, 1);
  options.config.cluster.max_node_queue = 1;
  // submit_upload() registers nothing, so every decode lands here.
  options.decoder = [&entered, &first, gate = release.get_future().share()](
                        const cd::Document&)
      -> std::optional<cs::SensorRichVideo> {
    if (first.exchange(false)) {
      entered.set_value();
      gate.wait();
    }
    return std::nullopt;
  };
  ap::Client client(std::move(options));

  int uploads = 0;
  const auto submit = [&] {
    ap::SubmitUploadRequest request;
    request.upload_id = "upload-" + std::to_string(uploads++);
    request.building = "bldg";
    request.payload = cd::Blob(64, 0x5A);
    return client.submit_upload(request);
  };

  ASSERT_TRUE(submit().status.ok());
  entered.get_future().wait();  // the first upload holds the one worker
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(submit().status.ok());

  // Two queued tasks exceed max_node_queue = 1.
  const auto shed = submit();
  EXPECT_EQ(shed.status.code, ap::StatusCode::kShedding);
  EXPECT_FALSE(shed.status.message.empty());
  EXPECT_EQ(shed.node, 0u) << "the response names the loaded primary";
  EXPECT_EQ(shed.seqno, 0u) << "a shed upload must not reach the shard log";
  EXPECT_EQ(client.metrics().value("crowdmap_cluster_sheds_total"), 1.0);

  release.set_value();
  client.drain();
  // The shard log holds the three accepted uploads and not the shed one, so
  // the next accepted upload commits as the fourth record.
  const auto next = submit();
  ASSERT_TRUE(next.status.ok());
  EXPECT_EQ(next.seqno, 4u);
}

TEST(Cluster, RealBacklogShedsOnlyTheLoadedNode) {
  // Two nodes on a one-worker pool, and a decoder whose first call blocks:
  // every later upload stays queued in its primary's task group. Each node's
  // gauge counts only its own queue, so backpressure sheds on the loaded node
  // while the other still accepts.
  std::promise<void> entered;
  std::promise<void> release;
  std::atomic<bool> first{true};
  auto options = make_options(2, 1);
  options.config.cluster.replication_factor = 1;
  options.config.cluster.max_node_queue = 2;
  // submit_upload() registers nothing, so every decode lands here.
  options.decoder = [&entered, &first, gate = release.get_future().share()](
                        const cd::Document&)
      -> std::optional<cs::SensorRichVideo> {
    if (first.exchange(false)) {
      entered.set_value();
      gate.wait();
    }
    return std::nullopt;
  };
  ap::Client client(std::move(options));

  std::string building_on[2];
  for (int i = 0; building_on[0].empty() || building_on[1].empty(); ++i) {
    const std::string building = "bldg-" + std::to_string(i);
    std::string& slot = building_on[client.shard_of(building, 1).primary];
    if (slot.empty()) slot = building;
  }
  int uploads = 0;
  const auto submit = [&](std::size_t node) {
    ap::SubmitUploadRequest request;
    request.upload_id = "upload-" + std::to_string(uploads++);
    request.building = building_on[node];
    request.payload = cd::Blob(64, 0x5A);
    return client.submit_upload(request).status.code;
  };
  const auto depth = [&](std::size_t node) {
    return client.metrics().value("crowdmap_worker_queue_depth",
                                  {{"node", client.node_name(node)}});
  };

  ASSERT_EQ(submit(0), ap::StatusCode::kOk);
  entered.get_future().wait();  // node 0's first upload holds the one worker
  for (int i = 0; i < 3; ++i) ASSERT_EQ(submit(0), ap::StatusCode::kOk);
  for (int i = 0; i < 2; ++i) ASSERT_EQ(submit(1), ap::StatusCode::kOk);
  EXPECT_EQ(depth(0), 3.0);
  EXPECT_EQ(depth(1), 2.0);

  // max_node_queue = 2 sits just below node 0's depth and at node 1's.
  EXPECT_EQ(submit(0), ap::StatusCode::kShedding);
  EXPECT_EQ(submit(1), ap::StatusCode::kOk);
  EXPECT_EQ(depth(0), 3.0);
  EXPECT_EQ(depth(1), 3.0);
  EXPECT_EQ(client.metrics().value("crowdmap_cluster_sheds_total"), 1.0);

  release.set_value();
  client.drain();
  EXPECT_EQ(depth(0), 0.0);
  EXPECT_EQ(depth(1), 0.0);
  EXPECT_EQ(client.stats().decode_failures, 7u);
}

TEST(Cluster, ExpiredDeadlinesAreRejectedAtAdmission) {
  const auto videos = tiny_campaign(914);
  const auto& video = videos.front();
  ap::Client client(make_options(1, 1));
  ap::SubmitUploadRequest request;
  request.building = video.building;
  request.floor = video.floor;
  request.payload = crowdmap::sensors::encode_imu(video.imu);

  // A generous deadline admits; each routed request advances the clock.
  request.upload_id = "video-early";
  request.options.deadline_tick = 100;
  EXPECT_TRUE(client.submit_upload(request).status.ok());
  ASSERT_GE(client.now_tick(), 1u);

  request.upload_id = "video-late";
  request.options.deadline_tick = 1;
  const auto late = client.submit_upload(request);
  EXPECT_EQ(late.status.code, ap::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.seqno, 0u);

  // The late upload was never committed: the next accepted upload is the
  // shard log's second record.
  request.upload_id = "video-next";
  request.options.deadline_tick = 0;
  const auto next = client.submit_upload(request);
  ASSERT_TRUE(next.status.ok());
  EXPECT_EQ(next.seqno, 2u);
}

// ------------------------------------------------------- membership ---

TEST(Cluster, MembershipChangesRebalanceAndPreservePlanBytes) {
  const auto videos = tiny_campaign(915);
  ASSERT_GE(videos.size(), 4u);
  const std::string reference = [&] {
    ap::Client single(make_options(1, 2));
    return run_campaign(videos, single);
  }();

  ap::Client client(make_options(1, 2));
  const std::size_t half = videos.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(client.submit_video(videos[i]).status.ok());
  }

  // Join: re-homed shards are eagerly resynced (RF=2 over 2 nodes means the
  // new node must receive every committed record).
  const std::size_t joined = client.add_node();
  EXPECT_EQ(client.nodes(), 2u);
  EXPECT_GT(client.metrics().value("crowdmap_cluster_rebalance_moves_total"),
            0.0);
  for (std::size_t i = half; i < videos.size(); ++i) {
    ASSERT_TRUE(client.submit_video(videos[i]).status.ok());
  }

  // Leave: the survivor resyncs anything it did not own and serves alone.
  ASSERT_TRUE(client.remove_node(0));
  EXPECT_FALSE(client.remove_node(joined)) << "refuses to empty the ring";
  EXPECT_EQ(client.nodes(), 1u);
  EXPECT_EQ(build(client, videos.front()), reference);
}

TEST(Cluster, CommittedRecordsReachEveryReplicaStore) {
  // Seqnos are dense, and every committed record ships to the replica and
  // replays through its front door: both nodes of the shard end up holding
  // each upload's document byte for byte.
  const auto videos = tiny_campaign(916);
  ap::Client client(make_options(2, 1));
  std::uint64_t seqno = 0;
  for (const auto& video : videos) {
    const auto response = client.submit_video(video);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.seqno, ++seqno);
  }
  client.drain();

  const auto& front = videos.front();
  const auto view = client.shard_of(front.building, front.floor);
  ASSERT_EQ(view.replicas.size(), 2u);
  for (const std::size_t node : view.replicas) {
    for (const auto& video : videos) {
      const auto doc = client.document_store(node).get(
          "video-" + std::to_string(video.video_id));
      ASSERT_TRUE(doc.has_value()) << "node " << node;
      EXPECT_EQ(doc->building, video.building);
      EXPECT_EQ(doc->floor, video.floor);
      EXPECT_EQ(doc->payload, crowdmap::sensors::encode_imu(video.imu));
    }
  }
}
