// The client/cloud path end to end: simulated phones zip their sensor-rich
// recordings, split them into 5 MB-style chunks and push them through the
// ingestion service (out of order, with one corrupted upload); completed
// uploads land in the document store and feed the floor planner.
//
//   $ ./build/examples/cloud_service
#include <cstring>
#include <iostream>

#include "cloud/chunking.hpp"
#include "cloud/docstore.hpp"
#include "cloud/ingest.hpp"
#include "core/incremental.hpp"
#include "eval/harness.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"

namespace {

using namespace crowdmap;

/// Minimal wire format for the demo: the IMU stream as raw doubles. (The
/// real system would serialize frames too; for this demo the backend keeps
/// the decoded video in a side table, as a production system would keep it
/// in blob storage.)
cloud::Blob serialize_imu(const sensors::ImuStream& imu) {
  cloud::Blob blob(imu.samples.size() * sizeof(sensors::ImuSample));
  std::memcpy(blob.data(), imu.samples.data(), blob.size());
  return blob;
}

}  // namespace

int main() {
  const auto spec = sim::lab1();

  // --- Mobile front-end side: record a small campaign.
  sim::CampaignOptions options;
  options.users = 4;
  options.room_videos_per_room = 1;
  options.hallway_walks = 10;
  options.sim.fps = 3.0;
  std::cout << "Recording campaign...\n";
  const auto campaign = sim::generate_campaign(spec, options, 0xC10D);

  // --- Cloud side: ingestion into the document store.
  cloud::DocumentStore store;
  std::size_t completed = 0;
  cloud::IngestService ingest(store, [&completed](const cloud::Document&) {
    ++completed;
  });

  core::IncrementalPlanner planner(core::PipelineConfig::fast_profile());
  common::Rng rng(0xC10D);
  std::size_t corrupted = 0;
  for (std::size_t v = 0; v < campaign.videos.size(); ++v) {
    const auto& video = campaign.videos[v];
    const std::string upload_id = "upload-" + std::to_string(v);
    ingest.open_session(upload_id, video.building, video.floor);

    auto chunks = cloud::split_into_chunks(serialize_imu(video.imu), upload_id,
                                           64 * 1024);
    // Simulate network reordering.
    for (std::size_t i = 0; i + 1 < chunks.size(); i += 2) {
      std::swap(chunks[i], chunks[i + 1]);
    }
    // One upload arrives corrupted and must be rejected.
    const bool corrupt_this = (v == 3);
    if (corrupt_this && !chunks.empty() && !chunks[0].payload.empty()) {
      chunks[0].payload[0] ^= 0xFF;
      ++corrupted;
    }
    bool ok = true;
    for (const auto& chunk : chunks) {
      if (ingest.deliver(chunk) == cloud::IngestStatus::kRejected) {
        ok = false;
        break;
      }
    }
    // Accepted uploads are extracted and admitted to the floor's planner.
    if (ok) {
      (void)planner.ingest(trajectory::extract_trajectory(
          video, planner.config().extraction));
    }
  }

  const auto stats = ingest.stats();
  std::cout << "Ingest: " << stats.uploads_completed << " uploads completed, "
            << stats.uploads_rejected << " rejected (" << corrupted
            << " corrupted in transit), "
            << stats.bytes_received / 1024 << " KiB received\n";
  std::cout << "Document store: " << store.size() << " datasets, "
            << store.total_bytes() / 1024 << " KiB, "
            << store.ids_for_floor(spec.name, 1).size() << " for " << spec.name
            << " floor 1\n";

  // --- Reconstruction over everything that survived ingestion.
  const auto result = planner.refresh();
  std::cout << "Pipeline: placed " << result.diagnostics.trajectories_placed
            << "/" << result.diagnostics.trajectories_kept << " trajectories, "
            << result.rooms.size() << " rooms reconstructed, hallway skeleton "
            << crowdmap::eval::fmt(result.skeleton.area(), 0) << " m^2\n";
  return 0;
}
