// crowdmap::api::v2 — the cluster-aware facade (docs/API.md, docs/CLUSTER.md).
//
// v2 is the only version and the inline one: `api::Client` resolves here,
// `api::v2::Client` pins it. The client fronts a crowdmap::cluster::Cluster
// — N in-process nodes behind a consistent-hash router; with
// config.cluster.nodes == 1 (the default) its plans are byte-identical to a
// bare cloud::CrowdMapService's over the same campaign.
//
//  - Responses carry a structured api::Status: kRejectedChunks /
//    kWrongShard / kShedding / kDeadlineExceeded / kStorageUnavailable,
//    each caller-actionable.
//  - Requests take RequestOptions with a request-scoped deadline (a logical
//    router tick bound, deterministic like everything else).
//  - There is no accessor to a node's raw CrowdMapService. Capabilities the
//    facade models are first-class (document_store(), shard_of(),
//    node_stats(), ...); anything else is a missing feature, not a reason to
//    reach inside.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "cluster/cluster.hpp"
#include "common/annotations.hpp"
#include "core/result.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace crowdmap::api {
inline namespace v2 {

/// Client construction options. Defaults give a self-contained single-node
/// in-process backend; config.cluster.* sizes the topology and
/// config.parallel.threads the one worker pool every node shares.
struct ClientOptions {
  core::PipelineConfig config;
  /// Fallback decoder for payloads submit_video() did not register (a
  /// deployment's real codec). Shared cluster-wide so any replica can
  /// extract a replicated upload.
  cloud::VideoDecoder decoder;
  /// Wire chunk size for submit_upload/submit_video payload chunking.
  std::size_t chunk_bytes = 4096;
  /// Filesystem per-node durable stores write through (borrowed, must
  /// outlive the client); null uses the real posix env. Only consulted when
  /// config.storage.dir is non-empty (node i gets "<dir>/node-<i>").
  storage::Env* storage_env = nullptr;
};

/// Per-request knobs, shared by submit and build requests.
struct RequestOptions {
  /// Absolute router-tick deadline (Client::now_tick() frame); 0 = none.
  /// Checked at admission: a request arriving after its deadline fails
  /// with kDeadlineExceeded before touching any node.
  std::uint64_t deadline_tick = 0;
};

/// One chunked upload through a shard's ingestion front door.
struct SubmitUploadRequest {
  std::string upload_id;
  std::string building;
  int floor = 1;
  cloud::Blob payload;
  RequestOptions options;
};

struct SubmitUploadResponse {
  /// kOk when every chunk was accepted, the upload reassembled and its
  /// record committed to the shard log.
  Status status;
  std::size_t chunks_sent = 0;
  std::size_t chunks_rejected = 0;
  /// Acting primary the upload was routed to (valid for every status).
  std::size_t node = 0;
  /// Shard-log seqno of the committed record (0 when nothing committed).
  std::uint64_t seqno = 0;
};

/// Builds (or incrementally refreshes) one floor's plan on its shard.
struct BuildPlanRequest {
  std::string building;
  int floor = 1;
  /// Optional output frame (evaluation: align onto ground truth).
  std::optional<core::WorldFrame> frame;
  RequestOptions options;
};

struct BuildPlanResponse {
  Status status;
  /// Valid only when status.ok().
  core::PipelineResult result;
  /// == result.degradation, surfaced so callers need not dig.
  core::DegradationReport degradation;
  /// How much of the refresh replayed from the artifact cache.
  core::CacheReuseStats cache;
  /// Cluster-wide merged metrics snapshot after the build.
  obs::MetricsSnapshot metrics;
  /// Node the plan was built on.
  std::size_t node = 0;
};

/// The versioned entry point. Thread-safe; one instance per backend.
class Client {
 public:
  explicit Client(ClientOptions options = {});

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Submits one pre-encoded upload payload in chunks through its shard's
  /// ingestion front door; the reassembled record is committed to the shard
  /// log and replicated before the response comes back.
  SubmitUploadResponse submit_upload(const SubmitUploadRequest& request);

  /// Direct-to-node submission (a client with stale routing): fails with
  /// kWrongShard unless `node` is the shard's acting primary.
  SubmitUploadResponse submit_upload_to(std::size_t node,
                                        const SubmitUploadRequest& request);

  /// Convenience for simulation/evaluation: registers the video with the
  /// cluster-wide side-table decoder, then submits its serialized inertial
  /// stream as the wire payload (upload id "video-<video_id>"). Extraction
  /// is async — drain() or build_plan() to observe the result.
  SubmitUploadResponse submit_video(const sim::SensorRichVideo& video,
                                    const RequestOptions& options = {});

  /// Blocks until deliverable parked replication has flushed and every
  /// node's queued extraction (and background refresh) work finished.
  void drain();

  /// Routes to the floor's acting primary, resyncs it from the shard log,
  /// drains it, then refreshes the plan. Repeat builds reuse every artifact
  /// untouched by new uploads and stay byte-identical to a cold rebuild —
  /// at any node count (docs/CLUSTER.md has the determinism proof sketch).
  [[nodiscard]] BuildPlanResponse build_plan(const BuildPlanRequest& request);

  /// Last complete plan without forcing a rebuild (null before the first);
  /// pair with ClientOptions::config.incremental.background_refresh.
  [[nodiscard]] std::shared_ptr<const core::PipelineResult> latest_plan(
      const std::string& building, int floor = 1) const;

  /// Admitted trajectories of one floor in canonical (video_id) order,
  /// served by the floor's acting primary after a shard-log resync.
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories(
      const std::string& building, int floor = 1) const;

  /// Snapshots one floor's artifact cache into its primary's document
  /// store; warm_artifact_cache_from() on a future client restores it.
  bool persist_artifact_cache(const std::string& building, int floor = 1);
  std::size_t warm_artifact_cache_from(const cloud::DocumentStore& store);

  /// Replays every node's durable store (config.storage.dir) back into the
  /// backend; reports are aggregated. Never throws; "storage.disabled" when
  /// persistence is off (docs/DURABILITY.md).
  common::Expected<storage::RecoveryReport> recover_storage();

  /// Drains, persists artifact caches, snapshots every node's store and
  /// compacts its WAL — the clean-shutdown/flush path.
  storage::Status checkpoint_storage();

  /// Durable-store facts aggregated over nodes (stats().durability).
  [[nodiscard]] cloud::DurabilityStats durability_stats() const;

  // ------------------------------------------------ cluster topology ---

  /// Nodes currently in the routing ring.
  [[nodiscard]] std::size_t nodes() const;
  [[nodiscard]] std::string node_name(std::size_t node) const;
  /// Shard ownership of one floor: ring preference order, primary first.
  [[nodiscard]] cluster::ShardView shard_of(const std::string& building,
                                            int floor = 1) const;
  /// Node join/leave with (config.cluster.rebalance) eager shard resync.
  std::size_t add_node();
  bool remove_node(std::size_t node);
  /// Current router logical tick — the frame deadline_tick lives in.
  [[nodiscard]] std::uint64_t now_tick() const noexcept;

  // ------------------------------------- narrow versioned accessors ---
  // What callers need from a node, without handing out the node itself.

  /// One node's document store (read-only).
  [[nodiscard]] const cloud::DocumentStore& document_store(
      std::size_t node = 0) const;
  /// Health counters summed over live nodes / of one node.
  [[nodiscard]] cloud::ServiceStats stats() const;
  [[nodiscard]] cloud::ServiceStats node_stats(std::size_t node) const;
  /// Merged snapshot: router families plus every node's families with a
  /// {"node", "node-<i>"} label appended.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>&
  metrics_registry() const noexcept {
    return cluster_.router_registry();
  }

  /// On-demand dump of one node's flight-recorder rings; std::nullopt when
  /// ClientOptions::config.flight.enabled == false.
  [[nodiscard]] std::optional<obs::FlightDump> flight_dump(
      std::size_t node = 0, bool deterministic = false);
  /// The router's own rings (routing, replication, shedding).
  [[nodiscard]] std::optional<obs::FlightDump> router_flight_dump(
      bool deterministic = false);

  /// The backing cluster, for tests that drive topology/fault seams the
  /// facade does not model (shard logs, per-node registries). Versioned —
  /// part of the v2 surface.
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }

 private:
  std::optional<sim::SensorRichVideo> decode(const cloud::Document& doc);
  [[nodiscard]] static cluster::ClusterOptions make_cluster_options(
      ClientOptions&& options, Client* self);
  SubmitUploadResponse to_response(const cluster::UploadTicket& ticket) const;

  cloud::VideoDecoder fallback_decoder_;
  mutable common::Mutex mutex_;
  /// Cluster-wide side table for submit_video: upload id -> video,
  /// registered *before* the first chunk is delivered (extraction may start
  /// immediately after the last chunk lands — on any replica).
  std::map<std::string, sim::SensorRichVideo> videos_ CM_GUARDED_BY(mutex_);
  /// mutable: the cluster is internally synchronized, and const read paths
  /// (latest_plan, trajectories) still route — which ticks router counters.
  mutable cluster::Cluster cluster_;  // last: its decoder captures `this`
};

}  // namespace v2
}  // namespace crowdmap::api
