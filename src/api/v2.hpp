// crowdmap::api::v2 — the one front door (docs/API.md, docs/CLUSTER.md).
//
// v2 is the only version and the inline one: `api::Client` resolves here,
// `api::v2::Client` pins it. The client is the router: it runs N in-process
// nodes, each a full cloud::CrowdMapService, shards uploads onto them by
// consistent hashing on (building, floor) (cluster/hash_ring.hpp), and
// replicates every committed upload through a deterministic CMWL-framed
// shard log (cluster/replication.hpp). With config.cluster.nodes == 1 (the
// default) its plans are byte-identical to a bare cloud::CrowdMapService's
// over the same campaign.
//
//  - Responses carry a structured api::Status: kRejectedChunks /
//    kWrongShard / kShedding / kDeadlineExceeded, each caller-actionable.
//  - Requests take RequestOptions with a request-scoped deadline (a logical
//    router tick bound, deterministic like everything else).
//  - There is no accessor to a node's raw CrowdMapService. Capabilities the
//    facade models are first-class (document_store(), shard_of(),
//    node_stats(), ...); anything else is a missing feature, not a reason to
//    reach inside.
//
// Determinism contract: the serialized FloorPlan of a floor is a pure
// function of the committed upload set and the pipeline config — NOT of the
// node count, the shard layout, or the failure schedule. Every committed
// upload is appended to its shard's authoritative log before the submit is
// acknowledged (classic WAL commit point), the log is never lost, and any
// node serves a floor only after replaying that log through the service
// front door; planner admission is idempotent by video id. So crash,
// partition, duplicate delivery and delayed replication reorder *work*,
// never *results*.
//
// Fault semantics (config.faults, points cluster.*):
//  - node_crash: the node's process state (service, planners, stores) is
//    wiped and rebuilt empty (its queued tasks are dropped, its running ones
//    finish first); its shards resync from the authoritative log on next
//    access.
//  - partition: the node is unreachable for a window of submit epochs;
//    routing fails over to the next reachable ring node and deliveries to
//    it park in the network until the window expires.
//  - replication_delay: a replica delivery parks in the network and lands
//    on a later flush (replicas apply in seqno order, gaps replay first).
//  - replication_duplicate: a replica delivery is applied twice; the
//    per-shard applied watermark makes the second apply a no-op.
//
// Execution: every node shares one common::ThreadPool sized by
// common::resolve_thread_count(config.parallel.threads). Each node's service
// queues its extraction and refresh tasks through its own TaskGroup on it,
// and every planner fans out on it, so N nodes never run N pools.
//
// Concurrency: the router serializes its own state under router_mutex_ but
// delivers chunk payloads and builds plans outside it, so concurrent
// submitters only contend on routing. When cluster fault points are armed
// the whole submit and build run under the lock (a crash mid-delivery would
// otherwise destroy the service beneath another caller); chaos schedules
// drive submissions serially.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/status.hpp"
#include "cloud/service.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/result.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace crowdmap::api {
inline namespace v2 {

/// Client construction options. Defaults give a self-contained single-node
/// in-process backend; config.cluster.* sizes the topology and
/// config.parallel.threads the one worker pool every node shares. The rest
/// of config configures every node's service identically (a heterogeneous
/// cluster would break the byte-determinism contract).
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

/// Shard ownership of one (building, floor): ring preference order, primary
/// first. `replicas` includes the primary and is clamped to
/// cluster.replication_factor and the live node count.
struct ShardView {
  std::size_t primary = 0;
  std::vector<std::size_t> replicas;
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
  SubmitUploadResponse submit_upload(const SubmitUploadRequest& request)
      CM_EXCLUDES(router_mutex_);

  /// Direct-to-node submission (a client with stale routing): fails with
  /// kWrongShard unless `node` is the shard's acting primary.
  SubmitUploadResponse submit_upload_to(std::size_t node,
                                        const SubmitUploadRequest& request)
      CM_EXCLUDES(router_mutex_);

  /// Convenience for simulation/evaluation: registers the video with the
  /// cluster-wide side-table decoder, then submits its serialized inertial
  /// stream as the wire payload (upload id "video-<video_id>"). Extraction
  /// is async — drain() or build_plan() to observe the result.
  SubmitUploadResponse submit_video(const sim::SensorRichVideo& video,
                                    const RequestOptions& options = {})
      CM_EXCLUDES(router_mutex_, videos_mutex_);

  /// Blocks until deliverable parked replication has flushed and every
  /// node's queued extraction (and background refresh) work finished.
  void drain() CM_EXCLUDES(router_mutex_);

  /// Routes to the floor's acting primary, resyncs it from the shard log,
  /// drains it, then refreshes the plan. Repeat builds reuse every artifact
  /// untouched by new uploads and stay byte-identical to a cold rebuild —
  /// at any node count (docs/CLUSTER.md has the determinism proof sketch).
  [[nodiscard]] BuildPlanResponse build_plan(const BuildPlanRequest& request)
      CM_EXCLUDES(router_mutex_);

  /// Last complete plan without forcing a rebuild (null before the first);
  /// pair with ClientOptions::config.incremental.background_refresh.
  [[nodiscard]] std::shared_ptr<const core::PipelineResult> latest_plan(
      const std::string& building, int floor = 1) const
      CM_EXCLUDES(router_mutex_);

  /// Admitted trajectories of one floor in canonical (video_id) order,
  /// served by the floor's acting primary after a shard-log resync.
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories(
      const std::string& building, int floor = 1) const
      CM_EXCLUDES(router_mutex_);

  /// Snapshots one floor's artifact cache into its primary's document
  /// store; warm_artifact_cache_from() on a future client restores it.
  bool persist_artifact_cache(const std::string& building, int floor = 1)
      CM_EXCLUDES(router_mutex_);
  /// Warms every node's planners from `store`; returns artifacts restored
  /// summed over nodes.
  std::size_t warm_artifact_cache_from(const cloud::DocumentStore& store)
      CM_EXCLUDES(router_mutex_);

  /// Replays every node's durable store (config.storage.dir) back into the
  /// backend; reports are aggregated. Never throws; "storage.disabled" when
  /// persistence is off (docs/DURABILITY.md).
  common::Expected<storage::RecoveryReport> recover_storage()
      CM_EXCLUDES(router_mutex_);

  /// Drains, persists artifact caches, snapshots every node's store and
  /// compacts its WAL — the clean-shutdown/flush path.
  storage::Status checkpoint_storage() CM_EXCLUDES(router_mutex_);

  // ------------------------------------------------ cluster topology ---

  /// Nodes currently in the routing ring.
  [[nodiscard]] std::size_t nodes() const CM_EXCLUDES(router_mutex_);
  [[nodiscard]] std::string node_name(std::size_t node) const
      CM_EXCLUDES(router_mutex_);
  /// Shard ownership of one floor: ring preference order, primary first.
  [[nodiscard]] ShardView shard_of(const std::string& building,
                                   int floor = 1) const
      CM_EXCLUDES(router_mutex_);
  /// Node join: appends a fresh node, rebuilds the ring and (with
  /// config.cluster.rebalance) eagerly resyncs re-homed shards. Returns its
  /// index.
  std::size_t add_node() CM_EXCLUDES(router_mutex_);
  /// Node leave: takes the node out of the ring (its slot stays, drained).
  /// False when it is already gone or the last live node.
  bool remove_node(std::size_t node) CM_EXCLUDES(router_mutex_);
  /// Current router logical tick — the frame deadline_tick lives in.
  [[nodiscard]] std::uint64_t now_tick() const noexcept {
    return clock_.now();
  }

  // ------------------------------------- narrow versioned accessors ---
  // What callers need from a node, without handing out the node itself.

  /// One node's document store (read-only).
  [[nodiscard]] const cloud::DocumentStore& document_store(
      std::size_t node = 0) const CM_EXCLUDES(router_mutex_);
  /// Health counters summed over live nodes / of one node.
  [[nodiscard]] cloud::ServiceStats stats() const CM_EXCLUDES(router_mutex_);
  [[nodiscard]] cloud::ServiceStats node_stats(std::size_t node) const
      CM_EXCLUDES(router_mutex_);
  /// Merged snapshot: router families plus every live node's families with
  /// a {"node", "node-<i>"} label appended.
  [[nodiscard]] obs::MetricsSnapshot metrics() const
      CM_EXCLUDES(router_mutex_);

  /// On-demand dump of one node's flight-recorder rings; std::nullopt when
  /// ClientOptions::config.flight.enabled == false.
  [[nodiscard]] std::optional<obs::FlightDump> flight_dump(
      std::size_t node = 0, bool deterministic = false)
      CM_EXCLUDES(router_mutex_);
  /// The router's own rings (routing, replication, shedding).
  [[nodiscard]] std::optional<obs::FlightDump> router_flight_dump(
      bool deterministic = false);

 private:
  using FloorKey = std::pair<std::string, int>;
  /// (building, floor, upload id): upload ids are unique per floor only.
  using UploadKey = std::tuple<std::string, int, std::string>;

  struct Node {
    std::string name;
    std::shared_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<cloud::CrowdMapService> service;
    /// Borrowed handle onto the service's worker-queue gauge (backpressure).
    obs::Gauge* queue_depth = nullptr;
    /// Router-side routed-uploads counter, labeled {"node", name}.
    obs::Counter* routed = nullptr;
    bool alive = true;
    /// Unreachable until this submit epoch (partition fault window).
    std::uint64_t partitioned_until = 0;
    /// Per-shard applied watermark: log seqnos this node's service has
    /// ingested. Cleared on crash (process state is gone; the log is not).
    std::map<FloorKey, std::uint64_t> applied;
  };

  /// One replication delivery parked in the network (partitioned target or
  /// injected delay); flushed in FIFO order once the target is reachable.
  struct Parked {
    std::size_t node = 0;
    FloorKey key;
    std::uint64_t seqno = 0;
  };

  // ---------------------------------------------- requests (v2.cpp) ---

  /// The decoder every node's service extracts through: the submit_video
  /// side table, then the caller's fallback decoder.
  [[nodiscard]] std::optional<sim::SensorRichVideo> decode(
      const cloud::Document& doc) const CM_EXCLUDES(videos_mutex_);
  /// Routes one chunked upload to its shard's acting primary (refused with
  /// kWrongShard when `forced_node` names another node), commits the
  /// reassembled document to the shard log and replicates it.
  SubmitUploadResponse submit(std::optional<std::size_t> forced_node,
                              const SubmitUploadRequest& request)
      CM_EXCLUDES(router_mutex_);
  /// A read path's serving node: the floor's acting primary at the current
  /// tick, resynced from the shard log first when `resync`.
  [[nodiscard]] cloud::CrowdMapService& route_read(const FloorKey& key,
                                                   bool resync) const
      CM_EXCLUDES(router_mutex_);
  [[nodiscard]] std::vector<cloud::CrowdMapService*> live_services() const
      CM_EXCLUDES(router_mutex_);

  // ------------------------- routing, replication, faults (router.cpp) ---

  void make_node_locked(std::size_t index) CM_REQUIRES(router_mutex_);
  std::unique_ptr<cloud::CrowdMapService> make_service(std::size_t index,
                                                       Node& node);
  [[nodiscard]] std::vector<std::size_t> alive_indices_locked() const
      CM_REQUIRES(router_mutex_);
  [[nodiscard]] std::vector<cloud::CrowdMapService*> live_services_locked()
      const CM_REQUIRES(router_mutex_);

  /// Interrogates cluster.node_crash / cluster.partition for every live
  /// node at this epoch (keys are (node, epoch), so decisions are a pure
  /// function of the plan and the request sequence).
  void tick_faults_locked(std::uint64_t epoch) CM_REQUIRES(router_mutex_);
  void crash_node_locked(std::size_t index) CM_REQUIRES(router_mutex_);
  [[nodiscard]] bool reachable_locked(std::size_t index,
                                      std::uint64_t epoch) const
      CM_REQUIRES(router_mutex_);

  [[nodiscard]] ShardView shard_view_locked(const FloorKey& key) const
      CM_REQUIRES(router_mutex_);
  /// First reachable node of the shard's preference list (falls back to the
  /// ring primary when the whole shard is partitioned). Records a failover
  /// when that is not the ring primary. const: read paths route too, and a
  /// failover ticks the router's counter and flight rings either way.
  [[nodiscard]] std::size_t acting_primary_locked(const FloorKey& key,
                                                  std::uint64_t epoch) const
      CM_REQUIRES(router_mutex_);

  /// Replays the shard log through the node's front door until its applied
  /// watermark reaches the head. Returns records replayed. const: a read
  /// path resyncs its serving node (nodes are held by pointer).
  std::size_t sync_node_locked(std::size_t index, const FloorKey& key) const
      CM_REQUIRES(router_mutex_);
  /// Applies one delivered record (replaying any gap first); duplicate
  /// seqnos are no-ops under the applied watermark.
  void apply_record_locked(std::size_t index, const FloorKey& key,
                           std::uint64_t seqno) CM_REQUIRES(router_mutex_);
  /// Routes one record to a replica: applies it, parks it (partition /
  /// injected delay), or re-applies it (injected duplicate).
  void deliver_record_locked(std::size_t index, const FloorKey& key,
                             std::uint64_t seqno, std::uint64_t epoch)
      CM_REQUIRES(router_mutex_);
  /// Commit point: appends the reassembled document to the shard log and
  /// fans it out to the replica set. Returns the record's seqno.
  std::uint64_t commit_upload_locked(std::size_t primary, const FloorKey& key,
                                     const cloud::Document& doc,
                                     std::uint64_t epoch)
      CM_REQUIRES(router_mutex_);
  /// Delivers every parked record whose target is reachable at `epoch`.
  void flush_network_locked(std::uint64_t epoch) CM_REQUIRES(router_mutex_);
  /// With cluster.rebalance: eagerly resyncs every shard onto its (possibly
  /// new) replica set after a membership change.
  void rebalance_locked() CM_REQUIRES(router_mutex_);

  [[nodiscard]] static std::uint64_t floor_hash(const FloorKey& key);

  const ClientOptions options_;
  const std::size_t chunk_bytes_;
  const std::size_t replication_factor_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  common::FaultInjector faults_;
  common::LogicalClock clock_;

  obs::Counter* records_total_ = nullptr;
  obs::Counter* delayed_total_ = nullptr;
  obs::Counter* duplicates_total_ = nullptr;
  obs::Counter* failovers_total_ = nullptr;
  obs::Counter* crashes_total_ = nullptr;
  obs::Counter* sheds_total_ = nullptr;
  obs::Counter* wrong_shard_total_ = nullptr;
  obs::Counter* rebalance_moves_total_ = nullptr;
  obs::Gauge* nodes_gauge_ = nullptr;

  /// Side table for submit_video, filled *before* the first chunk is
  /// delivered (extraction may start right after the last chunk lands — on
  /// any replica). Its own mutex, not the router's: with faults armed a
  /// build runs under router_mutex_ and drains extraction tasks, which call
  /// decode(). Declared before nodes_ so it outlives every node's task
  /// group.
  mutable common::Mutex videos_mutex_;
  std::map<UploadKey, sim::SensorRichVideo> videos_
      CM_GUARDED_BY(videos_mutex_);

  /// Shared by every node. Declared before nodes_ so each node's service,
  /// and with it its task group, is gone before the pool joins.
  common::ThreadPool pool_;
  mutable common::Mutex router_mutex_;
  std::vector<std::unique_ptr<Node>> nodes_ CM_GUARDED_BY(router_mutex_);
  cluster::HashRing ring_ CM_GUARDED_BY(router_mutex_);
  std::map<FloorKey, cluster::ReplicationLog> logs_
      CM_GUARDED_BY(router_mutex_);
  std::vector<Parked> parked_ CM_GUARDED_BY(router_mutex_);
};

}  // namespace v2
}  // namespace crowdmap::api
