// crowdmap::cluster — the sharded multi-node simulation behind api::v2
// (docs/CLUSTER.md): N in-process nodes, each a full CrowdMapService, a
// router sharding uploads by consistent hashing on (building, floor), and
// primary/replica replication through a deterministic CMWL-framed shard log
// (cluster/replication.hpp).
//
// Determinism contract (the ROADMAP's threads->nodes lift of PRs 2/4): the
// serialized FloorPlan of a floor is a pure function of the committed upload
// set and the pipeline config — NOT of the node count, the shard layout, or
// the failure schedule. Every committed upload is appended to its shard's
// authoritative log before the submit is acknowledged (classic WAL commit
// point), the log is never lost, and any node serves a floor only after
// replaying that log through the service front door; planner admission is
// idempotent by video id. So crash, partition, duplicate delivery and
// delayed replication reorder *work*, never *results*.
//
// Fault semantics (driven by the shared FaultInjector, points cluster.*):
//  - node_crash: the node's process state (service, planners, stores) is
//    wiped and rebuilt empty (its queued tasks are dropped, its running ones
//    finish first); its shards resync from the authoritative log on next
//    access — the durability story lifted to replication.
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
// Concurrency: the router serializes its own state under one mutex but
// delivers chunk payloads outside it, so concurrent submitters only contend
// on routing. When cluster fault points are armed the whole submit runs
// under the lock (a crash mid-delivery would otherwise destroy the service
// beneath another submitter); chaos schedules drive submissions serially.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/service.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace crowdmap::cluster {

struct ClusterOptions {
  /// config.cluster.* sizes the topology; the rest configures every node's
  /// service identically (a heterogeneous cluster would break the
  /// byte-determinism contract).
  core::PipelineConfig config;
  /// Cluster-wide payload decoder, shared by every node so any replica can
  /// extract a replicated upload (api::v2 passes its side-table decoder).
  cloud::VideoDecoder decoder;
  /// Wire chunk size of the client-facing ingestion path.
  std::size_t chunk_bytes = 4096;
  /// Filesystem for per-node durable stores (config.storage.dir non-empty
  /// gives node i the subdirectory "<dir>/node-<i>"). Borrowed.
  storage::Env* storage_env = nullptr;
};

enum class SubmitOutcome {
  kAccepted = 0,
  kRejectedChunks,   // >=1 chunk rejected or the upload never reassembled
  kWrongShard,       // direct-to-node submit hit a non-primary
  kShedding,         // acting primary over cluster.max_node_queue
  kDeadlineExceeded, // request deadline elapsed before admission
};

struct UploadTicket {
  SubmitOutcome outcome = SubmitOutcome::kAccepted;
  std::size_t chunks_sent = 0;
  std::size_t chunks_rejected = 0;
  /// Acting primary the upload was routed to (valid for every outcome).
  std::size_t node = 0;
  /// Shard-log seqno of the committed record (0 when nothing committed).
  std::uint64_t seqno = 0;
};

/// Shard ownership of one (building, floor): ring preference order, primary
/// first. `replicas` includes the primary and is clamped to
/// cluster.replication_factor and the live node count.
struct ShardView {
  std::size_t primary = 0;
  std::vector<std::size_t> replicas;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Nodes currently in the ring (excludes removed nodes).
  [[nodiscard]] std::size_t node_count() const CM_EXCLUDES(mutex_);
  /// Total node slots ever created (removed nodes keep their index).
  [[nodiscard]] std::size_t node_slots() const CM_EXCLUDES(mutex_);
  [[nodiscard]] std::string node_name(std::size_t node) const;

  /// Routes one chunked upload to its shard's acting primary, commits the
  /// reassembled document to the shard log and replicates it. `deadline`
  /// (0 = none) is a logical-clock tick bound checked at admission.
  UploadTicket submit_upload(const std::string& upload_id,
                             const std::string& building, int floor,
                             const cloud::Blob& payload,
                             std::uint64_t deadline = 0) CM_EXCLUDES(mutex_);

  /// Direct-to-node submission (a client with stale routing): refused with
  /// kWrongShard unless `node` is the shard's acting primary.
  UploadTicket submit_upload_to(std::size_t node, const std::string& upload_id,
                                const std::string& building, int floor,
                                const cloud::Blob& payload,
                                std::uint64_t deadline = 0)
      CM_EXCLUDES(mutex_);

  /// Flushes deliverable parked replication and drains every node's tasks.
  void drain() CM_EXCLUDES(mutex_);

  /// Routes to the acting primary, resyncs it from the shard log, then
  /// builds. `built_on` (optional) reports the serving node.
  [[nodiscard]] core::PipelineResult build_floor_plan(
      const std::string& building, int floor,
      const std::optional<core::WorldFrame>& frame = std::nullopt,
      std::size_t* built_on = nullptr) CM_EXCLUDES(mutex_);

  [[nodiscard]] std::shared_ptr<const core::PipelineResult> latest_plan(
      const std::string& building, int floor) CM_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories(
      const std::string& building, int floor) CM_EXCLUDES(mutex_);

  bool persist_artifact_cache(const std::string& building, int floor)
      CM_EXCLUDES(mutex_);
  /// Warms every node's planners from `store`; returns artifacts restored
  /// summed over nodes.
  std::size_t warm_artifact_cache_from(const cloud::DocumentStore& store)
      CM_EXCLUDES(mutex_);

  /// Recovers every node's durable store (aggregated report); error when
  /// any node fails or persistence is disabled ("storage.disabled").
  common::Expected<storage::RecoveryReport> recover_storage()
      CM_EXCLUDES(mutex_);
  storage::Status checkpoint_storage() CM_EXCLUDES(mutex_);

  /// Node join: appends a fresh node, rebuilds the ring and (with
  /// cluster.rebalance) eagerly resyncs re-homed shards. Returns its index.
  std::size_t add_node() CM_EXCLUDES(mutex_);
  /// Node leave: takes the node out of the ring (its slot stays, drained).
  /// False when it is already gone or the last live node.
  bool remove_node(std::size_t node) CM_EXCLUDES(mutex_);

  [[nodiscard]] ShardView shard_of(const std::string& building,
                                   int floor) const CM_EXCLUDES(mutex_);
  /// Committed records in one shard's log (0 before the first commit).
  [[nodiscard]] std::uint64_t shard_log_head(const std::string& building,
                                             int floor) const
      CM_EXCLUDES(mutex_);
  /// Copy of one shard's CMWL segment bytes (empty before the first
  /// commit) — replayable via ReplicationLog::replay / scan_segment.
  [[nodiscard]] io::Bytes shard_log_segment(const std::string& building,
                                            int floor) const
      CM_EXCLUDES(mutex_);

  /// Current logical time (advances once per routed request).
  [[nodiscard]] std::uint64_t now_tick() const noexcept {
    return clock_.now();
  }

  /// Health counters summed over live nodes.
  [[nodiscard]] cloud::ServiceStats stats() const CM_EXCLUDES(mutex_);
  [[nodiscard]] cloud::ServiceStats node_stats(std::size_t node) const;
  /// Merged snapshot: router families plus every live node's families with
  /// a {"node", "node-<i>"} label appended (per-node namespacing).
  [[nodiscard]] obs::MetricsSnapshot metrics() const CM_EXCLUDES(mutex_);
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>&
  router_registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] std::shared_ptr<obs::MetricsRegistry> node_registry(
      std::size_t node) const;
  [[nodiscard]] const cloud::DocumentStore& document_store(
      std::size_t node) const;
  [[nodiscard]] std::optional<obs::FlightDump> flight_dump(std::size_t node,
                                                           bool deterministic);
  /// The router's own flight rings (routing, replication, shedding).
  [[nodiscard]] std::optional<obs::FlightDump> router_flight_dump(
      bool deterministic);
  [[nodiscard]] cloud::DurabilityStats durability_stats() const;

 private:
  using FloorKey = std::pair<std::string, int>;

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

  UploadTicket submit_impl(std::optional<std::size_t> forced_node,
                           const std::string& upload_id,
                           const std::string& building, int floor,
                           const cloud::Blob& payload, std::uint64_t deadline)
      CM_EXCLUDES(mutex_);

  void make_node_locked(std::size_t index) CM_REQUIRES(mutex_);
  std::unique_ptr<cloud::CrowdMapService> make_service(std::size_t index,
                                                       Node& node);
  [[nodiscard]] std::vector<std::size_t> alive_indices_locked() const
      CM_REQUIRES(mutex_);

  /// Interrogates cluster.node_crash / cluster.partition for every live
  /// node at this epoch (keys are (node, epoch), so decisions are a pure
  /// function of the plan and the request sequence).
  void tick_faults_locked(std::uint64_t epoch) CM_REQUIRES(mutex_);
  void crash_node_locked(std::size_t index) CM_REQUIRES(mutex_);
  [[nodiscard]] bool reachable_locked(std::size_t index,
                                      std::uint64_t epoch) const
      CM_REQUIRES(mutex_);

  [[nodiscard]] ShardView shard_view_locked(const FloorKey& key,
                                            std::uint64_t epoch) const
      CM_REQUIRES(mutex_);
  /// First reachable node of the shard's preference list (falls back to the
  /// ring primary when the whole shard is partitioned). Records a failover
  /// when that is not the ring primary.
  [[nodiscard]] std::size_t acting_primary_locked(const FloorKey& key,
                                                  std::uint64_t epoch)
      CM_REQUIRES(mutex_);

  ReplicationLog& log_for_locked(const FloorKey& key) CM_REQUIRES(mutex_);
  /// Replays the shard log through the node's front door until its applied
  /// watermark reaches the head. Returns records replayed.
  std::size_t sync_node_locked(std::size_t index, const FloorKey& key)
      CM_REQUIRES(mutex_);
  /// Applies one delivered record (replaying any gap first); duplicate
  /// seqnos are no-ops under the applied watermark.
  void apply_record_locked(std::size_t index, const FloorKey& key,
                           std::uint64_t seqno) CM_REQUIRES(mutex_);
  /// Routes one record to a replica: applies it, parks it (partition /
  /// injected delay), or re-applies it (injected duplicate).
  void deliver_record_locked(std::size_t index, const FloorKey& key,
                             std::uint64_t seqno, std::uint64_t epoch)
      CM_REQUIRES(mutex_);
  /// Commit point: appends the reassembled document to the shard log and
  /// fans it out to the replica set. Returns the record's seqno.
  std::uint64_t commit_upload_locked(std::size_t primary, const FloorKey& key,
                                     const cloud::Document& doc,
                                     std::uint64_t epoch) CM_REQUIRES(mutex_);
  /// Delivers every parked record whose target is reachable at `epoch`.
  void flush_network_locked(std::uint64_t epoch) CM_REQUIRES(mutex_);
  /// With cluster.rebalance: eagerly resyncs every shard onto its (possibly
  /// new) replica set after a membership change.
  void rebalance_locked() CM_REQUIRES(mutex_);

  [[nodiscard]] static std::uint64_t floor_hash(const FloorKey& key);

  ClusterOptions options_;
  std::size_t chunk_bytes_ = 4096;
  std::size_t replication_factor_ = 2;
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

  /// Shared by every node. Declared before nodes_ so each node's service,
  /// and with it its task group, is gone before the pool joins.
  common::ThreadPool pool_;
  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<Node>> nodes_ CM_GUARDED_BY(mutex_);
  HashRing ring_ CM_GUARDED_BY(mutex_);
  std::map<FloorKey, ReplicationLog> logs_ CM_GUARDED_BY(mutex_);
  std::vector<Parked> parked_ CM_GUARDED_BY(mutex_);
};

}  // namespace crowdmap::cluster
