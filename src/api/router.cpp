// api::Client's router half: node lifecycle, consistent-hash routing, shard
// log replication and the cluster.* fault points (docs/CLUSTER.md). The
// request half lives in v2.cpp.
#include <algorithm>
#include <utility>

#include "api/v2.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace crowdmap::api {
inline namespace v2 {

namespace {

/// Submit epochs a partitioned node stays unreachable (the fault models a
/// transient network split, not a decommission).
constexpr std::uint64_t kPartitionTicks = 8;

/// Decision key for per-(node, epoch) fault interrogations. The point
/// identity is mixed in by the injector itself, so crash and partition
/// decisions at the same (node, epoch) stay independent.
std::uint64_t node_epoch_key(std::uint64_t epoch, std::size_t node) noexcept {
  return common::hash_u64(epoch * 0x9E3779B97F4A7C15ull + node);
}

/// Decision key for per-delivery replication faults.
std::uint64_t delivery_key(std::uint64_t shard, std::uint64_t seqno,
                           std::size_t node) noexcept {
  return common::hash_u64(shard + seqno * 0x9E3779B97F4A7C15ull + node);
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      chunk_bytes_(options_.chunk_bytes == 0 ? 4096 : options_.chunk_bytes),
      replication_factor_(
          std::max<std::size_t>(1, options_.config.cluster.replication_factor)),
      registry_(std::make_shared<obs::MetricsRegistry>()),
      pool_(common::resolve_thread_count(options_.config.parallel.threads)) {
  if (options_.config.flight.enabled) {
    flight_ = std::make_unique<obs::FlightRecorder>();
  }
  records_total_ = &registry_->counter(
      "crowdmap_cluster_replication_records_total", {},
      "Upload records committed to shard replication logs");
  delayed_total_ = &registry_->counter(
      "crowdmap_cluster_replication_delayed_total", {},
      "Replica deliveries parked by the replication_delay fault");
  duplicates_total_ = &registry_->counter(
      "crowdmap_cluster_replication_duplicates_total", {},
      "Replica deliveries re-applied by the replication_duplicate fault");
  failovers_total_ = &registry_->counter(
      "crowdmap_cluster_failovers_total", {},
      "Routing decisions served by a non-primary ring node");
  crashes_total_ = &registry_->counter(
      "crowdmap_cluster_node_crashes_total", {},
      "Node crash/restart cycles injected by the chaos plan");
  sheds_total_ = &registry_->counter(
      "crowdmap_cluster_sheds_total", {},
      "Uploads shed for exceeding cluster.max_node_queue");
  wrong_shard_total_ = &registry_->counter(
      "crowdmap_cluster_wrong_shard_total", {},
      "Direct-to-node submissions refused as mis-routed");
  rebalance_moves_total_ = &registry_->counter(
      "crowdmap_cluster_rebalance_moves_total", {},
      "Shard resyncs that moved records during a rebalance");
  nodes_gauge_ = &registry_->gauge("crowdmap_cluster_nodes", {},
                                   "Nodes currently in the routing ring");
  faults_.arm(options_.config.faults);

  common::MutexLock lock(router_mutex_);
  const std::size_t count =
      std::max<std::size_t>(1, options_.config.cluster.nodes);
  for (std::size_t i = 0; i < count; ++i) make_node_locked(i);
  ring_.rebuild(alive_indices_locked());
  nodes_gauge_->set(static_cast<double>(count));
}

void Client::make_node_locked(std::size_t index) {
  auto node = std::make_unique<Node>();
  node->name = "node-" + std::to_string(index);
  node->registry = std::make_shared<obs::MetricsRegistry>();
  node->routed = &registry_->counter(
      "crowdmap_cluster_uploads_routed_total", {{"node", node->name}},
      "Uploads routed to this node as acting primary");
  node->service = make_service(index, *node);
  nodes_.push_back(std::move(node));
}

std::unique_ptr<cloud::CrowdMapService> Client::make_service(std::size_t index,
                                                             Node& node) {
  core::PipelineConfig config = options_.config;
  if (!config.storage.dir.empty()) {
    // Each node owns its own durable directory, the way each process of a
    // real deployment owns its own disk.
    config.storage.dir += "/node-" + std::to_string(index);
  }
  auto service = std::make_unique<cloud::CrowdMapService>(
      std::move(config),
      [this](const cloud::Document& doc) { return decode(doc); }, pool_,
      node.registry, options_.storage_env);
  node.queue_depth = &node.registry->gauge(
      "crowdmap_worker_queue_depth", {},
      "Extraction tasks waiting in the pool");
  return service;
}

std::vector<std::size_t> Client::alive_indices_locked() const {
  std::vector<std::size_t> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->alive) out.push_back(i);
  }
  return out;
}

std::vector<cloud::CrowdMapService*> Client::live_services_locked() const {
  std::vector<cloud::CrowdMapService*> out;
  for (const auto& node : nodes_) {
    if (node->alive) out.push_back(node->service.get());
  }
  return out;
}

std::vector<cloud::CrowdMapService*> Client::live_services() const {
  common::MutexLock lock(router_mutex_);
  return live_services_locked();
}

std::uint64_t Client::floor_hash(const FloorKey& key) {
  return common::stable_string_hash(key.first + "#" +
                                    std::to_string(key.second));
}

void Client::tick_faults_locked(std::uint64_t epoch) {
  if (!faults_.armed()) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    if (!node.alive) continue;
    const std::uint64_t key = node_epoch_key(epoch, i);
    if (faults_.should_fire(common::faults::kClusterNodeCrash, key)) {
      crash_node_locked(i);
    }
    if (faults_.should_fire(common::faults::kClusterPartition, key)) {
      node.partitioned_until = epoch + kPartitionTicks;
      if (flight_ != nullptr) {
        flight_->record_named(obs::FlightEventKind::kFaultFired,
                              static_cast<std::uint32_t>(i),
                              "cluster.partition", epoch);
      }
      CROWDMAP_LOG(kWarn, "cluster")
          << node.name << " partitioned until epoch "
          << node.partitioned_until;
    }
  }
}

void Client::crash_node_locked(std::size_t index) {
  Node& node = *nodes_[index];
  crashes_total_->increment();
  if (flight_ != nullptr) {
    flight_->record_named(obs::FlightEventKind::kFaultFired,
                          static_cast<std::uint32_t>(index),
                          "cluster.node_crash");
  }
  CROWDMAP_LOG(kWarn, "cluster") << node.name << " crashed; process state "
                                    "wiped, shard logs will resync";
  // The process dies and restarts empty: planners, stores and watermarks are
  // gone. The shard logs (and any durable directory) are not — the node
  // re-earns its shards by replaying them on next access.
  node.service.reset();
  node.applied.clear();
  node.service = make_service(index, node);
}

bool Client::reachable_locked(std::size_t index, std::uint64_t epoch) const {
  return epoch >= nodes_[index]->partitioned_until;
}

ShardView Client::shard_view_locked(const FloorKey& key) const {
  ShardView view;
  view.replicas = ring_.preference(floor_hash(key), replication_factor_);
  if (!view.replicas.empty()) view.primary = view.replicas.front();
  return view;
}

std::size_t Client::acting_primary_locked(const FloorKey& key,
                                          std::uint64_t epoch) const {
  const std::vector<std::size_t> preference =
      ring_.preference(floor_hash(key), nodes_.size());
  std::size_t acting = preference.empty() ? 0 : preference.front();
  for (const std::size_t candidate : preference) {
    if (reachable_locked(candidate, epoch)) {
      acting = candidate;
      break;
    }
  }
  if (!preference.empty() && acting != preference.front()) {
    failovers_total_->increment();
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEventKind::kClusterFailover,
                      static_cast<std::uint32_t>(acting), floor_hash(key));
    }
  }
  return acting;
}

std::size_t Client::sync_node_locked(std::size_t index,
                                     const FloorKey& key) const {
  const auto it = logs_.find(key);
  if (it == logs_.end()) return 0;
  const cluster::ReplicationLog& log = it->second;
  Node& node = *nodes_[index];
  std::uint64_t& applied = node.applied[key];
  std::size_t replayed = 0;
  while (applied < log.head()) {
    node.service->ingest_document(
        cluster::decode_record(log.record(applied + 1)));
    ++applied;
    ++replayed;
  }
  return replayed;
}

void Client::apply_record_locked(std::size_t index, const FloorKey& key,
                                 std::uint64_t seqno) {
  Node& node = *nodes_[index];
  if (!node.alive) return;
  std::uint64_t& applied = node.applied[key];
  if (applied >= seqno) return;  // duplicate delivery: idempotent no-op
  const cluster::ReplicationLog& log = logs_.at(key);
  // A delivery beyond the watermark replays the gap first (delayed earlier
  // records), so replicas always apply in seqno order.
  while (applied < seqno) {
    node.service->ingest_document(
        cluster::decode_record(log.record(applied + 1)));
    ++applied;
  }
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::kClusterReplicate,
                    static_cast<std::uint32_t>(index), floor_hash(key), seqno);
  }
}

void Client::deliver_record_locked(std::size_t index, const FloorKey& key,
                                   std::uint64_t seqno, std::uint64_t epoch) {
  const Node& node = *nodes_[index];
  if (!node.alive) return;
  if (!reachable_locked(index, epoch)) {
    parked_.push_back({index, key, seqno});
    return;
  }
  const std::uint64_t decision = delivery_key(floor_hash(key), seqno, index);
  if (faults_.should_fire(common::faults::kClusterReplicationDelay,
                          decision)) {
    delayed_total_->increment();
    parked_.push_back({index, key, seqno});
    return;
  }
  apply_record_locked(index, key, seqno);
  if (faults_.should_fire(common::faults::kClusterReplicationDuplicate,
                          decision)) {
    duplicates_total_->increment();
    apply_record_locked(index, key, seqno);
  }
}

std::uint64_t Client::commit_upload_locked(std::size_t primary,
                                           const FloorKey& key,
                                           const cloud::Document& doc,
                                           std::uint64_t epoch) {
  cluster::ReplicationLog& log = logs_[key];
  const std::uint64_t seqno = log.append(cluster::encode_record(doc));
  // The acting primary ingested this document through the front door, so its
  // watermark advances without a replay — but only when it was actually in
  // step (concurrent submitters can commit interleaved seqnos; a stale
  // watermark is healed by the next sync, replays are idempotent).
  std::uint64_t& applied = nodes_[primary]->applied[key];
  if (applied == seqno - 1) applied = seqno;
  records_total_->increment();
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::kClusterReplicate,
                    static_cast<std::uint32_t>(primary), floor_hash(key),
                    seqno);
  }
  for (const std::size_t member : shard_view_locked(key).replicas) {
    if (member != primary) deliver_record_locked(member, key, seqno, epoch);
  }
  return seqno;
}

void Client::flush_network_locked(std::uint64_t epoch) {
  std::vector<Parked> keep;
  keep.reserve(parked_.size());
  for (const Parked& parked : parked_) {
    if (!nodes_[parked.node]->alive) continue;  // dropped with the node
    if (!reachable_locked(parked.node, epoch)) {
      keep.push_back(parked);
      continue;
    }
    apply_record_locked(parked.node, parked.key, parked.seqno);
  }
  parked_.swap(keep);
}

void Client::rebalance_locked() {
  for (const auto& [key, log] : logs_) {
    for (const std::size_t member : shard_view_locked(key).replicas) {
      if (sync_node_locked(member, key) > 0) {
        rebalance_moves_total_->increment();
      }
    }
  }
}

std::size_t Client::add_node() {
  common::MutexLock lock(router_mutex_);
  const std::size_t index = nodes_.size();
  make_node_locked(index);
  ring_.rebuild(alive_indices_locked());
  nodes_gauge_->set(static_cast<double>(alive_indices_locked().size()));
  rebalance_locked();
  return index;
}

bool Client::remove_node(std::size_t node) {
  common::MutexLock lock(router_mutex_);
  if (node >= nodes_.size() || !nodes_[node]->alive) return false;
  if (alive_indices_locked().size() <= 1) return false;  // never empty it
  nodes_[node]->alive = false;
  // Parked deliveries to a decommissioned node die with it — its shards
  // have new owners, which resync from the authoritative log instead.
  parked_.erase(std::remove_if(parked_.begin(), parked_.end(),
                               [node](const Parked& parked) {
                                 return parked.node == node;
                               }),
                parked_.end());
  ring_.rebuild(alive_indices_locked());
  nodes_gauge_->set(static_cast<double>(alive_indices_locked().size()));
  rebalance_locked();
  return true;
}

}  // namespace v2
}  // namespace crowdmap::api
