#include "cluster/cluster.hpp"

#include <algorithm>
#include <utility>

#include "cloud/chunking.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace crowdmap::cluster {

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

void accumulate_ingest(cloud::IngestStats& into,
                       const cloud::IngestStats& from) {
  into.sessions_opened += from.sessions_opened;
  into.uploads_completed += from.uploads_completed;
  into.uploads_rejected += from.uploads_rejected;
  into.chunks_received += from.chunks_received;
  into.bytes_received += from.bytes_received;
  into.chunks_duplicate += from.chunks_duplicate;
  into.chunks_rejected += from.chunks_rejected;
  into.unknown_session += from.unknown_session;
  into.sessions_expired += from.sessions_expired;
  into.uploads_quarantined += from.uploads_quarantined;
  into.retransmit_requests += from.retransmit_requests;
}

void accumulate_durability(cloud::DurabilityStats& into,
                           const cloud::DurabilityStats& from) {
  into.enabled = into.enabled || from.enabled;
  into.recovered = into.recovered || from.recovered;
  // A cluster is healthy only when every persistent node is; the first
  // accumulation seeds the flag.
  into.healthy = from.enabled ? (into.healthy && from.healthy) : into.healthy;
  into.wal_appends += from.wal_appends;
  into.wal_append_failures += from.wal_append_failures;
  into.wal_bytes += from.wal_bytes;
  into.segments_created += from.segments_created;
  into.live_segments += from.live_segments;
  into.checkpoints += from.checkpoints;
  into.recovery_snapshot_loaded =
      into.recovery_snapshot_loaded || from.recovery_snapshot_loaded;
  into.recovery_records_replayed += from.recovery_records_replayed;
  into.recovery_truncated_records += from.recovery_truncated_records;
}

void accumulate_stats(cloud::ServiceStats& into,
                      const cloud::ServiceStats& from) {
  into.uploads_completed += from.uploads_completed;
  into.uploads_rejected += from.uploads_rejected;
  into.videos_decoded += from.videos_decoded;
  into.decode_failures += from.decode_failures;
  into.trajectories_extracted += from.trajectories_extracted;
  into.trajectories_dropped += from.trajectories_dropped;
  into.sensor_dropouts += from.sensor_dropouts;
  accumulate_ingest(into.ingest, from.ingest);
  into.artifact_cache.hits += from.artifact_cache.hits;
  into.artifact_cache.misses += from.artifact_cache.misses;
  into.artifact_cache.invalidations += from.artifact_cache.invalidations;
  into.artifact_cache.entries += from.artifact_cache.entries;
  into.artifact_cache.bytes += from.artifact_cache.bytes;
  for (std::size_t f = 0; f < cache::kFamilyCount; ++f) {
    into.artifact_cache.family_hits[f] += from.artifact_cache.family_hits[f];
    into.artifact_cache.family_misses[f] +=
        from.artifact_cache.family_misses[f];
  }
  into.cache_warmstart_rejected += from.cache_warmstart_rejected;
  accumulate_durability(into.durability, from.durability);
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      chunk_bytes_(options_.chunk_bytes == 0 ? 4096 : options_.chunk_bytes),
      replication_factor_(
          std::max<std::size_t>(1, options_.config.cluster.replication_factor)),
      registry_(std::make_shared<obs::MetricsRegistry>()),
      pool_(common::resolve_thread_count(options_.config.parallel.threads)) {
  if (options_.config.flight.enabled) {
    obs::FlightOptions opts;
    opts.ring_capacity = options_.config.flight.ring_capacity;
    opts.dump_on_anomaly = options_.config.flight.dump_on_anomaly;
    flight_ = std::make_unique<obs::FlightRecorder>(opts);
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

  common::MutexLock lock(mutex_);
  const std::size_t count =
      std::max<std::size_t>(1, options_.config.cluster.nodes);
  for (std::size_t i = 0; i < count; ++i) make_node_locked(i);
  ring_.rebuild(alive_indices_locked());
  nodes_gauge_->set(static_cast<double>(count));
}

std::size_t Cluster::node_count() const {
  common::MutexLock lock(mutex_);
  return alive_indices_locked().size();
}

std::size_t Cluster::node_slots() const {
  common::MutexLock lock(mutex_);
  return nodes_.size();
}

std::string Cluster::node_name(std::size_t node) const {
  common::MutexLock lock(mutex_);
  return nodes_.at(node)->name;
}

void Cluster::make_node_locked(std::size_t index) {
  auto node = std::make_unique<Node>();
  node->name = "node-" + std::to_string(index);
  node->registry = std::make_shared<obs::MetricsRegistry>();
  node->routed = &registry_->counter(
      "crowdmap_cluster_uploads_routed_total", {{"node", node->name}},
      "Uploads routed to this node as acting primary");
  node->service = make_service(index, *node);
  nodes_.push_back(std::move(node));
}

std::unique_ptr<cloud::CrowdMapService> Cluster::make_service(
    std::size_t index, Node& node) {
  core::PipelineConfig config = options_.config;
  if (!config.storage.dir.empty()) {
    // Each node owns its own durable directory, the way each process of a
    // real deployment owns its own disk.
    config.storage.dir += "/node-" + std::to_string(index);
  }
  auto service = std::make_unique<cloud::CrowdMapService>(
      std::move(config), options_.decoder, pool_, node.registry,
      options_.storage_env);
  node.queue_depth = &node.registry->gauge(
      "crowdmap_worker_queue_depth", {},
      "Extraction tasks waiting in the pool");
  return service;
}

std::vector<std::size_t> Cluster::alive_indices_locked() const {
  std::vector<std::size_t> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->alive) out.push_back(i);
  }
  return out;
}

std::uint64_t Cluster::floor_hash(const FloorKey& key) {
  return common::stable_string_hash(key.first + "#" +
                                    std::to_string(key.second));
}

void Cluster::tick_faults_locked(std::uint64_t epoch) {
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

void Cluster::crash_node_locked(std::size_t index) {
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

bool Cluster::reachable_locked(std::size_t index, std::uint64_t epoch) const {
  return epoch >= nodes_[index]->partitioned_until;
}

ShardView Cluster::shard_view_locked(const FloorKey& key,
                                     std::uint64_t /*epoch*/) const {
  ShardView view;
  view.replicas = ring_.preference(floor_hash(key), replication_factor_);
  if (!view.replicas.empty()) view.primary = view.replicas.front();
  return view;
}

std::size_t Cluster::acting_primary_locked(const FloorKey& key,
                                           std::uint64_t epoch) {
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

ReplicationLog& Cluster::log_for_locked(const FloorKey& key) {
  auto it = logs_.find(key);
  if (it == logs_.end()) {
    it = logs_.emplace(key, ReplicationLog(floor_hash(key))).first;
  }
  return it->second;
}

std::size_t Cluster::sync_node_locked(std::size_t index, const FloorKey& key) {
  const auto it = logs_.find(key);
  if (it == logs_.end()) return 0;
  const ReplicationLog& log = it->second;
  Node& node = *nodes_[index];
  std::uint64_t& applied = node.applied[key];
  std::size_t replayed = 0;
  while (applied < log.head()) {
    node.service->ingest_document(decode_record(log.record(applied + 1)));
    ++applied;
    ++replayed;
  }
  return replayed;
}

void Cluster::apply_record_locked(std::size_t index, const FloorKey& key,
                                  std::uint64_t seqno) {
  Node& node = *nodes_[index];
  if (!node.alive) return;
  std::uint64_t& applied = node.applied[key];
  if (applied >= seqno) return;  // duplicate delivery: idempotent no-op
  const ReplicationLog& log = logs_.at(key);
  // A delivery beyond the watermark replays the gap first (delayed earlier
  // records), so replicas always apply in seqno order.
  while (applied < seqno) {
    node.service->ingest_document(decode_record(log.record(applied + 1)));
    ++applied;
  }
  if (flight_ != nullptr) {
    flight_->record(obs::FlightEventKind::kClusterReplicate,
                    static_cast<std::uint32_t>(index), floor_hash(key), seqno);
  }
}

void Cluster::deliver_record_locked(std::size_t index, const FloorKey& key,
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

std::uint64_t Cluster::commit_upload_locked(std::size_t primary,
                                            const FloorKey& key,
                                            const cloud::Document& doc,
                                            std::uint64_t epoch) {
  ReplicationLog& log = log_for_locked(key);
  const std::uint64_t seqno = log.append(encode_record(doc));
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
  const ShardView view = shard_view_locked(key, epoch);
  for (const std::size_t member : view.replicas) {
    if (member != primary) deliver_record_locked(member, key, seqno, epoch);
  }
  return seqno;
}

void Cluster::flush_network_locked(std::uint64_t epoch) {
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

void Cluster::rebalance_locked() {
  for (const auto& [key, log] : logs_) {
    const ShardView view = shard_view_locked(key, clock_.now());
    for (const std::size_t member : view.replicas) {
      if (sync_node_locked(member, key) > 0) {
        rebalance_moves_total_->increment();
      }
    }
  }
}

UploadTicket Cluster::submit_upload(const std::string& upload_id,
                                    const std::string& building, int floor,
                                    const cloud::Blob& payload,
                                    std::uint64_t deadline) {
  return submit_impl(std::nullopt, upload_id, building, floor, payload,
                     deadline);
}

UploadTicket Cluster::submit_upload_to(std::size_t node,
                                       const std::string& upload_id,
                                       const std::string& building, int floor,
                                       const cloud::Blob& payload,
                                       std::uint64_t deadline) {
  return submit_impl(node, upload_id, building, floor, payload, deadline);
}

UploadTicket Cluster::submit_impl(std::optional<std::size_t> forced_node,
                                  const std::string& upload_id,
                                  const std::string& building, int floor,
                                  const cloud::Blob& payload,
                                  std::uint64_t deadline) {
  const FloorKey key{building, floor};
  UploadTicket ticket;
  cloud::CrowdMapService* service = nullptr;

  const auto deliver_chunks = [&](cloud::CrowdMapService& svc) {
    for (const auto& chunk :
         cloud::split_into_chunks(payload, upload_id, chunk_bytes_)) {
      ++ticket.chunks_sent;
      if (svc.deliver(chunk) == cloud::IngestStatus::kRejected) {
        ++ticket.chunks_rejected;
      }
    }
  };
  const auto finish_locked = [&](std::uint64_t epoch)
                                 CM_REQUIRES(mutex_) {
    const auto doc =
        nodes_[ticket.node]->service->store().get(upload_id);
    if (!doc) {
      // Never reassembled (dropped/rejected chunks): nothing to commit.
      ticket.outcome = SubmitOutcome::kRejectedChunks;
      return;
    }
    ticket.seqno = commit_upload_locked(ticket.node, key, *doc, epoch);
    ticket.outcome = ticket.chunks_rejected == 0
                         ? SubmitOutcome::kAccepted
                         : SubmitOutcome::kRejectedChunks;
  };

  {
    common::MutexLock lock(mutex_);
    // Cluster chaos serializes the submit under the router lock: a crash
    // interrogation must never destroy a service another thread is
    // delivering into. Disarmed plans take the concurrent path below.
    const bool serialized = faults_.armed();
    const std::uint64_t epoch = clock_.advance();
    tick_faults_locked(epoch);
    flush_network_locked(epoch);
    if (deadline != 0 && epoch > deadline) {
      ticket.outcome = SubmitOutcome::kDeadlineExceeded;
      return ticket;
    }
    const std::size_t primary = acting_primary_locked(key, epoch);
    ticket.node = primary;
    if (forced_node.has_value() && *forced_node != primary) {
      wrong_shard_total_->increment();
      ticket.outcome = SubmitOutcome::kWrongShard;
      return ticket;
    }
    Node& node = *nodes_[primary];
    const std::size_t max_queue = options_.config.cluster.max_node_queue;
    if (max_queue != 0 &&
        node.queue_depth->value() > static_cast<double>(max_queue)) {
      sheds_total_->increment();
      if (flight_ != nullptr) {
        flight_->record(
            obs::FlightEventKind::kClusterShed,
            static_cast<std::uint32_t>(primary),
            static_cast<std::uint64_t>(node.queue_depth->value()));
      }
      ticket.outcome = SubmitOutcome::kShedding;
      return ticket;
    }
    sync_node_locked(primary, key);
    node.routed->increment();
    node.service->open_session(upload_id, building, floor);
    service = node.service.get();
    if (serialized) {
      deliver_chunks(*service);
      finish_locked(epoch);
      return ticket;
    }
  }
  deliver_chunks(*service);
  {
    common::MutexLock lock(mutex_);
    finish_locked(clock_.now());
  }
  return ticket;
}

void Cluster::drain() {
  std::vector<cloud::CrowdMapService*> services;
  {
    common::MutexLock lock(mutex_);
    flush_network_locked(clock_.now());
    for (const auto& node : nodes_) {
      if (node->alive) services.push_back(node->service.get());
    }
  }
  for (cloud::CrowdMapService* service : services) service->drain();
}

core::PipelineResult Cluster::build_floor_plan(
    const std::string& building, int floor,
    const std::optional<core::WorldFrame>& frame, std::size_t* built_on) {
  const FloorKey key{building, floor};
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(mutex_);
    const bool serialized = faults_.armed();
    const std::uint64_t epoch = clock_.advance();
    tick_faults_locked(epoch);
    flush_network_locked(epoch);
    const std::size_t node = acting_primary_locked(key, epoch);
    sync_node_locked(node, key);
    if (built_on != nullptr) *built_on = node;
    service = nodes_[node]->service.get();
    if (serialized) return service->build_floor_plan(building, floor, frame);
  }
  return service->build_floor_plan(building, floor, frame);
}

std::shared_ptr<const core::PipelineResult> Cluster::latest_plan(
    const std::string& building, int floor) {
  const FloorKey key{building, floor};
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(mutex_);
    const std::size_t node = acting_primary_locked(key, clock_.now());
    service = nodes_[node]->service.get();
  }
  return service->latest_plan(building, floor);
}

std::vector<trajectory::Trajectory> Cluster::trajectories(
    const std::string& building, int floor) {
  const FloorKey key{building, floor};
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(mutex_);
    const std::size_t node = acting_primary_locked(key, clock_.now());
    sync_node_locked(node, key);
    service = nodes_[node]->service.get();
  }
  return service->trajectories(building, floor);
}

bool Cluster::persist_artifact_cache(const std::string& building, int floor) {
  const FloorKey key{building, floor};
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(mutex_);
    const std::size_t node = acting_primary_locked(key, clock_.now());
    sync_node_locked(node, key);
    service = nodes_[node]->service.get();
  }
  return service->persist_artifact_cache(building, floor);
}

std::size_t Cluster::warm_artifact_cache_from(
    const cloud::DocumentStore& store) {
  std::vector<cloud::CrowdMapService*> services;
  {
    common::MutexLock lock(mutex_);
    for (const auto& node : nodes_) {
      if (node->alive) services.push_back(node->service.get());
    }
  }
  std::size_t restored = 0;
  for (cloud::CrowdMapService* service : services) {
    restored += service->warm_artifact_cache_from(store);
  }
  return restored;
}

common::Expected<storage::RecoveryReport> Cluster::recover_storage() {
  std::vector<cloud::CrowdMapService*> services;
  {
    common::MutexLock lock(mutex_);
    for (const auto& node : nodes_) {
      if (node->alive) services.push_back(node->service.get());
    }
  }
  storage::RecoveryReport aggregate;
  for (cloud::CrowdMapService* service : services) {
    auto report = service->recover_from_storage();
    if (!report.ok()) return report.error();
    aggregate.snapshot_loaded =
        aggregate.snapshot_loaded || report.value().snapshot_loaded;
    aggregate.segments_scanned += report.value().segments_scanned;
    aggregate.records_replayed += report.value().records_replayed;
    for (auto& record : report.value().quarantined) {
      aggregate.quarantined.push_back(std::move(record));
    }
  }
  return aggregate;
}

storage::Status Cluster::checkpoint_storage() {
  std::vector<cloud::CrowdMapService*> services;
  {
    common::MutexLock lock(mutex_);
    for (const auto& node : nodes_) {
      if (node->alive) services.push_back(node->service.get());
    }
  }
  for (cloud::CrowdMapService* service : services) {
    auto status = service->checkpoint_storage();
    if (!status.ok()) return status;
  }
  return storage::ok_status();
}

std::size_t Cluster::add_node() {
  common::MutexLock lock(mutex_);
  const std::size_t index = nodes_.size();
  make_node_locked(index);
  ring_.rebuild(alive_indices_locked());
  nodes_gauge_->set(static_cast<double>(alive_indices_locked().size()));
  if (options_.config.cluster.rebalance) rebalance_locked();
  return index;
}

bool Cluster::remove_node(std::size_t node) {
  common::MutexLock lock(mutex_);
  if (node >= nodes_.size() || !nodes_[node]->alive) return false;
  const auto alive = alive_indices_locked();
  if (alive.size() <= 1) return false;  // never empty the ring
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
  if (options_.config.cluster.rebalance) rebalance_locked();
  return true;
}

ShardView Cluster::shard_of(const std::string& building, int floor) const {
  common::MutexLock lock(mutex_);
  return shard_view_locked({building, floor}, clock_.now());
}

std::uint64_t Cluster::shard_log_head(const std::string& building,
                                      int floor) const {
  common::MutexLock lock(mutex_);
  const auto it = logs_.find({building, floor});
  return it == logs_.end() ? 0 : it->second.head();
}

io::Bytes Cluster::shard_log_segment(const std::string& building,
                                     int floor) const {
  common::MutexLock lock(mutex_);
  const auto it = logs_.find({building, floor});
  return it == logs_.end() ? io::Bytes{} : it->second.segment();
}

cloud::ServiceStats Cluster::stats() const {
  std::vector<cloud::CrowdMapService*> services;
  {
    common::MutexLock lock(mutex_);
    for (const auto& node : nodes_) {
      if (node->alive) services.push_back(node->service.get());
    }
  }
  cloud::ServiceStats aggregate;
  aggregate.durability.healthy = true;  // AND-seeded across persistent nodes
  for (cloud::CrowdMapService* service : services) {
    accumulate_stats(aggregate, service->stats());
  }
  if (!aggregate.durability.enabled) aggregate.durability.healthy = false;
  return aggregate;
}

cloud::ServiceStats Cluster::node_stats(std::size_t node) const {
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(mutex_);
    service = nodes_.at(node)->service.get();
  }
  return service->stats();
}

obs::MetricsSnapshot Cluster::metrics() const {
  std::vector<std::pair<std::string, std::shared_ptr<obs::MetricsRegistry>>>
      node_registries;
  {
    common::MutexLock lock(mutex_);
    for (const auto& node : nodes_) {
      if (node->alive) node_registries.emplace_back(node->name, node->registry);
    }
  }
  obs::MetricsSnapshot merged = registry_->snapshot();
  for (const auto& [name, registry] : node_registries) {
    obs::MetricsSnapshot snap = registry->snapshot();
    for (auto& family : snap.families) {
      obs::FamilySnapshot* target = nullptr;
      for (auto& existing : merged.families) {
        if (existing.name == family.name) {
          target = &existing;
          break;
        }
      }
      if (target == nullptr) {
        obs::FamilySnapshot fresh;
        fresh.name = family.name;
        fresh.help = family.help;
        fresh.type = family.type;
        merged.families.push_back(std::move(fresh));
        target = &merged.families.back();
      }
      for (auto& series : family.series) {
        series.labels.emplace_back("node", name);
        std::sort(series.labels.begin(), series.labels.end());
        target->series.push_back(std::move(series));
      }
    }
  }
  std::sort(merged.families.begin(), merged.families.end(),
            [](const obs::FamilySnapshot& a, const obs::FamilySnapshot& b) {
              return a.name < b.name;
            });
  for (auto& family : merged.families) {
    std::sort(family.series.begin(), family.series.end(),
              [](const obs::SeriesSnapshot& a, const obs::SeriesSnapshot& b) {
                return a.labels < b.labels;
              });
  }
  return merged;
}

std::shared_ptr<obs::MetricsRegistry> Cluster::node_registry(
    std::size_t node) const {
  common::MutexLock lock(mutex_);
  return nodes_.at(node)->registry;
}

const cloud::DocumentStore& Cluster::document_store(std::size_t node) const {
  common::MutexLock lock(mutex_);
  return nodes_.at(node)->service->store();
}

std::optional<obs::FlightDump> Cluster::flight_dump(std::size_t node,
                                                    bool deterministic) {
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(mutex_);
    service = nodes_.at(node)->service.get();
  }
  obs::FlightRecorder* flight = service->flight_recorder();
  if (flight == nullptr) return std::nullopt;
  return deterministic ? flight->deterministic_dump() : flight->dump();
}

std::optional<obs::FlightDump> Cluster::router_flight_dump(
    bool deterministic) {
  if (flight_ == nullptr) return std::nullopt;
  return deterministic ? flight_->deterministic_dump() : flight_->dump();
}

cloud::DurabilityStats Cluster::durability_stats() const {
  return stats().durability;
}

}  // namespace crowdmap::cluster
