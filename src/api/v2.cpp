#include "api/v2.hpp"

#include <algorithm>
#include <utility>

#include "cloud/chunking.hpp"
#include "sensors/serialize.hpp"

namespace crowdmap::api {

std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kRejectedChunks:
      return "rejected_chunks";
    case StatusCode::kWrongShard:
      return "wrong_shard";
    case StatusCode::kShedding:
      return "shedding";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

inline namespace v2 {

namespace {

Status rejected_chunks() {
  return Status::Error(StatusCode::kRejectedChunks,
                       "one or more chunks rejected; retransmit");
}

Status deadline_exceeded() {
  return Status::Error(StatusCode::kDeadlineExceeded,
                       "deadline elapsed before admission");
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

std::optional<sim::SensorRichVideo> Client::decode(
    const cloud::Document& doc) const {
  {
    common::MutexLock lock(videos_mutex_);
    const auto it = videos_.find({doc.building, doc.floor, doc.id});
    if (it != videos_.end()) return it->second;
  }
  if (options_.decoder) return options_.decoder(doc);
  return std::nullopt;
}

SubmitUploadResponse Client::submit_upload(const SubmitUploadRequest& request) {
  return submit(std::nullopt, request, std::nullopt);
}

SubmitUploadResponse Client::submit_upload_to(
    std::size_t node, const SubmitUploadRequest& request) {
  return submit(node, request, std::nullopt);
}

SubmitUploadResponse Client::submit_video(const sim::SensorRichVideo& video,
                                          const RequestOptions& options) {
  SubmitUploadRequest request;
  request.upload_id = "video-" + std::to_string(video.video_id);
  request.building = video.building;
  request.floor = video.floor;
  // The pixels stay in "blob storage" (the side table); the wire payload is
  // the serialized inertial stream, so chunking sees realistic bytes.
  request.payload = sensors::encode_imu(video.imu);
  request.options = options;
  // Copied here, outside every lock; submit() files the copy only once it
  // has admitted the request.
  return submit(std::nullopt, request, video);
}

SubmitUploadResponse Client::submit(std::optional<std::size_t> forced_node,
                                    const SubmitUploadRequest& request,
                                    std::optional<sim::SensorRichVideo> video) {
  const FloorKey key{request.building, request.floor};
  SubmitUploadResponse response;
  cloud::CrowdMapService* service = nullptr;

  const auto deliver_chunks = [&](cloud::CrowdMapService& svc) {
    for (const auto& chunk : cloud::split_into_chunks(
             request.payload, request.upload_id, chunk_bytes_)) {
      ++response.chunks_sent;
      if (svc.deliver(chunk) == cloud::IngestStatus::kRejected) {
        ++response.chunks_rejected;
      }
    }
  };
  const auto finish_locked = [&](std::uint64_t epoch)
                                 CM_REQUIRES(router_mutex_) {
    const auto doc =
        nodes_[response.node]->service->store().get(request.upload_id);
    if (!doc) {
      // Never reassembled (dropped/rejected chunks): nothing to commit.
      response.status = rejected_chunks();
      return;
    }
    response.seqno = commit_upload_locked(response.node, key, *doc, epoch);
    if (response.chunks_rejected != 0) response.status = rejected_chunks();
  };

  {
    common::MutexLock lock(router_mutex_);
    // Cluster chaos serializes the submit under the router lock: a crash
    // interrogation must never destroy a service another thread is
    // delivering into. Disarmed plans take the concurrent path below.
    const bool serialized = faults_.armed();
    const std::uint64_t epoch = clock_.advance();
    tick_faults_locked(epoch);
    flush_network_locked(epoch);
    const std::uint64_t deadline = request.options.deadline_tick;
    if (deadline != 0 && epoch > deadline) {
      response.status = deadline_exceeded();
      return response;
    }
    const std::size_t primary = acting_primary_locked(key, epoch);
    response.node = primary;
    if (forced_node.has_value() && *forced_node != primary) {
      wrong_shard_total_->increment();
      response.status = Status::Error(StatusCode::kWrongShard,
                                      "node is not the shard's acting primary");
      return response;
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
      response.status = Status::Error(
          StatusCode::kShedding, "acting primary over cluster.max_node_queue");
      return response;
    }
    if (video.has_value()) {
      // Admitted: file the pixels before the first chunk lands, because
      // extraction may start, on any replica, right after the last one.
      common::MutexLock videos_lock(videos_mutex_);
      videos_.insert_or_assign(
          UploadKey{request.building, request.floor, request.upload_id},
          std::move(*video));
    }
    sync_node_locked(primary, key);
    node.routed->increment();
    node.service->open_session(request.upload_id, request.building,
                               request.floor);
    service = node.service.get();
    if (serialized) {
      deliver_chunks(*service);
      finish_locked(epoch);
      return response;
    }
  }
  deliver_chunks(*service);
  {
    common::MutexLock lock(router_mutex_);
    finish_locked(clock_.now());
  }
  return response;
}

void Client::drain() {
  std::vector<cloud::CrowdMapService*> services;
  {
    common::MutexLock lock(router_mutex_);
    flush_network_locked(clock_.now());
    services = live_services_locked();
  }
  for (cloud::CrowdMapService* service : services) service->drain();
}

BuildPlanResponse Client::build_plan(const BuildPlanRequest& request) {
  BuildPlanResponse response;
  if (request.options.deadline_tick != 0 &&
      clock_.now() > request.options.deadline_tick) {
    response.status = deadline_exceeded();
    return response;
  }
  const FloorKey key{request.building, request.floor};
  const auto build = [&](cloud::CrowdMapService& service) {
    response.result =
        service.build_floor_plan(request.building, request.floor,
                                 request.frame);
  };
  // Like submit(): armed cluster faults build under the router lock.
  const bool serialized = faults_.armed();
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(router_mutex_);
    const std::uint64_t epoch = clock_.advance();
    tick_faults_locked(epoch);
    flush_network_locked(epoch);
    response.node = acting_primary_locked(key, epoch);
    sync_node_locked(response.node, key);
    service = nodes_[response.node]->service.get();
    if (serialized) build(*service);
  }
  if (!serialized) build(*service);
  response.degradation = response.result.degradation;
  response.cache = response.result.diagnostics.cache;
  response.metrics = metrics();
  return response;
}

cloud::CrowdMapService& Client::route_read(const FloorKey& key) const {
  common::MutexLock lock(router_mutex_);
  const std::size_t node = acting_primary_locked(key, clock_.now());
  sync_node_locked(node, key);
  return *nodes_[node]->service;
}

std::vector<trajectory::Trajectory> Client::trajectories(
    const std::string& building, int floor) const {
  return route_read({building, floor}).trajectories(building, floor);
}

bool Client::persist_artifact_cache(const std::string& building, int floor) {
  return route_read({building, floor}).persist_artifact_cache(building, floor);
}

std::size_t Client::warm_artifact_cache_from(
    const cloud::DocumentStore& store) {
  std::size_t restored = 0;
  for (cloud::CrowdMapService* service : live_services()) {
    restored += service->warm_artifact_cache_from(store);
  }
  return restored;
}

common::Expected<storage::RecoveryReport> Client::recover_storage() {
  storage::RecoveryReport aggregate;
  for (cloud::CrowdMapService* service : live_services()) {
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

storage::Status Client::checkpoint_storage() {
  for (cloud::CrowdMapService* service : live_services()) {
    auto status = service->checkpoint_storage();
    if (!status.ok()) return status;
  }
  return storage::ok_status();
}

std::size_t Client::nodes() const {
  common::MutexLock lock(router_mutex_);
  return alive_indices_locked().size();
}

std::string Client::node_name(std::size_t node) const {
  common::MutexLock lock(router_mutex_);
  return nodes_.at(node)->name;
}

ShardView Client::shard_of(const std::string& building, int floor) const {
  common::MutexLock lock(router_mutex_);
  return shard_view_locked({building, floor});
}

const cloud::DocumentStore& Client::document_store(std::size_t node) const {
  common::MutexLock lock(router_mutex_);
  return nodes_.at(node)->service->store();
}

cloud::ServiceStats Client::stats() const {
  cloud::ServiceStats aggregate;
  aggregate.durability.healthy = true;  // AND-seeded across persistent nodes
  for (cloud::CrowdMapService* service : live_services()) {
    accumulate_stats(aggregate, service->stats());
  }
  if (!aggregate.durability.enabled) aggregate.durability.healthy = false;
  return aggregate;
}

cloud::ServiceStats Client::node_stats(std::size_t node) const {
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(router_mutex_);
    service = nodes_.at(node)->service.get();
  }
  return service->stats();
}

obs::MetricsSnapshot Client::metrics() const {
  std::vector<std::pair<std::string, std::shared_ptr<obs::MetricsRegistry>>>
      node_registries;
  {
    common::MutexLock lock(router_mutex_);
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

std::optional<obs::FlightDump> Client::flight_dump(std::size_t node,
                                                   bool deterministic) {
  cloud::CrowdMapService* service = nullptr;
  {
    common::MutexLock lock(router_mutex_);
    service = nodes_.at(node)->service.get();
  }
  obs::FlightRecorder* flight = service->flight_recorder();
  if (flight == nullptr) return std::nullopt;
  return deterministic ? flight->deterministic_dump() : flight->dump();
}

std::optional<obs::FlightDump> Client::router_flight_dump(bool deterministic) {
  if (flight_ == nullptr) return std::nullopt;
  return deterministic ? flight_->deterministic_dump() : flight_->dump();
}

}  // namespace v2
}  // namespace crowdmap::api
