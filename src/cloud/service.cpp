#include "cloud/service.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "cache/serialize.hpp"
#include "trajectory/trajectory.hpp"

namespace crowdmap::cloud {

namespace {

/// Reserved namespace for service-internal documents: they share the store
/// with uploads but never collide with a floor query (no real building is
/// named this) and stay enumerable via the floor index.
constexpr const char* kSystemBuilding = "sys:crowdmap";
constexpr int kSystemFloor = 0;

std::string artifact_cache_doc_id(const std::string& building, int floor) {
  return "sys/artifact-cache/" + building + "#" + std::to_string(floor);
}

}  // namespace

CrowdMapService::CrowdMapService(core::PipelineConfig config,
                                 VideoDecoder decoder, common::ThreadPool& pool,
                                 std::shared_ptr<obs::MetricsRegistry> registry,
                                 storage::Env* storage_env)
    : config_(std::move(config)),
      decoder_(std::move(decoder)),
      registry_(registry ? std::move(registry)
                         : std::make_shared<obs::MetricsRegistry>()),
      tasks_(pool),
      fan_out_pool_(config_.parallel.threads != 1 ? &pool : nullptr) {
  uploads_completed_ = &registry_->counter(
      "crowdmap_uploads_completed_total", {}, "Chunked uploads reassembled");
  decode_failures_ = &registry_->counter(
      "crowdmap_decode_failures_total", {}, "Uploads the decoder rejected");
  sensor_dropouts_ = &registry_->counter(
      "crowdmap_sensor_dropouts_injected_total", {},
      "Uploads whose sensor tail was truncated by the chaos plan");
  cache_warmstart_rejected_ = &registry_->counter(
      "crowdmap_cache_warmstart_rejected_total", {},
      "Artifact-cache warm-start snapshots rejected as truncated or corrupt");
  queue_depth_ = &registry_->gauge("crowdmap_worker_queue_depth", {},
                                   "Extraction tasks waiting in the pool");
  extract_seconds_ = &registry_->histogram(
      "crowdmap_extract_seconds", {}, {},
      "Per-upload trajectory extraction latency");
  if (config_.flight.enabled) flight_ = std::make_unique<obs::FlightRecorder>();
  if (!config_.storage.dir.empty()) {
    storage::Env& env =
        storage_env != nullptr ? *storage_env : storage::posix_env();
    DurableStoreOptions opts;
    opts.dir = config_.storage.dir;
    opts.segment_bytes = config_.storage.segment_bytes;
    opts.snapshot_every = config_.storage.snapshot_every;
    opts.fsync = config_.storage.fsync;
    durable_ = std::make_unique<DurableDocumentStore>(store_, env, opts,
                                                      registry_, flight_.get());
  }
  tasks_.set_queue_observer(
      [gauge = queue_depth_, flight = flight_.get()](std::size_t depth) {
        gauge->set(static_cast<double>(depth));
        if (flight != nullptr) {
          flight->record(obs::FlightEventKind::kQueueDepth, 0, depth);
        }
      });
  ingest_ = std::make_unique<IngestService>(
      store_, [this](const Document& doc) { on_upload_complete(doc); },
      IngestConfig{}, registry_);
  ingest_->set_flight_recorder(flight_.get());
  faults_.arm(config_.faults);
}

void CrowdMapService::open_session(const std::string& upload_id,
                                   const std::string& building, int floor) {
  ingest_->open_session(upload_id, building, floor);
}

IngestStatus CrowdMapService::deliver(const Chunk& chunk) {
  return ingest_->deliver(chunk);
}

std::vector<std::uint32_t> CrowdMapService::missing_chunks(
    const std::string& upload_id) {
  return ingest_->missing_chunks(upload_id);
}

void CrowdMapService::ingest_document(const Document& doc) {
  store_.put(doc);
  on_upload_complete(doc);
}

core::IncrementalPlanner& CrowdMapService::planner_for(const FloorKey& key) {
  common::MutexLock lock(mutex_);
  auto& slot = planners_[key];
  if (!slot) {
    // Every floor builds on the shared pool and records into the service
    // recorder: one executor and one black box for the backend.
    slot = std::make_unique<core::IncrementalPlanner>(
        config_, registry_, fan_out_pool_, flight_.get());
  }
  return *slot;
}

void CrowdMapService::on_upload_complete(const Document& doc) {
  uploads_completed_->increment();
  dispatch_extraction(doc);
  // Auto-checkpoint (storage.snapshot_every) rides the upload-completion
  // path: the store's put for this upload has already been journaled, and
  // the ingest thread holds no lock the checkpoint needs.
  if (durable_ != nullptr) durable_->maybe_checkpoint();
}

void CrowdMapService::dispatch_extraction(const Document& doc) {
  // Decode + extract on the worker pool; the calling thread returns at once.
  tasks_.submit([this, doc] {
    const FloorKey key{doc.building, doc.floor};
    // Chaos: decode failure, keyed by the upload's stable identity so the
    // same plan loses the same uploads at any worker count. The document is
    // quarantined, not dropped — operators can replay it post-incident.
    const bool injected = faults_.should_fire(
        common::faults::kDecodeFail, common::stable_string_hash(doc.id));
    if (injected) {
      CROWDMAP_LOG(kWarn, "service")
          << "injected decode failure for upload " << doc.id;
      store_.quarantine(doc, "fault.decode");
    }
    auto video = injected ? std::nullopt : decoder_(doc);
    if (!video) {
      decode_failures_->increment();
      common::MutexLock lock(mutex_);
      ++losses_[key].decode_failures;
      return;
    }
    // Chaos: sensor dropout — the phone stopped recording mid-walk. Keep a
    // deterministic fraction of the head of the capture and truncate the
    // synchronized IMU tail to match.
    if (faults_.should_fire(common::faults::kExtractSensorDropout,
                            common::hash_u64(
                                static_cast<std::uint64_t>(video->video_id)))) {
      sensor_dropouts_->increment();
      {
        common::MutexLock lock(mutex_);
        ++losses_[key].sensor_dropouts;
      }
      const std::size_t keep =
          std::max<std::size_t>(1, video->frames.size() / 2);
      if (keep < video->frames.size()) {
        video->frames.resize(keep);
        const double cutoff = video->frames.back().t;
        auto& samples = video->imu.samples;
        while (!samples.empty() && samples.back().t > cutoff) {
          samples.pop_back();
        }
      }
    }
    common::Stopwatch timer;
    auto traj = trajectory::extract_trajectory(*video, config_.extraction,
                                               fan_out_pool_);
    extract_seconds_->observe(timer.elapsed_seconds());
    // Admission applies the planner's unqualified-data gates and hashes the
    // content key — both on this worker thread, so refresh never pays them.
    if (!planner_for(key).ingest(std::move(traj))) {
      CROWDMAP_LOG(kInfo, "service")
          << "dropped unqualified upload " << doc.id;
    }
  });
}

void CrowdMapService::drain() { tasks_.wait(); }

core::PipelineResult CrowdMapService::build_floor_plan(
    const std::string& building, int floor,
    const std::optional<core::WorldFrame>& frame) {
  drain();
  const FloorKey key{building, floor};
  core::PipelineResult out = planner_for(key).refresh(frame);
  // Fold the floor's service-side losses into the planner's degradation
  // report so the caller sees the whole story, front door included.
  common::MutexLock lock(mutex_);
  const FloorLosses& losses = losses_[key];
  out.degradation.uploads_lost_decode = losses.decode_failures;
  out.degradation.sensor_dropouts = losses.sensor_dropouts;
  return out;
}

std::vector<trajectory::Trajectory> CrowdMapService::trajectories(
    const std::string& building, int floor) const {
  core::IncrementalPlanner* planner = nullptr;
  {
    common::MutexLock lock(mutex_);
    const auto it = planners_.find({building, floor});
    if (it == planners_.end()) return {};
    planner = it->second.get();
  }
  return planner->trajectories();
}

bool CrowdMapService::persist_artifact_cache(const std::string& building,
                                             int floor) {
  cache::ArtifactCache* cache = nullptr;
  {
    common::MutexLock lock(mutex_);
    const auto it = planners_.find({building, floor});
    if (it != planners_.end()) cache = it->second->artifact_cache();
  }
  if (cache == nullptr) return false;
  Document doc;
  doc.id = artifact_cache_doc_id(building, floor);
  doc.building = kSystemBuilding;
  doc.floor = kSystemFloor;
  doc.metadata["kind"] = "artifact-cache";
  doc.metadata["building"] = building;
  doc.metadata["floor"] = std::to_string(floor);
  doc.payload = cache::encode_artifact_cache(cache->export_entries());
  store_.put(std::move(doc));
  return true;
}

std::size_t CrowdMapService::warm_artifact_cache_from(
    const DocumentStore& store) {
  std::size_t restored = 0;
  for (const auto& id : store.ids_for_floor(kSystemBuilding, kSystemFloor)) {
    const auto doc = store.get(id);
    if (!doc) continue;
    const auto kind = doc->metadata.find("kind");
    if (kind == doc->metadata.end() || kind->second != "artifact-cache") {
      continue;
    }
    auto entries = cache::try_decode_artifact_cache(doc->payload);
    if (!entries) {
      cache_warmstart_rejected_->increment();
      CROWDMAP_LOG(kWarn, "service")
          << "skipping malformed artifact-cache snapshot " << id << ": "
          << entries.error().message;
      continue;
    }
    const auto building = doc->metadata.find("building");
    const auto floor = doc->metadata.find("floor");
    if (building == doc->metadata.end() || floor == doc->metadata.end()) {
      continue;
    }
    cache::ArtifactCache* cache =
        planner_for({building->second, std::stoi(floor->second)})
            .artifact_cache();
    if (cache == nullptr) continue;  // caching disabled in this config
    restored += cache->restore(entries.value());
  }
  return restored;
}

common::Expected<storage::RecoveryReport>
CrowdMapService::recover_from_storage() {
  if (durable_ == nullptr) {
    return common::make_error("storage.disabled",
                              "config.storage.dir is empty");
  }
  auto report = durable_->open_and_recover();
  if (!report.ok()) return report;
  // Warm the per-floor artifact caches before re-dispatching extraction, so
  // the replayed refreshes reuse their predecessor's artifacts.
  (void)warm_artifact_cache_from(store_);
  // Planners are memory-only: rebuild each floor's corpus by re-running
  // extraction over the recovered uploads. ingest() replaces by video_id,
  // so replay converges to exactly one trajectory per recovered upload.
  for (const Document& doc : store_.export_documents()) {
    if (doc.building == kSystemBuilding) continue;
    dispatch_extraction(doc);
  }
  return report;
}

storage::Status CrowdMapService::checkpoint_storage() {
  if (durable_ == nullptr) {
    return common::make_error("storage.disabled",
                              "config.storage.dir is empty");
  }
  drain();
  std::vector<FloorKey> keys;
  {
    common::MutexLock lock(mutex_);
    keys.reserve(planners_.size());
    for (const auto& [key, planner] : planners_) keys.push_back(key);
  }
  // Snapshot every floor's artifact cache into the store (journaled like any
  // put) so the checkpoint carries warm-start state alongside the documents.
  for (const FloorKey& key : keys) {
    (void)persist_artifact_cache(key.first, key.second);
  }
  return durable_->checkpoint();
}

ServiceStats CrowdMapService::stats() const {
  ServiceStats out;
  out.uploads_completed = uploads_completed_->value();
  out.decode_failures = decode_failures_->value();
  // Every decoded video is extracted and presented to its floor's planner,
  // so the planners' admission series count decodes and kept extractions.
  const obs::MetricsSnapshot snapshot = registry_->snapshot();
  out.videos_decoded = static_cast<std::size_t>(
      snapshot.value("crowdmap_videos_ingested_total"));
  out.trajectories_extracted = static_cast<std::size_t>(
      snapshot.value("crowdmap_trajectories_kept_total"));
  out.sensor_dropouts = sensor_dropouts_->value();
  out.cache_warmstart_rejected = cache_warmstart_rejected_->value();
  out.ingest = ingest_->stats();
  // Every refused delivery is counted by exactly one ingest family: an
  // unknown session or corrupt framing, else a damaged chunk.
  out.uploads_rejected =
      out.ingest.uploads_rejected + out.ingest.chunks_rejected;
  if (durable_ != nullptr) out.durability = durable_->stats();
  {
    common::MutexLock lock(mutex_);
    for (const auto& [key, planner] : planners_) {
      // The planners own the admission counters; the registry's
      // crowdmap_trajectories_dropped_total is the same sum.
      out.trajectories_dropped += planner->dropped_count();
      const cache::ArtifactCache* cache = planner->artifact_cache();
      if (cache == nullptr) continue;
      const cache::ArtifactCacheStats s = cache->stats();
      out.artifact_cache.hits += s.hits;
      out.artifact_cache.misses += s.misses;
      out.artifact_cache.invalidations += s.invalidations;
      out.artifact_cache.entries += s.entries;
      out.artifact_cache.bytes += s.bytes;
      for (std::size_t f = 0; f < cache::kFamilyCount; ++f) {
        out.artifact_cache.family_hits[f] += s.family_hits[f];
        out.artifact_cache.family_misses[f] += s.family_misses[f];
      }
    }
  }
  return out;
}

}  // namespace crowdmap::cloud
