// CrowdMapService — one node of the cloud backend (paper §IV.2): chunked
// uploads land in the document store through the ingestion service; a task
// group on a borrowed worker pool extracts trajectories asynchronously (the
// Spark-cluster stand-in); floor plans are built per (building, floor) by
// incremental planners that reuse content-addressed artifacts across
// refreshes (docs/INCREMENTAL.md). api::Client runs one per node and routes
// every request to it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/docstore.hpp"
#include "cloud/durable_store.hpp"
#include "cloud/ingest.hpp"
#include "common/annotations.hpp"
#include "common/thread_pool.hpp"
#include "core/incremental.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "storage/env.hpp"

namespace crowdmap::cloud {

/// Decodes an upload payload into a sensor-rich video. The service is
/// format-agnostic: the deployment supplies the codec (the simulation
/// harness passes videos by side table; a production system would decode
/// the zipped recording).
using VideoDecoder =
    std::function<std::optional<sim::SensorRichVideo>(const Document&)>;

/// Snapshot of the service's health counters. A view over the service's
/// MetricsRegistry — stats() reads the same counters the Prometheus export
/// reports, so the two can never disagree.
struct ServiceStats {
  std::size_t uploads_completed = 0;
  /// Chunk deliveries ingestion refused: ingest.uploads_rejected +
  /// ingest.chunks_rejected.
  std::size_t uploads_rejected = 0;
  /// The planners' crowdmap_videos_ingested_total: every decoded upload.
  std::size_t videos_decoded = 0;
  std::size_t decode_failures = 0;
  /// The planners' crowdmap_trajectories_kept_total.
  std::size_t trajectories_extracted = 0;
  std::size_t trajectories_dropped = 0;  // summed over the floor planners
  /// Injected sensor dropouts applied before extraction (chaos runs only).
  std::size_t sensor_dropouts = 0;
  /// The ingest front door's own counters (session lifecycle, chunk-level
  /// rejects/duplicates, quarantine traffic).
  IngestStats ingest;
  /// Artifact-cache totals summed over every floor's planner (zeros when
  /// caching is disabled via config.incremental.artifact_cache_bytes == 0).
  cache::ArtifactCacheStats artifact_cache;
  /// Warm-start snapshots rejected as truncated/corrupt (the service fell
  /// back to a cold build for those floors instead of failing).
  std::size_t cache_warmstart_rejected = 0;
  /// Durable-store facts (enabled == false when config.storage.dir is
  /// empty; all other fields are then zero).
  DurabilityStats durability;
};

/// End-to-end backend: ingestion -> async feature extraction -> per-floor
/// incremental reconstruction. Thread-safe.
class CrowdMapService {
 public:
  /// `pool` (borrowed, must outlive the service) runs the service's
  /// extraction tasks through the service's own task group, and its floors'
  /// planners fan out on it; several services may share one.
  /// `registry` defaults to a fresh service-local registry; pass a shared
  /// one to co-locate several services behind one exporter endpoint.
  /// `storage_env` (borrowed, must outlive the service) overrides the
  /// filesystem the durable store writes through — tests pass a FaultEnv;
  /// nullptr uses the real posix env. Ignored when config.storage.dir is
  /// empty (persistence disabled, the historical in-memory behavior).
  CrowdMapService(core::PipelineConfig config, VideoDecoder decoder,
                  common::ThreadPool& pool,
                  std::shared_ptr<obs::MetricsRegistry> registry = nullptr,
                  storage::Env* storage_env = nullptr);

  /// Opens an upload session (the Task-1 geo-spatial annotation).
  void open_session(const std::string& upload_id, const std::string& building,
                    int floor);

  /// Delivers one chunk; completed uploads are decoded and feature-extracted
  /// on the worker pool.
  IngestStatus deliver(const Chunk& chunk);

  /// Chunk indices a pending upload still needs (retransmit round); see
  /// IngestService::missing_chunks for the budget semantics.
  [[nodiscard]] std::vector<std::uint32_t> missing_chunks(
      const std::string& upload_id);

  /// Replication/rebalance seam (crowdmap::cluster): admits an already
  /// reassembled upload document as if its final chunk had just cleared
  /// ingestion — store put plus async decode/extraction. Bypasses the
  /// chunked front door: replication is a reliable internal transport, so
  /// ingest chunk faults never re-fire for replicated copies, keeping the
  /// client-facing fault interrogations once-per-upload across the cluster.
  /// Idempotent per document id (the store put replaces, planner admission
  /// dedupes by video id).
  void ingest_document(const Document& doc);

  /// Blocks until every queued extraction of this service has finished;
  /// other services' work on the shared pool is not waited for.
  void drain();

  /// Builds the floor plan for one (building, floor) from every trajectory
  /// extracted so far. Drains first, then refreshes that floor's planner:
  /// artifacts untouched by new uploads replay from the cache, so repeat
  /// builds cost O(delta), not O(corpus), while the returned plan stays
  /// byte-identical to a cold rebuild. The degradation report counts the
  /// decode failures and sensor dropouts of this floor's uploads only.
  [[nodiscard]] core::PipelineResult build_floor_plan(
      const std::string& building, int floor,
      const std::optional<core::WorldFrame>& frame = std::nullopt)
      CM_EXCLUDES(mutex_);

  /// Admitted trajectories of one floor, sorted by video_id (the canonical
  /// refresh order). Call drain() first if extractions may be in flight.
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories(
      const std::string& building, int floor) const CM_EXCLUDES(mutex_);

  /// Snapshots one floor's artifact cache into this service's document store
  /// (a reserved system document; invisible to upload queries). Returns
  /// false when that floor has no planner or caching is disabled.
  bool persist_artifact_cache(const std::string& building, int floor)
      CM_EXCLUDES(mutex_);

  /// Warms per-floor artifact caches from snapshots previously written by
  /// persist_artifact_cache() into `store` (typically a restarted service
  /// pointing at its predecessor's store). Malformed snapshots are skipped,
  /// not fatal. Returns the number of artifacts restored.
  std::size_t warm_artifact_cache_from(const DocumentStore& store)
      CM_EXCLUDES(mutex_);

  /// Replays the durable store back into memory (docs/DURABILITY.md): opens
  /// the log, restores snapshot + WAL with damaged tail records quarantined,
  /// warms per-floor artifact caches from recovered snapshots, re-dispatches
  /// extraction for every recovered upload (planner ingest is idempotent by
  /// video_id), and attaches the journal so new mutations persist. Call once
  /// before serving traffic; never throws. Errors ("storage.disabled" when
  /// config.storage.dir is empty, manifest corruption, env failures) come
  /// back through the Expected.
  common::Expected<storage::RecoveryReport> recover_from_storage()
      CM_EXCLUDES(mutex_);

  /// Drains in-flight work, snapshots every floor's artifact cache into the
  /// store, then checkpoints the durable log (snapshot + segment
  /// compaction). The clean-shutdown path; also callable mid-flight.
  storage::Status checkpoint_storage() CM_EXCLUDES(mutex_);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const DocumentStore& store() const noexcept { return store_; }

  /// The service-wide flight recorder: one set of rings behind ingest, the
  /// task group and every floor's planner. nullptr when
  /// config.flight.enabled == false.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() noexcept {
    return flight_.get();
  }

 private:
  using FloorKey = std::pair<std::string, int>;

  /// Runs on the ingest thread; hands decode + extraction to the group. The
  /// extraction task admits the trajectory into the floor's planner.
  void on_upload_complete(const Document& doc) CM_EXCLUDES(mutex_);

  /// The task half of on_upload_complete, shared with recovery replay
  /// (which re-dispatches stored uploads without re-counting completions).
  void dispatch_extraction(const Document& doc) CM_EXCLUDES(mutex_);

  /// The floor's planner, created on first use (shares the service registry
  /// and borrows the worker pool). The returned reference is stable:
  /// planners are never destroyed while the service lives.
  core::IncrementalPlanner& planner_for(const FloorKey& key)
      CM_EXCLUDES(mutex_);

  /// Service-side losses of one floor's uploads, before its planner sees
  /// them; build_floor_plan() folds them into that floor's report.
  struct FloorLosses {
    std::size_t decode_failures = 0;
    std::size_t sensor_dropouts = 0;
  };

  core::PipelineConfig config_;
  VideoDecoder decoder_;
  DocumentStore store_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* uploads_completed_ = nullptr;
  obs::Counter* decode_failures_ = nullptr;
  obs::Counter* sensor_dropouts_ = nullptr;
  obs::Counter* cache_warmstart_rejected_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* extract_seconds_ = nullptr;
  /// Declared before tasks_ (and destroyed after it): the group's queue
  /// observer records into these rings from worker threads until the group's
  /// last running task returns in ~CrowdMapService.
  std::unique_ptr<obs::FlightRecorder> flight_;
  /// Declared after store_/flight_ (borrows both) and before tasks_: worker
  /// threads journal through it until the group's tasks finish, and its
  /// destructor detaches from the still-live store.
  std::unique_ptr<DurableDocumentStore> durable_;
  /// Service-side chaos plan (decode.fail, extract.sensor_dropout); armed
  /// from config.faults, disarmed (zero-cost) by default.
  common::FaultInjector faults_;

  mutable common::Mutex mutex_;
  // One incremental planner per (building, floor) — each owns that floor's
  // corpus and artifact cache. The mutex and both maps are declared before
  // tasks_ (and so destroyed after it): extraction tasks reach both maps
  // until the last one returns — a service torn down with work still queued
  // (the cluster's node-crash fault) drops its queued tasks and waits for its
  // running ones before any planner goes.
  std::map<FloorKey, std::unique_ptr<core::IncrementalPlanner>> planners_
      CM_GUARDED_BY(mutex_);
  std::map<FloorKey, FloorLosses> losses_ CM_GUARDED_BY(mutex_);
  common::TaskGroup tasks_;
  /// What extraction and the planners fan out on: the shared pool, or
  /// nullptr when config.parallel.threads == 1 demands serial execution.
  common::ThreadPool* const fan_out_pool_;
  std::unique_ptr<IngestService> ingest_;
};

}  // namespace crowdmap::cloud
