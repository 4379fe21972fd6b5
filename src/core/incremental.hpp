// IncrementalPlanner — the dependency-tracked scheduler that makes per-upload
// refresh cost O(delta) instead of O(corpus) (docs/INCREMENTAL.md). It models
// the pipeline as the stage DAG
//
//   decode -> extract -> aggregate -> skeleton -> rooms -> arrange
//
// and owns what must persist *between* refreshes for incrementality to pay:
// the extracted corpus (hashed once at admission), the content-addressed
// ArtifactCache, and the S2 memo cache. ingest() appends to an inbox; each
// refresh() folds the inbox into the corpus (kept sorted by video_id) and
// lends the corpus by move to a fresh CrowdMapPipeline with those caches
// attached, taking it back when the run ends — the corpus is never copied.
// Stages whose input set did not change resolve to the same artifact keys
// and replay from the cache; only work downstream of the new upload
// recomputes. Because reuse is keyed on content, invalidation is implicit —
// there is no out-of-date bit to get wrong, and the refreshed plan is
// byte-identical to a cold rebuild at any thread count
// (tests/test_determinism.cpp).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/memo_cache.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "obs/flight.hpp"

namespace crowdmap::core {

/// One node of the stage DAG (documentation/tooling view; the dependency
/// edges are what justify each seam's key preimage).
struct StageInfo {
  const char* name;      // stage span name
  const char* inputs;    // upstream dependencies, comma-separated
  const char* artifact;  // cached artifact family, "-" where always live
};

/// The pipeline's stage DAG in execution order.
[[nodiscard]] std::span<const StageInfo> stage_dag() noexcept;

/// Thread-safe incremental floor-plan planner for one floor's corpus.
/// ingest() may be called concurrently (the service's extraction workers
/// do); refresh() calls are serialized internally, so a background refresh
/// and a foreground build cannot interleave mid-pipeline.
class IncrementalPlanner {
 public:
  /// `registry` defaults to a fresh registry; pass the service's shared one
  /// to fold refresh metrics into its exports. Cache sizing and background
  /// behavior come from `config.incremental`.
  explicit IncrementalPlanner(
      PipelineConfig config,
      std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

  IncrementalPlanner(const IncrementalPlanner&) = delete;
  IncrementalPlanner& operator=(const IncrementalPlanner&) = delete;

  /// Admits one extracted trajectory: applies the pipeline's quality gates,
  /// hashes the content key (outside any lock — safe to call from worker
  /// threads, and while a refresh runs) and appends to the inbox the next
  /// refresh folds into the corpus. Idempotent by video_id — a re-submitted
  /// upload (retry storm, post-crash replay) replaces its earlier extraction
  /// rather than duplicating it. Returns false when the gates rejected the
  /// upload.
  bool ingest(trajectory::Trajectory traj) CM_EXCLUDES(mutex_);

  /// Folds the inbox into the corpus and rebuilds the floor plan over it,
  /// reusing every artifact whose inputs did not change. Serialized against
  /// concurrent refreshes. The result is retained (latest()) and returned.
  std::shared_ptr<const PipelineResult> refresh(
      const std::optional<WorldFrame>& frame = std::nullopt)
      CM_EXCLUDES(mutex_, refresh_mutex_);

  /// Last complete refresh result; nullptr before the first refresh. The
  /// service serves this while a background refresh runs.
  [[nodiscard]] std::shared_ptr<const PipelineResult> latest() const
      CM_EXCLUDES(mutex_);

  /// Cache reuse of the most recent refresh (all zeros before the first).
  [[nodiscard]] CacheReuseStats last_reuse() const CM_EXCLUDES(mutex_);

  /// Kept trajectories — the corpus plus the inbox, an inbox entry winning
  /// over a corpus entry with the same video_id — sorted by video_id (the
  /// refresh ingest order). Waits for a running refresh, which has the
  /// corpus on loan.
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories() const
      CM_EXCLUDES(mutex_, refresh_mutex_);

  /// Lends a worker pool to each refresh pipeline (not owned; nullptr
  /// returns to config-driven pools).
  void set_thread_pool(common::ThreadPool* pool) noexcept { pool_ = pool; }

  /// The artifact cache, e.g. for persistence export; nullptr when
  /// config.incremental.artifact_cache_bytes == 0 (caching disabled).
  [[nodiscard]] cache::ArtifactCache* artifact_cache() noexcept {
    return cache_.get();
  }

  /// Lends an external flight recorder (not owned; nullptr reverts to the
  /// planner's own). The service passes its recorder here so every floor's
  /// refreshes land in one set of rings.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept {
    external_flight_ = flight;
  }

  /// The recorder every refresh pipeline records into: the lent one when
  /// set, else the planner-lifetime recorder (a black box spanning
  /// refreshes, unlike the per-run Trace); nullptr when
  /// config.flight.enabled == false and none was lent.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() noexcept {
    return external_flight_ != nullptr ? external_flight_ : flight_.get();
  }

  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>& metrics_registry()
      const noexcept {
    return registry_;
  }

 private:
  PipelineConfig config_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<cache::ArtifactCache> cache_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  obs::FlightRecorder* external_flight_ = nullptr;
  obs::Histogram* refresh_hist_ = nullptr;  // owned by registry_
  std::unique_ptr<common::BoundedMemoCache> s2_cache_;
  common::FaultInjector cache_faults_;  // drives kArtifactCacheEvict
  common::ThreadPool* pool_ = nullptr;

  /// An admitted trajectory and its content key.
  using Entry = std::pair<trajectory::Trajectory, cache::ArtifactKey>;

  /// Serializes refresh() bodies (held across the whole pipeline run, so it
  /// must never nest inside mutex_).
  mutable common::Mutex refresh_mutex_;
  /// Admitted trajectories sorted by video_id, one per id. refresh() lends
  /// them to its pipeline, so only the refresh_mutex_ holder may touch them.
  std::vector<Entry> corpus_ CM_GUARDED_BY(refresh_mutex_);

  mutable common::Mutex mutex_;
  /// Admissions since the last refresh, one per video_id, in arrival order.
  std::vector<Entry> inbox_ CM_GUARDED_BY(mutex_);
  std::shared_ptr<const PipelineResult> latest_ CM_GUARDED_BY(mutex_);
  CacheReuseStats last_reuse_ CM_GUARDED_BY(mutex_);
};

}  // namespace crowdmap::core
