// IncrementalPlanner — the floor planner (paper §III.B–D over one floor's
// accumulated corpus; docs/INCREMENTAL.md). It owns, for its whole life,
// everything a floor's builds share: the extracted corpus (hashed once at
// admission), the content-addressed ArtifactCache, the flight recorder, the
// metrics and the worker pool. Each refresh() runs the four stages
//
//   aggregate -> skeleton -> rooms -> arrange
//
// over that corpus; a cold build is simply the first refresh. ingest()
// appends to an inbox, and refresh() folds the inbox into the corpus (kept
// sorted by video_id) before it runs. Stages whose input set did not change
// resolve to the same artifact keys and replay from the cache; only work
// downstream of the new upload recomputes. Because reuse is keyed on
// content, invalidation is implicit — there is no out-of-date bit to get
// wrong, and the refreshed plan is byte-identical to a cold build at any
// thread count (tests/test_determinism.cpp).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "common/annotations.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/result.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace crowdmap::core {

/// Thread-safe floor planner for one floor's corpus. ingest() may be called
/// concurrently (the service's extraction workers do), also while a refresh
/// runs; refresh() calls are serialized internally, so two builds of one
/// floor cannot interleave mid-build.
class IncrementalPlanner {
 public:
  /// `registry` defaults to a fresh registry; pass the service's shared one
  /// to fold the planner's metrics into its exports. `pool` is lent (not
  /// owned; must outlive the planner); without one the planner owns a pool
  /// of resolve_thread_count(config.parallel.threads) - 1 workers (it counts
  /// the calling thread, so none at 1). `flight` is lent likewise; without
  /// one the planner owns a recorder when config.flight.enabled. Cache
  /// sizing comes from `config.incremental`.
  explicit IncrementalPlanner(
      PipelineConfig config,
      std::shared_ptr<obs::MetricsRegistry> registry = nullptr,
      common::ThreadPool* pool = nullptr,
      obs::FlightRecorder* flight = nullptr);

  IncrementalPlanner(const IncrementalPlanner&) = delete;
  IncrementalPlanner& operator=(const IncrementalPlanner&) = delete;

  /// Admits one extracted trajectory: applies the unqualified-data gates,
  /// hashes the content key (outside any lock — safe to call from worker
  /// threads, and while a refresh runs) and appends to the inbox the next
  /// refresh folds into the corpus. Idempotent by video_id — a re-submitted
  /// upload (retry storm, post-crash replay) replaces its earlier extraction
  /// rather than duplicating it. Returns false when the gates rejected the
  /// upload.
  bool ingest(trajectory::Trajectory traj) CM_EXCLUDES(mutex_);

  /// Folds the inbox into the corpus and builds the floor plan over it,
  /// reusing every artifact whose inputs did not change. Serialized against
  /// concurrent refreshes.
  PipelineResult refresh(const std::optional<WorldFrame>& frame = std::nullopt)
      CM_EXCLUDES(mutex_, refresh_mutex_);

  /// Kept trajectories — the corpus plus the inbox, an inbox entry winning
  /// over a corpus entry with the same video_id — sorted by video_id (the
  /// order the stages read them in). Waits for a running refresh.
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories() const
      CM_EXCLUDES(mutex_, refresh_mutex_);

  /// Uploads the unqualified-data gates rejected so far.
  [[nodiscard]] std::size_t dropped_count() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The artifact cache, e.g. for persistence export; nullptr when
  /// config.incremental.artifact_cache_bytes == 0 (caching disabled).
  [[nodiscard]] cache::ArtifactCache* artifact_cache() noexcept {
    return cache_.get();
  }

  /// The recorder every refresh records into: the lent one, else the
  /// planner-lifetime recorder (a black box spanning refreshes, unlike the
  /// per-refresh trace); nullptr when config.flight.enabled == false and
  /// none was lent.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const noexcept {
    return flight_;
  }

  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>& metrics_registry()
      const noexcept {
    return registry_;
  }

 private:
  PipelineConfig config_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<common::ThreadPool> owned_pool_;
  common::ThreadPool* pool_ = nullptr;  // lent or owned_pool_; null = serial
  std::unique_ptr<obs::FlightRecorder> owned_flight_;
  obs::FlightRecorder* flight_ = nullptr;  // lent or owned_flight_
  std::unique_ptr<cache::ArtifactCache> cache_;
  common::FaultInjector cache_faults_;  // drives kArtifactCacheEvict

  // Registry handles (owned by registry_). Admission counts are bumped in
  // ingest(); build counts once per refresh from that refresh's own tally.
  obs::Counter* videos_ingested_ = nullptr;
  obs::Counter* trajectories_kept_ = nullptr;
  obs::Counter* trajectories_dropped_ = nullptr;
  obs::Counter* trajectories_placed_ = nullptr;
  obs::Counter* match_edges_ = nullptr;
  obs::Counter* panoramas_attempted_ = nullptr;
  obs::Counter* panoramas_stitched_ = nullptr;
  obs::Counter* rooms_reconstructed_ = nullptr;
  obs::Counter* stages_degraded_ = nullptr;
  obs::Histogram* refresh_hist_ = nullptr;
  std::atomic<std::size_t> dropped_{0};

  /// An admitted trajectory and its content key.
  using Entry = std::pair<trajectory::Trajectory, cache::ArtifactKey>;

  /// Serializes refresh() bodies (held across the whole build, so it must
  /// never nest inside mutex_).
  mutable common::Mutex refresh_mutex_;
  /// Admitted trajectories sorted by video_id, one per id, and their
  /// content keys index for index — what the stages read.
  std::vector<trajectory::Trajectory> corpus_ CM_GUARDED_BY(refresh_mutex_);
  std::vector<cache::ArtifactKey> corpus_keys_ CM_GUARDED_BY(refresh_mutex_);

  mutable common::Mutex mutex_;
  /// Admissions since the last refresh, one per video_id, in arrival order.
  std::vector<Entry> inbox_ CM_GUARDED_BY(mutex_);
};

}  // namespace crowdmap::core
