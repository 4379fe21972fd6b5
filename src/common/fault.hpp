// Deterministic fault injection for the cloud backend (chaos testing the
// paper's §IV.2 front door). Every fault site in the tree is a *registered*
// point from the catalog below; whether a given interrogation fires is a
// pure function of (plan seed, point, caller-supplied stable key), computed
// through the SplitMix64 hashing machinery of common::Rng — no wall clock,
// no raw generators, no interrogation-order state. The same plan therefore
// produces the same failures at any thread count, and any chaos failure is
// reproducible from its seed alone (docs/ROBUSTNESS.md).
//
// The disarmed path is a single inline bool test so production builds pay
// nothing for the instrumentation (measured in bench/micro_service.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/rng.hpp"

namespace crowdmap::common {

/// Central registry of every named fault point. New sites are added HERE and
/// nowhere else; call sites reference the generated faults::k* constants, so
/// a typo in a point name is a compile error rather than a silently-dead
/// fault (enforced by the crowdmap_analyze `fault-point-name` rule).
#define CROWDMAP_FAULT_POINT_LIST(X)                                      \
  X(kIngestChunkDrop, "ingest.chunk_drop")                                \
  X(kIngestChunkDuplicate, "ingest.chunk_duplicate")                      \
  X(kIngestChunkReorder, "ingest.chunk_reorder")                          \
  X(kIngestChunkCorrupt, "ingest.chunk_corrupt")                          \
  X(kDecodeFail, "decode.fail")                                           \
  X(kExtractSensorDropout, "extract.sensor_dropout")                      \
  X(kStageAggregateFail, "stage.aggregate_fail")                          \
  X(kStageSkeletonFail, "stage.skeleton_fail")                            \
  X(kStagePanoramaFail, "stage.panorama_fail")                            \
  X(kStageLayoutFail, "stage.layout_fail")                                \
  X(kStageArrangeFail, "stage.arrange_fail")                              \
  X(kArtifactCacheEvict, "cache.artifact_evict")                          \
  X(kFsWriteTorn, "fs.write_torn")                                        \
  X(kFsFsyncFail, "fs.fsync_fail")                                        \
  X(kFsCrashAt, "fs.crash_at")                                            \
  X(kFsReadCorrupt, "fs.read_corrupt")                                    \
  X(kClusterNodeCrash, "cluster.node_crash")                              \
  X(kClusterPartition, "cluster.partition")                               \
  X(kClusterReplicationDelay, "cluster.replication_delay")                \
  X(kClusterReplicationDuplicate, "cluster.replication_duplicate")

enum class FaultPoint : std::size_t {
#define CROWDMAP_FAULT_POINT_ENUM(ident, name) ident,
  CROWDMAP_FAULT_POINT_LIST(CROWDMAP_FAULT_POINT_ENUM)
#undef CROWDMAP_FAULT_POINT_ENUM
};

namespace faults {
#define CROWDMAP_FAULT_POINT_CONST(ident, name) \
  inline constexpr FaultPoint ident = FaultPoint::ident;
CROWDMAP_FAULT_POINT_LIST(CROWDMAP_FAULT_POINT_CONST)
#undef CROWDMAP_FAULT_POINT_CONST
}  // namespace faults

/// Number of registered fault points.
[[nodiscard]] std::size_t fault_point_count() noexcept;

/// Every registered point, in catalog order (metric flushes, doc listings).
[[nodiscard]] const std::vector<FaultPoint>& all_fault_points() noexcept;

/// Catalog name of a point ("ingest.chunk_drop").
[[nodiscard]] std::string_view fault_point_name(FaultPoint point) noexcept;

/// Name -> point lookup for spec/config parsing. Error code
/// "fault.unknown_point" names the offending string and lists the catalog.
[[nodiscard]] Expected<FaultPoint> fault_point_from_name(std::string_view name);

/// One armed point of a plan.
struct FaultSetting {
  FaultPoint point = faults::kDecodeFail;
  double probability = 0.0;           // chance per interrogation, in [0, 1]
  std::uint64_t budget = kNoBudget;   // max fires; kNoBudget = unlimited
  static constexpr std::uint64_t kNoBudget = ~std::uint64_t{0};
};

/// Plain-data fault plan: copyable configuration (PipelineConfig carries
/// one), realized into a FaultInjector by each component that honors it.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSetting> settings;

  [[nodiscard]] bool armed() const noexcept { return !settings.empty(); }
};

/// Parses the settings half of a spec: "point=prob[@budget][,point=...]",
/// e.g. "decode.fail=0.2,stage.panorama_fail=0.1@3". Error codes
/// "fault.spec" / "fault.unknown_point".
[[nodiscard]] Expected<std::vector<FaultSetting>> parse_fault_settings(
    std::string_view spec);

/// Parses a full CLI-style plan "seed:point=prob[@budget][,...]",
/// e.g. "42:decode.fail=0.2,ingest.chunk_drop=0.05".
[[nodiscard]] Expected<FaultPlan> parse_fault_plan(std::string_view spec);

/// Canonical textual form of a plan (round-trips through parse_fault_plan).
[[nodiscard]] std::string format_fault_plan(const FaultPlan& plan);

/// Stable 64-bit hash of a string (FNV-1a): keys fault decisions by string
/// identities (upload/document ids) identically across platforms and runs.
[[nodiscard]] std::uint64_t stable_string_hash(std::string_view text) noexcept;

/// Chaos seed from the CROWDMAP_FAULT_SEED environment variable, if set to a
/// valid non-negative integer (the CI chaos matrix sets it; tests/test_chaos
/// reads it so any CI failure reproduces locally with the same value).
[[nodiscard]] bool env_fault_seed(std::uint64_t& seed_out) noexcept;

/// Monotonic logical clock: time for retransmit timeouts and session expiry
/// without wall-clock nondeterminism. Ticks advance on events (one tick per
/// delivered chunk in the ingest service), so a run's timeline is a pure
/// function of its inputs.
class LogicalClock {
 public:
  [[nodiscard]] std::uint64_t now() const noexcept {
    return now_.load(std::memory_order_relaxed);
  }
  /// Advances and returns the new time.
  std::uint64_t advance(std::uint64_t ticks = 1) noexcept {
    return now_.fetch_add(ticks, std::memory_order_relaxed) + ticks;
  }

 private:
  std::atomic<std::uint64_t> now_{0};
};

/// Realized fault plan. Interrogations are stateless hash decisions, so the
/// injector may be shared across threads freely; the only mutable state is
/// the per-point fire/budget accounting (atomics).
class FaultInjector {
 public:
  /// Disarmed injector: every interrogation is false.
  FaultInjector() noexcept = default;
  explicit FaultInjector(const FaultPlan& plan) noexcept;

  // Copyable despite the atomic accounting (relaxed snapshot) so the owning
  // components (pipelines, services) stay movable. Not safe against a
  // concurrently interrogated source.
  FaultInjector(const FaultInjector& other) noexcept { copy_from(other); }
  FaultInjector& operator=(const FaultInjector& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  /// Re-arms from a plan (replaces any previous configuration and resets
  /// fire counts). Not thread-safe against concurrent interrogation.
  void arm(const FaultPlan& plan) noexcept;

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Whether `point` carries a non-zero probability in the armed plan. Cache
  /// seams use this to bypass artifact reuse for stages whose per-item fault
  /// interrogations must still happen (a cached hit would skip them and
  /// change which items a budgeted plan fires on).
  [[nodiscard]] bool point_armed(FaultPoint point) const noexcept {
    if (!armed_) return false;
    return points_[static_cast<std::size_t>(point)].probability > 0.0;
  }

  /// Whether the fault at `point` fires for the work item identified by
  /// `key`. The key must be a stable identity of the item (chunk index,
  /// video id, candidate index) — NOT an interrogation order — so decisions
  /// are identical at any thread count. Hot path: disarmed returns false
  /// after one predictable branch.
  [[nodiscard]] bool should_fire(FaultPoint point, std::uint64_t key) noexcept {
    if (!armed_) return false;
    return fire_slow(point, key);
  }

  /// Fires recorded at `point` so far.
  [[nodiscard]] std::uint64_t fires(FaultPoint point) const noexcept;
  [[nodiscard]] std::uint64_t total_fires() const noexcept;

 private:
  // Sized by the catalog; see fault.cpp for the static_assert tying the two.
  static constexpr std::size_t kMaxPoints = 32;

  [[nodiscard]] bool fire_slow(FaultPoint point, std::uint64_t key) noexcept;
  void copy_from(const FaultInjector& other) noexcept;

  struct PointState {
    double probability = 0.0;
    std::atomic<std::uint64_t> budget_left{0};
    std::atomic<std::uint64_t> fires{0};
  };

  bool armed_ = false;
  std::uint64_t seed_ = 0;
  std::array<PointState, kMaxPoints> points_;
};

}  // namespace crowdmap::common
