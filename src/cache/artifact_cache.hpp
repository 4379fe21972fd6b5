// Content-addressed artifact cache for incremental floor-plan recomputation
// (docs/INCREMENTAL.md). Stage outputs are stored under 128-bit keys hashed
// from the *serialized stage inputs plus the relevant PipelineConfig slice*,
// so invalidation is implicit: a changed input (new upload, different
// threshold) produces a different key and the stale entry simply stops being
// addressed — it ages out through bounded FIFO eviction.
//
// Correctness contract: a cached artifact must be the byte-exact value the
// computation would produce from the key's preimage. Every cached stage in
// this tree is a pure function of its key inputs (doubles round-trip through
// exact f64 bit patterns), so a hit can only ever trade recomputation for
// memory — never change a result. The determinism suite locks this in
// (tests/test_determinism.cpp: incremental == cold rebuild, any threads).
//
// Concurrency model: the key space is split over independently locked
// shards (CM_GUARDED_BY-annotated), each bounded by a byte budget with FIFO
// eviction. An optional FaultInjector drives the faults::kArtifactCacheEvict
// chaos point: insertions keyed by the artifact key are deterministically
// refused, simulating eviction under memory pressure at any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/fault.hpp"

namespace crowdmap::obs {
class FlightRecorder;
}  // namespace crowdmap::obs

namespace crowdmap::cache {

/// 128-bit content hash. Two independent 64-bit streams make accidental
/// collisions negligible for any realistic corpus — a collision would break
/// the byte-identity guarantee, so 64 bits of FNV alone is not enough.
struct ArtifactKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ArtifactKey& a, const ArtifactKey& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const ArtifactKey& a, const ArtifactKey& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const ArtifactKey& a, const ArtifactKey& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Streaming 128-bit hasher: feed the serialized stage inputs and config
/// fields in a fixed order, then finish(). Pure integer arithmetic over
/// explicitly little-endian framing, so keys are stable across platforms,
/// processes and thread counts.
class KeyBuilder {
 public:
  KeyBuilder() noexcept = default;

  void byte(std::uint8_t v) noexcept {
    // Stream 1: FNV-1a/64. Stream 2: same shape, independent constants.
    s1_ = (s1_ ^ v) * 0x100000001B3ull;
    s2_ = (s2_ ^ v) * 0xC2B2AE3D27D4EB4Full;
  }
  void bytes(const std::uint8_t* data, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) byte(data[i]);
  }
  void bytes(const std::vector<std::uint8_t>& data) noexcept {
    bytes(data.data(), data.size());
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern of the double — the same discipline io::Writer::f64
  /// uses, so a config double always hashes to the same key it serializes as.
  void f64(double v) noexcept;
  void str(std::string_view s) noexcept {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] ArtifactKey finish() const noexcept {
    // Final avalanche so short inputs still spread over both words.
    return {mix(s1_ ^ 0x9E3779B97F4A7C15ull), mix(s2_)};
  }

 private:
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

  std::uint64_t s1_ = 0xCBF29CE484222325ull;  // FNV offset basis
  std::uint64_t s2_ = 0x9AE16A3B2F90404Full;
};

/// Stage family of an artifact. Baked into the key preimage by the stage key
/// builders AND tracked per entry, so hit/miss counters can be reported per
/// stage ({stage=...} metric labels, per-stage reuse gauges).
enum class Family : std::uint8_t {
  kPairMatch = 0,  // pairwise trajectory match decisions
  kRoom = 1,       // per-candidate panorama stitch + layout estimation
  kSkeleton = 2,   // reconstructed path skeleton per occupancy-grid content
  kArrange = 3,    // force-directed room placement
};
inline constexpr std::size_t kFamilyCount = 4;

/// Metric-label name of a family ("pair", "room", "skeleton", "arrange").
[[nodiscard]] std::string_view family_name(Family family) noexcept;

/// One exported cache entry (persistence round-trip; io/serialize frames it).
struct ArtifactEntry {
  Family family = Family::kPairMatch;
  ArtifactKey key;
  std::vector<std::uint8_t> payload;
};

/// Aggregate traffic counters, total and per stage family.
struct ArtifactCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  // FIFO + fault-forced evictions + clears
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t family_hits[kFamilyCount] = {};
  std::uint64_t family_misses[kFamilyCount] = {};
};

/// Bounded, sharded, thread-safe artifact store: ArtifactKey -> bytes.
class ArtifactCache {
 public:
  /// `capacity_bytes` bounds the summed payload bytes across all shards
  /// (each shard gets an equal slice); 0 is clamped to one byte per shard so
  /// the cache degenerates gracefully instead of dividing by zero.
  explicit ArtifactCache(std::size_t capacity_bytes, std::size_t shards = 16);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Cached payload for `key`, or nullopt. Counts a hit or a miss under the
  /// entry's family.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> lookup(
      Family family, const ArtifactKey& key);

  /// Stores `payload`, evicting the shard's oldest entries until the byte
  /// budget holds. A concurrent insert of the same key keeps the first value
  /// (artifacts are pure, so both writers carry the same bytes). When a
  /// FaultInjector is attached and faults::kArtifactCacheEvict fires for
  /// this key, the insert is refused (counted as an invalidation) — the
  /// deterministic stand-in for eviction under memory pressure.
  void insert(Family family, const ArtifactKey& key,
              std::vector<std::uint8_t> payload);

  /// Arms the chaos point. Not owned; pass nullptr to detach. The injector
  /// only influences *eviction*, never a served value, so chaos plans keep
  /// the byte-identity guarantee intact.
  void set_fault_injector(common::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  /// Mirrors cache traffic into the flight recorder (cache_hit/cache_miss/
  /// cache_evict events keyed by artifact key and family). Not owned; pass
  /// nullptr to detach. The recorder must outlive the attachment.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept {
    flight_ = flight;
  }

  /// Drops every entry (counted as invalidations).
  void clear();

  /// Every live entry, ordered by (family, key) so the export is
  /// deterministic regardless of insertion interleaving.
  [[nodiscard]] std::vector<ArtifactEntry> export_entries() const;

  /// Restores exported entries (normal insert path minus the fault point;
  /// warming a restarted service must not consume chaos budget). Returns the
  /// number of entries actually retained (oversized payloads are refused).
  std::size_t restore(const std::vector<ArtifactEntry>& entries);

  [[nodiscard]] ArtifactCacheStats stats() const;
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t invalidations() const noexcept {
    return invalidations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_bytes_;
  }

 private:
  struct Entry {
    Family family = Family::kPairMatch;
    std::vector<std::uint8_t> payload;
  };
  struct Shard {
    mutable common::Mutex mutex;
    // Ordered map (not unordered): iteration order feeds export_entries(),
    // which must be deterministic for the persistence round-trip.
    std::map<ArtifactKey, Entry> map CM_GUARDED_BY(mutex);
    std::deque<ArtifactKey> order CM_GUARDED_BY(mutex);  // FIFO eviction
    std::size_t bytes CM_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& shard_for(const ArtifactKey& key) noexcept {
    return shards_[key.lo % shards_.size()];
  }
  [[nodiscard]] const Shard& shard_for(const ArtifactKey& key) const noexcept {
    return shards_[key.lo % shards_.size()];
  }
  /// Returns true when the entry is (or already was) stored.
  bool insert_impl(Family family, const ArtifactKey& key,
                   std::vector<std::uint8_t> payload, bool allow_fault);

  std::size_t capacity_bytes_;
  std::size_t per_shard_bytes_;
  std::vector<Shard> shards_;
  common::FaultInjector* injector_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> family_hits_[kFamilyCount] = {};
  std::atomic<std::uint64_t> family_misses_[kFamilyCount] = {};
};

}  // namespace crowdmap::cache
