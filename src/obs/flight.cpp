#include "obs/flight.hpp"

#include <algorithm>
#include <tuple>

namespace crowdmap::obs {

namespace {

/// Kinds whose event streams legitimately differ across thread counts:
/// queue-depth samples race with the pool, FIFO evictions depend on cross-
/// thread insertion order. Everything else is keyed by stable identities.
bool kind_is_deterministic(FlightEventKind kind) noexcept {
  // WAL appends/checkpoints are also dropped: their *contents* are stable,
  // but auto-checkpoint timing shifts with pool interleaving, so the event
  // stream differs across thread counts.
  return kind != FlightEventKind::kQueueDepth &&
         kind != FlightEventKind::kCacheEvict &&
         kind != FlightEventKind::kWalAppend &&
         kind != FlightEventKind::kWalCheckpoint &&
         kind != FlightEventKind::kClusterShed;
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t next_recorder_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local map from recorder id to that thread's ring, so record() on
/// a warm thread never touches the registry mutex. Bounded: recorders are
/// long-lived (one per pipeline/service), and stale ids simply miss.
struct ThreadRingCache {
  static constexpr std::size_t kCapacity = 16;
  struct Entry {
    std::uint64_t recorder_id = 0;
    void* ring = nullptr;
  };
  Entry entries[kCapacity];
  std::size_t used = 0;

  [[nodiscard]] void* find(std::uint64_t id) const noexcept {
    for (std::size_t i = 0; i < used; ++i) {
      if (entries[i].recorder_id == id) return entries[i].ring;
    }
    return nullptr;
  }
  void insert(std::uint64_t id, void* ring) noexcept {
    if (used < kCapacity) {
      entries[used++] = {id, ring};
      return;
    }
    // Full: evict the entry with the smallest (oldest) recorder id.
    std::size_t victim = 0;
    for (std::size_t i = 1; i < kCapacity; ++i) {
      if (entries[i].recorder_id < entries[victim].recorder_id) victim = i;
    }
    entries[victim] = {id, ring};
  }
  void erase_recorder(std::uint64_t id) noexcept {
    for (std::size_t i = 0; i < used; ++i) {
      if (entries[i].recorder_id == id) {
        entries[i] = entries[--used];
        return;
      }
    }
  }
};

thread_local ThreadRingCache tl_ring_cache;

}  // namespace

std::string_view flight_event_kind_name(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kSpanBegin: return "span_begin";
    case FlightEventKind::kSpanEnd: return "span_end";
    case FlightEventKind::kCacheHit: return "cache_hit";
    case FlightEventKind::kCacheMiss: return "cache_miss";
    case FlightEventKind::kCacheEvict: return "cache_evict";
    case FlightEventKind::kFaultFired: return "fault_fired";
    case FlightEventKind::kIngestRetransmit: return "ingest_retransmit";
    case FlightEventKind::kIngestQuarantine: return "ingest_quarantine";
    case FlightEventKind::kDegradation: return "degradation";
    case FlightEventKind::kQueueDepth: return "queue_depth";
    case FlightEventKind::kWalAppend: return "wal_append";
    case FlightEventKind::kWalCheckpoint: return "wal_checkpoint";
    case FlightEventKind::kRecoveryTruncate: return "recovery_truncate";
    case FlightEventKind::kClusterReplicate: return "cluster_replicate";
    case FlightEventKind::kClusterFailover: return "cluster_failover";
    case FlightEventKind::kClusterShed: return "cluster_shed";
  }
  return "unknown";
}

// ---------------------------------------------------------------- rings ---

FlightRecorder::Ring::Ring(std::size_t capacity_events, std::uint32_t slot)
    : slot(slot),
      capacity(round_up_pow2(std::max<std::size_t>(capacity_events, 8))),
      // make_unique value-initializes, so every word starts zeroed.
      words(std::make_unique<std::atomic<std::uint64_t>[]>(
          capacity * kWordsPerEvent)) {}

FlightRecorder::FlightRecorder(FlightOptions options)
    : options_(options),
      id_(next_recorder_id()),
      epoch_(std::chrono::steady_clock::now()) {}

FlightRecorder::~FlightRecorder() {
  // The destroying thread's cache entry is the only one we can reach; other
  // threads' stale entries are keyed by id_ (never reused), so they miss
  // harmlessly on their next lookup.
  tl_ring_cache.erase_recorder(id_);
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  if (void* cached = tl_ring_cache.find(id_)) {
    return static_cast<Ring*>(cached);
  }
  Ring* ring = nullptr;
  {
    common::MutexLock lock(rings_mutex_);
    const auto slot = static_cast<std::uint32_t>(rings_.size());
    rings_.push_back(std::make_unique<Ring>(options_.ring_capacity, slot));
    ring = rings_.back().get();
  }
  tl_ring_cache.insert(id_, ring);
  return ring;
}

void FlightRecorder::record_armed(FlightEventKind kind, std::uint32_t detail,
                                  std::uint64_t a, std::uint64_t b) noexcept {
  Ring* ring = ring_for_this_thread();
  const std::uint64_t nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  std::atomic<std::uint64_t>* slot =
      &ring->words[(head & (ring->capacity - 1)) * kWordsPerEvent];
  const std::uint64_t word0 =
      (static_cast<std::uint64_t>(kind) << 48) |
      (static_cast<std::uint64_t>(ring->slot & 0xFFFF) << 32) | detail;
  slot[0].store(word0, std::memory_order_relaxed);
  slot[1].store(clock_.now(), std::memory_order_relaxed);
  slot[2].store(nanos, std::memory_order_relaxed);
  slot[3].store(a, std::memory_order_relaxed);
  slot[4].store(b, std::memory_order_relaxed);
  // Publish: a dumper that sees head >= h also sees the words above.
  ring->head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::record_named(FlightEventKind kind, std::uint32_t detail,
                                  std::string_view name, std::uint64_t b) {
  if (!armed()) return;
  record_armed(kind, detail, intern(name), b);
}

std::uint64_t FlightRecorder::intern(std::string_view name) {
  const std::uint64_t hash = common::stable_string_hash(name);
  common::MutexLock lock(strings_mutex_);
  strings_.emplace(hash, std::string(name));
  return hash;
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  std::uint64_t total = 0;
  common::MutexLock lock(rings_mutex_);
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > ring->capacity) total += head - ring->capacity;
  }
  return total;
}

FlightDump FlightRecorder::dump_impl(bool deterministic) const {
  FlightDump out;
  out.deterministic = deterministic;
  {
    common::MutexLock lock(rings_mutex_);
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t live = std::min<std::uint64_t>(head, ring->capacity);
      if (head > ring->capacity) out.dropped += head - ring->capacity;
      for (std::uint64_t i = head - live; i < head; ++i) {
        const std::atomic<std::uint64_t>* slot =
            &ring->words[(i & (ring->capacity - 1)) * kWordsPerEvent];
        const std::uint64_t word0 = slot[0].load(std::memory_order_relaxed);
        FlightEventRecord event;
        event.kind = static_cast<FlightEventKind>(word0 >> 48);
        event.thread = static_cast<std::uint32_t>((word0 >> 32) & 0xFFFF);
        event.detail = static_cast<std::uint32_t>(word0 & 0xFFFFFFFFu);
        event.tick = slot[1].load(std::memory_order_relaxed);
        event.steady_nanos = slot[2].load(std::memory_order_relaxed);
        event.a = slot[3].load(std::memory_order_relaxed);
        event.b = slot[4].load(std::memory_order_relaxed);
        if (deterministic && !kind_is_deterministic(event.kind)) continue;
        out.events.push_back(event);
      }
    }
  }
  {
    common::MutexLock lock(strings_mutex_);
    out.strings = strings_;
  }
  if (deterministic) {
    for (auto& event : out.events) {
      event.thread = 0;
      event.steady_nanos = 0;
      if (event.kind == FlightEventKind::kSpanEnd) event.b = 0;  // duration
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const FlightEventRecord& lhs, const FlightEventRecord& rhs) {
                return std::tie(lhs.tick, lhs.kind, lhs.detail, lhs.a, lhs.b) <
                       std::tie(rhs.tick, rhs.kind, rhs.detail, rhs.a, rhs.b);
              });
  } else {
    // Wall view: merge the per-thread streams into steady-clock order so the
    // dump reads as one timeline.
    std::stable_sort(
        out.events.begin(), out.events.end(),
        [](const FlightEventRecord& lhs, const FlightEventRecord& rhs) {
          return lhs.steady_nanos < rhs.steady_nanos;
        });
  }
  return out;
}

FlightDump FlightRecorder::dump() const { return dump_impl(false); }

FlightDump FlightRecorder::deterministic_dump() const {
  return dump_impl(true);
}

}  // namespace crowdmap::obs
