#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

namespace crowdmap::obs {

namespace {

// Binary dump format (all integers little-endian):
//   "CMFD" u32 version(=1) u8 deterministic u64 dropped
//   u64 string_count { u64 hash, u32 len, bytes }...
//   u64 event_count { u16 kind, u32 thread, u32 detail,
//                     u64 tick, u64 steady_nanos, u64 a, u64 b }...
constexpr char kMagic[4] = {'C', 'M', 'F', 'D'};
constexpr std::uint32_t kDumpVersion = 1;

/// Kinds whose event streams legitimately differ across thread counts:
/// queue-depth samples race with the pool, FIFO evictions depend on cross-
/// thread insertion order. Everything else is keyed by stable identities.
bool kind_is_deterministic(FlightEventKind kind) noexcept {
  // WAL appends/checkpoints are also dropped: their *contents* are stable,
  // but auto-checkpoint timing shifts with pool interleaving, so the event
  // stream is not byte-identical across thread counts.
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

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

/// Bounds-checked little-endian reader for decode_flight_dump.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] bool take(void* out, std::size_t n) {
    if (size - pos < n) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  [[nodiscard]] bool u16(std::uint16_t& v) {
    std::uint8_t raw[2];
    if (!take(raw, 2)) return false;
    v = static_cast<std::uint16_t>(raw[0] | (raw[1] << 8));
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    std::uint8_t raw[4];
    if (!take(raw, 4)) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | raw[i];
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t& v) {
    std::uint8_t raw[8];
    if (!take(raw, 8)) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | raw[i];
    return true;
  }
};

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

void json_escape_into(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

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
    case FlightEventKind::kSloBreach: return "slo_breach";
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

// ---------------------------------------------------------------- codec ---

std::vector<std::uint8_t> encode_flight_dump(const FlightDump& dump) {
  std::vector<std::uint8_t> out;
  out.reserve(32 + dump.events.size() * 38);
  out.insert(out.end(), kMagic, kMagic + 4);
  put_u32(out, kDumpVersion);
  out.push_back(dump.deterministic ? 1 : 0);
  put_u64(out, dump.dropped);
  put_u64(out, dump.strings.size());
  for (const auto& [hash, name] : dump.strings) {
    put_u64(out, hash);
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
  }
  put_u64(out, dump.events.size());
  for (const auto& event : dump.events) {
    put_u16(out, static_cast<std::uint16_t>(event.kind));
    put_u32(out, event.thread);
    put_u32(out, event.detail);
    put_u64(out, event.tick);
    put_u64(out, event.steady_nanos);
    put_u64(out, event.a);
    put_u64(out, event.b);
  }
  return out;
}

common::Expected<FlightDump> decode_flight_dump(const std::uint8_t* data,
                                                std::size_t size) {
  Reader in{data, size};
  char magic[4];
  if (!in.take(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return common::Error{"flight.magic", "not a flight dump (bad magic)"};
  }
  std::uint32_t version = 0;
  if (!in.u32(version)) {
    return common::Error{"flight.truncated", "dump truncated in header"};
  }
  if (version != kDumpVersion) {
    return common::Error{"flight.version",
                         "unsupported flight dump version " +
                             std::to_string(version)};
  }
  FlightDump dump;
  std::uint8_t deterministic = 0;
  std::uint64_t string_count = 0;
  if (!in.take(&deterministic, 1) || !in.u64(dump.dropped) ||
      !in.u64(string_count)) {
    return common::Error{"flight.truncated", "dump truncated in header"};
  }
  dump.deterministic = deterministic != 0;
  for (std::uint64_t i = 0; i < string_count; ++i) {
    std::uint64_t hash = 0;
    std::uint32_t len = 0;
    if (!in.u64(hash) || !in.u32(len) || in.size - in.pos < len) {
      return common::Error{"flight.truncated",
                           "dump truncated in string table"};
    }
    dump.strings.emplace(
        hash, std::string(reinterpret_cast<const char*>(data + in.pos), len));
    in.pos += len;
  }
  std::uint64_t event_count = 0;
  if (!in.u64(event_count)) {
    return common::Error{"flight.truncated", "dump truncated before events"};
  }
  dump.events.reserve(
      std::min<std::uint64_t>(event_count, (size - in.pos) / 38));
  for (std::uint64_t i = 0; i < event_count; ++i) {
    FlightEventRecord event;
    std::uint16_t kind = 0;
    if (!in.u16(kind) || !in.u32(event.thread) || !in.u32(event.detail) ||
        !in.u64(event.tick) || !in.u64(event.steady_nanos) ||
        !in.u64(event.a) || !in.u64(event.b)) {
      return common::Error{"flight.truncated", "dump truncated in events"};
    }
    event.kind = static_cast<FlightEventKind>(kind);
    dump.events.push_back(event);
  }
  return dump;
}

common::Expected<FlightDump> decode_flight_dump(
    const std::vector<std::uint8_t>& bytes) {
  return decode_flight_dump(bytes.data(), bytes.size());
}

// ----------------------------------------------------------------- JSON ---

std::string flight_dump_to_json(const FlightDump& dump) {
  std::string out;
  out.reserve(128 + dump.events.size() * 96);
  out += "{\n  \"version\": ";
  out += std::to_string(kDumpVersion);
  out += ",\n  \"deterministic\": ";
  out += dump.deterministic ? "true" : "false";
  out += ",\n  \"dropped\": ";
  out += std::to_string(dump.dropped);
  out += ",\n  \"strings\": {";
  bool first = true;
  for (const auto& [hash, name] : dump.strings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += std::to_string(hash);
    out += "\": \"";
    json_escape_into(out, name);
    out += '"';
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"events\": [";
  first = true;
  for (const auto& event : dump.events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kind\": \"";
    out += flight_event_kind_name(event.kind);
    out += "\", \"thread\": ";
    out += std::to_string(event.thread);
    out += ", \"tick\": ";
    out += std::to_string(event.tick);
    out += ", \"steady_nanos\": ";
    out += std::to_string(event.steady_nanos);
    out += ", \"detail\": ";
    out += std::to_string(event.detail);
    out += ", \"a\": ";
    out += std::to_string(event.a);
    out += ", \"b\": ";
    out += std::to_string(event.b);
    // Resolve interned hashes inline so dumps read without a decoder ring.
    const auto named = dump.strings.find(event.a);
    if (named != dump.strings.end()) {
      out += ", \"name\": \"";
      json_escape_into(out, named->second);
      out += '"';
    }
    out += '}';
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace crowdmap::obs
