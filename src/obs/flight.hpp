// Flight recorder: always-on, lock-free per-thread ring buffers of fixed-
// size structured events (span begin/end, cache traffic, fault fires, ingest
// retransmits/quarantines, degradation entries, queue-depth samples). The
// black box a post-mortem reads when something goes wrong: "what exactly
// happened in the 200 ms before this fault".
//
// Every event is dual-stamped: a steady-clock offset from the recorder's
// epoch (wall ordering for Perfetto rendering) and a LogicalClock tick
// advanced only at deterministic points (pipeline stage boundaries, ingest
// chunk deliveries). deterministic_dump() drops the wall/thread stamps and
// the inherently racy kinds, then sorts by content — so dumps in
// deterministic mode are identical, event for event, at any thread count,
// the same contract the serialized FloorPlans obey (docs/OBSERVABILITY.md).
// A dump leaves the process as Perfetto instants (obs/trace_export.hpp).
//
// Hot path: record() on a disarmed recorder is one relaxed load + branch;
// armed it is a steady_clock read plus five relaxed atomic stores into the
// caller's thread-local ring (~tens of ns, measured in bench/micro_obs.cpp).
// Rings are single-writer; dumps read them concurrently without locks, so
// the event words are atomics rather than plain structs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/fault.hpp"

namespace crowdmap::obs {

/// Catalog of recorded event kinds. Deterministic dumps sort the events of
/// one tick by kind value, so a kind's value fixes its place in them.
enum class FlightEventKind : std::uint16_t {
  kSpanBegin = 1,         // a = name hash
  kSpanEnd = 2,           // a = name hash, b = duration nanos
  kCacheHit = 3,          // detail = family, a/b = artifact key hi/lo
  kCacheMiss = 4,         // detail = family, a/b = artifact key hi/lo
  kCacheEvict = 5,        // detail = family, a/b = artifact key hi/lo
  kFaultFired = 6,        // detail = fault point index, a = point name hash
  kIngestRetransmit = 7,  // a = upload id hash, b = missing chunk count
  kIngestQuarantine = 8,  // a = upload id hash, b = reason hash
  kDegradation = 9,       // a = stage name hash, b = detail hash
  kQueueDepth = 10,       // a = queue depth sample
  kWalAppend = 12,        // a = segment seqno, b = record bytes
  kWalCheckpoint = 13,    // a = snapshot seqno, b = retired segment count
  kRecoveryTruncate = 14, // a = segment seqno, b = damaged tail bytes
  kClusterReplicate = 15, // detail = node index, a = floor key hash, b = seqno
  kClusterFailover = 16,  // detail = acting node index, a = floor key hash
  kClusterShed = 17,      // detail = node index, a = queue depth
};

/// Catalog name of an event kind ("cache_hit"); "unknown" for junk input.
[[nodiscard]] std::string_view flight_event_kind_name(
    FlightEventKind kind) noexcept;

/// One decoded event. `thread` is the recorder-assigned ring slot of the
/// writing thread (not an OS tid); `steady_nanos` is the offset from the
/// recorder epoch. Both are zeroed in deterministic dumps.
struct FlightEventRecord {
  FlightEventKind kind = FlightEventKind::kSpanBegin;
  std::uint32_t thread = 0;
  std::uint32_t detail = 0;
  std::uint64_t tick = 0;
  std::uint64_t steady_nanos = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const FlightEventRecord&,
                         const FlightEventRecord&) = default;
};

/// A dump: the recorder's surviving events plus the hash -> string intern
/// table that makes name hashes readable again. `deterministic` marks a
/// normalized dump (wall/thread stamps zeroed, racy kinds filtered, events
/// sorted by content).
struct FlightDump {
  bool deterministic = false;
  std::uint64_t dropped = 0;  // events overwritten by ring wraparound
  std::vector<FlightEventRecord> events;
  std::map<std::uint64_t, std::string> strings;  // hash -> interned name
};

/// Recorder tunables.
struct FlightOptions {
  /// Events retained per writing thread before wraparound.
  std::size_t ring_capacity = 4096;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightOptions options = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Arm/disarm recording. Disarmed record() is one relaxed load + branch
  /// and writes nothing. Recorders start armed ("always-on").
  void arm() noexcept { armed_.store(true, std::memory_order_relaxed); }
  void disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Records one event into the calling thread's ring. Lock-free after the
  /// thread's first event (which registers its ring under the mutex).
  void record(FlightEventKind kind, std::uint32_t detail, std::uint64_t a,
              std::uint64_t b = 0) noexcept {
    if (!armed_.load(std::memory_order_relaxed)) return;
    record_armed(kind, detail, a, b);
  }

  /// record() with a name payload: interns `name` (mutex-guarded map; cheap
  /// at span/degradation frequency, not for per-artifact traffic) so dumps
  /// can render the hash back to text, then records with a = hash(name).
  void record_named(FlightEventKind kind, std::uint32_t detail,
                    std::string_view name, std::uint64_t b = 0);

  /// Interns a name into the dump string table; returns its stable hash.
  std::uint64_t intern(std::string_view name) CM_EXCLUDES(strings_mutex_);

  /// Logical tick stamped onto subsequent events. Advanced only at
  /// deterministic points: the pipeline ticks per stage boundary, ingest
  /// per delivered chunk — never from racy worker-side code.
  std::uint64_t advance_tick(std::uint64_t ticks = 1) noexcept {
    return clock_.advance(ticks);
  }

  /// Wall dump: every surviving event in (thread, write order), wall and
  /// thread stamps intact. The debugging view.
  [[nodiscard]] FlightDump dump() const
      CM_EXCLUDES(rings_mutex_, strings_mutex_);

  /// Deterministic dump: drops kinds that legitimately race across thread
  /// counts (queue-depth samples, FIFO evictions), zeroes wall/thread
  /// stamps, sorts events by content. Identical at any thread count when
  /// every remaining event is tick-stamped deterministically.
  [[nodiscard]] FlightDump deterministic_dump() const
      CM_EXCLUDES(rings_mutex_, strings_mutex_);

  /// Events overwritten by ring wraparound so far.
  [[nodiscard]] std::uint64_t dropped() const noexcept
      CM_EXCLUDES(rings_mutex_);

 private:
  // One event = 5 consecutive atomic words in its ring:
  //   [0] kind<<48 | thread_slot<<32 | detail
  //   [1] tick   [2] steady_nanos   [3] a   [4] b
  static constexpr std::size_t kWordsPerEvent = 5;

  struct Ring {
    explicit Ring(std::size_t capacity_events, std::uint32_t slot);
    std::uint32_t slot;
    std::size_t capacity;  // events, power of two
    std::atomic<std::uint64_t> head{0};  // monotonic next-write index
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  void record_armed(FlightEventKind kind, std::uint32_t detail,
                    std::uint64_t a, std::uint64_t b) noexcept;
  Ring* ring_for_this_thread() CM_EXCLUDES(rings_mutex_);
  [[nodiscard]] FlightDump dump_impl(bool deterministic) const
      CM_EXCLUDES(rings_mutex_, strings_mutex_);

  const FlightOptions options_;
  const std::uint64_t id_;  // process-unique; keys the thread-local cache
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> armed_{true};
  common::LogicalClock clock_;

  mutable common::Mutex rings_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_ CM_GUARDED_BY(rings_mutex_);

  mutable common::Mutex strings_mutex_;
  std::map<std::uint64_t, std::string> strings_ CM_GUARDED_BY(strings_mutex_);
};

}  // namespace crowdmap::obs
