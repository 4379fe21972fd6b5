// Hierarchical trace spans for one pipeline run: begin/end pairs build a
// tree of timed stages ("run" > "aggregate" > ...), snapshotted into plain
// SpanRecord data. The snapshot is a build's only clock: the planner's stage
// and refresh histograms are observed from it, and the Perfetto export
// renders it (docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.hpp"

namespace crowdmap::obs {

/// Plain, copyable snapshot of one span (and its subtree).
struct SpanRecord {
  std::string name;
  double start_seconds = 0.0;     // offset from the trace epoch
  double duration_seconds = 0.0;  // inclusive wall-clock time
  /// Key/value annotations in insertion order (e.g. cache=hit). Kept as a
  /// vector, not a map, so the rendered order is the annotation order.
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<SpanRecord> children;

  /// Value of the attribute named `key`, or nullptr when absent.
  [[nodiscard]] const std::string* attribute(std::string_view key) const;

  /// Inclusive time minus the children's inclusive times (self time).
  [[nodiscard]] double exclusive_seconds() const;

  /// First span named `name` in pre-order (this node included); null if none.
  [[nodiscard]] const SpanRecord* find(std::string_view name) const;

  /// Indented tree report with inclusive/exclusive milliseconds per span.
  [[nodiscard]] std::string to_string() const;
};

class Trace;
class FlightRecorder;

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name);
  ~ScopedSpan();
  ScopedSpan(ScopedSpan&& other) noexcept : trace_(other.trace_) {
    other.trace_ = nullptr;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  Trace* trace_;
};

/// Records a tree of timed spans. Thread-safe, but spans form one stack:
/// interleaved begin/end from concurrent threads would nest arbitrarily, so
/// keep one Trace per logical run (the pipeline does). Non-copyable.
class Trace {
 public:
  explicit Trace(std::string name = "run");

  /// Opens a child span of the innermost open span.
  void begin_span(std::string name) CM_EXCLUDES(mutex_);
  /// Closes the innermost open span (never the root).
  void end_span() CM_EXCLUDES(mutex_);
  /// Attaches a key/value attribute to the innermost open span (the cache
  /// seams tag their stage spans with cache=hit/miss reuse summaries). A
  /// repeated key overwrites the earlier value in place.
  void annotate(std::string_view key, std::string value) CM_EXCLUDES(mutex_);
  /// RAII convenience for begin/end pairs.
  [[nodiscard]] ScopedSpan scoped(std::string name) {
    return ScopedSpan(*this, std::move(name));
  }

  /// Mirrors every span begin/end into the flight recorder as
  /// span_begin/span_end events (null detaches). The recorder must outlive
  /// this trace or be detached first.
  void set_flight_recorder(FlightRecorder* flight) CM_EXCLUDES(mutex_);

  /// Copies the tree; still-open spans (root included) are reported as
  /// running up to "now".
  [[nodiscard]] SpanRecord snapshot() const CM_EXCLUDES(mutex_);
  [[nodiscard]] std::string to_string() const { return snapshot().to_string(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Node {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::pair<std::string, std::string>> attributes;
    bool closed = false;
    Node* parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
  };

  SpanRecord snapshot_node(const Node& node, Clock::time_point now) const
      CM_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  Node root_ CM_GUARDED_BY(mutex_);
  Node* open_ CM_GUARDED_BY(mutex_) = nullptr;  // innermost open span
  FlightRecorder* flight_ CM_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace crowdmap::obs
