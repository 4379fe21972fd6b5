// Metrics registry for the cloud backend: named counter / gauge / histogram
// families with Prometheus-style labels. Registration takes a mutex once;
// after that every update is a lock-free atomic on the returned handle, so
// hot paths (per-chunk ingest, per-keyframe matching) can record freely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"

namespace crowdmap::obs {

/// Label set of one time series, e.g. {{"stage", "aggregate"}}. Canonical
/// form is sorted by key; the registry sorts on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value (queue depth, last-run placement count).
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram. `upper_bounds` are the inclusive bucket
/// ceilings in ascending order; an implicit +Inf bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  /// Count in bucket i (non-cumulative); i == bounds().size() is +Inf.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Default ceilings for stage/extraction latencies: 1 ms .. 60 s.
  [[nodiscard]] static std::vector<double> default_latency_buckets();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ------------------------------------------------------------ snapshots ---

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> bucket_counts;  // non-cumulative, +Inf last
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// One (labels -> value) series within a family.
struct SeriesSnapshot {
  Labels labels;
  double value = 0.0;           // counter / gauge
  HistogramSnapshot histogram;  // histogram families only
};

/// One named metric family.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<SeriesSnapshot> series;  // sorted by labels
};

/// Full registry dump; families sorted by name so exports are deterministic.
struct MetricsSnapshot {
  std::vector<FamilySnapshot> families;

  [[nodiscard]] const FamilySnapshot* find(std::string_view name) const;
  /// Series of family `name` whose labels match exactly (any key order);
  /// nullptr when the family or series is absent. The only way to tell a
  /// missing series from a series that truly reads 0.
  [[nodiscard]] const SeriesSnapshot* find_series(
      std::string_view name, const Labels& labels = {}) const;
  /// Whether the series exists in this snapshot.
  [[nodiscard]] bool has(std::string_view name, const Labels& labels = {}) const {
    return find_series(name, labels) != nullptr;
  }
  /// Counter/gauge value of one series; 0 if absent. Callers that must
  /// distinguish "absent" from "zero" use find_series()/has().
  [[nodiscard]] double value(std::string_view name, const Labels& labels = {}) const;
};

// ------------------------------------------------------------- registry ---

/// Thread-safe registry of metric families. Handles returned by counter() /
/// gauge() / histogram() stay valid for the registry's lifetime; repeated
/// registration with the same name+labels returns the same instance.
/// Re-registering a name as a different type throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name, Labels labels = {},
                                 std::string_view help = "")
      CM_EXCLUDES(mutex_);
  [[nodiscard]] Gauge& gauge(std::string_view name, Labels labels = {},
                             std::string_view help = "") CM_EXCLUDES(mutex_);
  [[nodiscard]] Histogram& histogram(std::string_view name, Labels labels = {},
                                     std::vector<double> upper_bounds = {},
                                     std::string_view help = "")
      CM_EXCLUDES(mutex_);

  [[nodiscard]] MetricsSnapshot snapshot() const CM_EXCLUDES(mutex_);

 private:
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::map<Labels, std::unique_ptr<Counter>> counters;
    std::map<Labels, std::unique_ptr<Gauge>> gauges;
    std::map<Labels, std::unique_ptr<Histogram>> histograms;
  };

  Family& family_for(std::string_view name, MetricType type,
                     std::string_view help) CM_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  std::map<std::string, Family, std::less<>> families_ CM_GUARDED_BY(mutex_);
};

}  // namespace crowdmap::obs
