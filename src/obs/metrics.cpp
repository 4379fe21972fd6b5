#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace crowdmap::obs {

namespace {

Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

// ------------------------------------------------------------ histogram ---

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_buckets();
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_latency_buckets() {
  return {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
          0.5,   1.0,   2.5,  5.0,   10.0, 30.0, 60.0};
}

// ------------------------------------------------------------- registry ---

MetricsRegistry::Family& MetricsRegistry::family_for(std::string_view name,
                                                     MetricType type,
                                                     std::string_view help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{}).first;
    it->second.type = type;
    it->second.help = std::string(help);
  } else if (it->second.type != type) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different type");
  }
  if (it->second.help.empty() && !help.empty()) it->second.help = help;
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels,
                                  std::string_view help) {
  common::MutexLock lock(mutex_);
  Family& family = family_for(name, MetricType::kCounter, help);
  auto& slot = family.counters[sorted(std::move(labels))];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels,
                              std::string_view help) {
  common::MutexLock lock(mutex_);
  Family& family = family_for(name, MetricType::kGauge, help);
  auto& slot = family.gauges[sorted(std::move(labels))];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                      std::vector<double> upper_bounds,
                                      std::string_view help) {
  common::MutexLock lock(mutex_);
  Family& family = family_for(name, MetricType::kHistogram, help);
  auto& slot = family.histograms[sorted(std::move(labels))];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  common::MutexLock lock(mutex_);
  MetricsSnapshot out;
  out.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fam;
    fam.name = name;
    fam.help = family.help;
    fam.type = family.type;
    for (const auto& [labels, c] : family.counters) {
      SeriesSnapshot s;
      s.labels = labels;
      s.value = static_cast<double>(c->value());
      fam.series.push_back(std::move(s));
    }
    for (const auto& [labels, g] : family.gauges) {
      SeriesSnapshot s;
      s.labels = labels;
      s.value = g->value();
      fam.series.push_back(std::move(s));
    }
    for (const auto& [labels, h] : family.histograms) {
      SeriesSnapshot s;
      s.labels = labels;
      s.histogram.upper_bounds = h->upper_bounds();
      s.histogram.bucket_counts.reserve(h->upper_bounds().size() + 1);
      for (std::size_t i = 0; i <= h->upper_bounds().size(); ++i) {
        s.histogram.bucket_counts.push_back(h->bucket_count(i));
      }
      s.histogram.count = h->count();
      s.histogram.sum = h->sum();
      fam.series.push_back(std::move(s));
    }
    out.families.push_back(std::move(fam));
  }
  return out;
}

// ------------------------------------------------------------- snapshot ---

const FamilySnapshot* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

const SeriesSnapshot* MetricsSnapshot::find_series(std::string_view name,
                                                   const Labels& labels) const {
  const FamilySnapshot* family = find(name);
  if (!family) return nullptr;
  Labels key = labels;
  std::sort(key.begin(), key.end());
  for (const auto& series : family->series) {
    if (series.labels == key) return &series;
  }
  return nullptr;
}

double MetricsSnapshot::value(std::string_view name, const Labels& labels) const {
  if (const SeriesSnapshot* series = find_series(name, labels)) {
    return series->value;
  }
  return 0.0;
}

}  // namespace crowdmap::obs
