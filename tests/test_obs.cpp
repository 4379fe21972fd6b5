// Tests for the observability layer: metric semantics (counter / gauge /
// histogram), registry identity and type safety, concurrent updates, trace
// span nesting and exclusive-time math, golden-format checks of the
// Prometheus / trace_event exporters and snapshot lookup (absent vs zero).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace obs = crowdmap::obs;

// ------------------------------------------------------------- metrics ---

TEST(Metrics, CounterIncrements) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("events_total");
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.increment(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::MetricsRegistry registry;
  auto& g = registry.gauge("depth");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Metrics, HistogramBucketsAreInclusiveCeilings) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("lat_seconds", {}, {0.1, 1.0});
  h.observe(0.05);  // <= 0.1
  h.observe(0.1);   // boundary lands in the 0.1 bucket, not the next
  h.observe(0.5);   // <= 1.0
  h.observe(7.0);   // +Inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 7.65, 1e-12);
}

TEST(Metrics, HistogramDefaultsToLatencyBuckets) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("stage_seconds");
  EXPECT_EQ(h.upper_bounds(), obs::Histogram::default_latency_buckets());
  EXPECT_GE(h.upper_bounds().size(), 10u);
}

TEST(Metrics, SameNameAndLabelsReturnsSameHandle) {
  obs::MetricsRegistry registry;
  auto& a = registry.counter("hits_total", {{"kind", "x"}});
  auto& b = registry.counter("hits_total", {{"kind", "x"}});
  auto& other = registry.counter("hits_total", {{"kind", "y"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.increment();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  obs::MetricsRegistry registry;
  auto& a = registry.counter("multi_total", {{"b", "2"}, {"a", "1"}});
  auto& b = registry.counter("multi_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, TypeConflictThrows) {
  obs::MetricsRegistry registry;
  (void)registry.counter("dual");
  EXPECT_THROW((void)registry.gauge("dual"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("dual"), std::invalid_argument);
}

TEST(Metrics, SnapshotValueLookup) {
  obs::MetricsRegistry registry;
  registry.counter("a_total", {{"k", "v"}}).increment(3);
  registry.gauge("b").set(1.5);
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("a_total", {{"k", "v"}}), 3.0);
  EXPECT_DOUBLE_EQ(snap.value("b"), 1.5);
  EXPECT_DOUBLE_EQ(snap.value("missing"), 0.0);
  ASSERT_NE(snap.find("a_total"), nullptr);
  EXPECT_EQ(snap.find("a_total")->type, obs::MetricType::kCounter);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("spam_total");
  auto& h = registry.histogram("spam_seconds", {}, {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(i % 2 ? 0.1 : 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_count(0) + h.bucket_count(1), h.count());
}

TEST(Metrics, ConcurrentRegistrationIsSafe) {
  obs::MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 200; ++i) {
        registry.counter("shared_total").increment();
        (void)registry.snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared_total").value(), 8u * 200u);
}

// --------------------------------------------------------------- trace ---

TEST(Trace, SpansNestIntoATree) {
  obs::Trace trace("run");
  {
    auto outer = trace.scoped("aggregate");
    {
      auto inner = trace.scoped("match");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const auto snap = trace.snapshot();
  EXPECT_EQ(snap.name, "run");
  ASSERT_EQ(snap.children.size(), 1u);
  EXPECT_EQ(snap.children[0].name, "aggregate");
  ASSERT_EQ(snap.children[0].children.size(), 1u);
  EXPECT_EQ(snap.children[0].children[0].name, "match");
  // Inclusive times nest: parent covers the child.
  EXPECT_GE(snap.children[0].duration_seconds,
            snap.children[0].children[0].duration_seconds);
  EXPECT_GT(snap.children[0].children[0].duration_seconds, 0.0);
}

TEST(Trace, ExclusiveTimeSubtractsChildren) {
  obs::SpanRecord parent;
  parent.name = "run";
  parent.duration_seconds = 1.0;
  obs::SpanRecord a;
  a.name = "a";
  a.duration_seconds = 0.3;
  obs::SpanRecord b;
  b.name = "b";
  b.duration_seconds = 0.2;
  parent.children = {a, b};
  EXPECT_NEAR(parent.exclusive_seconds(), 0.5, 1e-12);
  EXPECT_NEAR(a.exclusive_seconds(), 0.3, 1e-12);  // leaf: all self time
}

TEST(Trace, EndSpanOnRootIsANoOp) {
  obs::Trace trace;
  trace.end_span();  // nothing open besides the root
  { auto span = trace.scoped("stage"); }
  // The root stayed open, so the next span still nests beneath it.
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.children.size(), 1u);
  EXPECT_EQ(snap.children[0].name, "stage");
}

TEST(Trace, ToStringRendersTheTree) {
  obs::Trace trace("run");
  { auto span = trace.scoped("aggregate"); }
  const std::string report = trace.to_string();
  EXPECT_NE(report.find("run"), std::string::npos);
  EXPECT_NE(report.find("  aggregate"), std::string::npos);  // indented child
  EXPECT_NE(report.find("ms"), std::string::npos);
}

// ----------------------------------------------------------- exporters ---

TEST(Export, PrometheusGolden) {
  obs::MetricsRegistry registry;
  registry.gauge("test_gauge", {}, "current level").set(2.5);
  auto& h = registry.histogram("test_seconds", {}, {0.1, 1.0}, "latency");
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  registry.counter("test_total", {{"kind", "a"}}, "events").increment(3);

  const std::string expected =
      "# HELP test_gauge current level\n"
      "# TYPE test_gauge gauge\n"
      "test_gauge 2.5\n"
      "# HELP test_seconds latency\n"
      "# TYPE test_seconds histogram\n"
      "test_seconds_bucket{le=\"0.1\"} 1\n"
      "test_seconds_bucket{le=\"1\"} 2\n"
      "test_seconds_bucket{le=\"+Inf\"} 3\n"
      "test_seconds_sum 5.55\n"
      "test_seconds_count 3\n"
      "# HELP test_total events\n"
      "# TYPE test_total counter\n"
      "test_total{kind=\"a\"} 3\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

TEST(Export, EscapesSpecialCharacters) {
  obs::MetricsRegistry registry;
  registry.counter("esc_total", {{"path", "a\"b\\c\nd"}}).increment();
  const std::string prom = obs::to_prometheus(registry.snapshot());
  EXPECT_NE(prom.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// Label values escape backslash, double-quote and newline — golden for the
// full exposition line, not just a substring probe.
TEST(Export, PrometheusLabelEscapingGolden) {
  obs::MetricsRegistry registry;
  registry.counter("esc_total", {{"path", "C:\\tmp\n\"x\""}}, "paths seen")
      .increment(7);
  const std::string expected =
      "# HELP esc_total paths seen\n"
      "# TYPE esc_total counter\n"
      "esc_total{path=\"C:\\\\tmp\\n\\\"x\\\"\"} 7\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

// HELP text escapes only backslash and newline; a double quote stays
// literal there (the exposition format quotes only label values).
TEST(Export, PrometheusHelpEscapesBackslashAndNewlineOnly) {
  obs::MetricsRegistry registry;
  registry.gauge("help_gauge", {}, "say \"hi\" \\ twice\nsecond line").set(1);
  const std::string expected =
      "# HELP help_gauge say \"hi\" \\\\ twice\\nsecond line\n"
      "# TYPE help_gauge gauge\n"
      "help_gauge 1\n";
  EXPECT_EQ(obs::to_prometheus(registry.snapshot()), expected);
}

// ------------------------------------------------- snapshot lookup ---

TEST(Metrics, FindSeriesDistinguishesAbsentFromZero) {
  obs::MetricsRegistry registry;
  const obs::Counter& zero = registry.counter("zero_total", {{"k", "v"}},
                                              "help");
  EXPECT_EQ(zero.value(), 0u);  // registered, never incremented
  const obs::MetricsSnapshot snapshot = registry.snapshot();

  const obs::SeriesSnapshot* series =
      snapshot.find_series("zero_total", {{"k", "v"}});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->value, 0.0);
  EXPECT_TRUE(snapshot.has("zero_total", {{"k", "v"}}));

  // value() cannot tell these apart; find_series()/has() must.
  EXPECT_EQ(snapshot.value("missing_total"), 0.0);
  EXPECT_EQ(snapshot.find_series("missing_total"), nullptr);
  EXPECT_FALSE(snapshot.has("missing_total"));
  EXPECT_EQ(snapshot.find_series("zero_total", {{"k", "other"}}), nullptr);
  EXPECT_FALSE(snapshot.has("zero_total", {{"k", "other"}}));
}

TEST(Metrics, FindSeriesMatchesLabelsInAnyOrder) {
  obs::MetricsRegistry registry;
  registry.gauge("g", {{"a", "1"}, {"b", "2"}}, "help").set(5);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::SeriesSnapshot* series =
      snapshot.find_series("g", {{"b", "2"}, {"a", "1"}});
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->value, 5.0);
}

// --------------------------------------------------------- trace export ---

TEST(TraceExport, RendersSpansAndFlightInstants) {
  obs::Trace trace("run");
  {
    auto stage = trace.scoped("aggregate");
  }
  const obs::SpanRecord root = trace.snapshot();

  obs::FlightRecorder flight;
  flight.record_named(obs::FlightEventKind::kDegradation, 0, "panorama",
                      flight.intern("skipped"));
  const obs::FlightDump dump = flight.dump();

  const std::string json = obs::to_trace_event_json(root, &dump);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"run\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // The flight instant renders under its interned name with kind args.
  EXPECT_NE(json.find("\"name\": \"panorama\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"degradation\""), std::string::npos);

  // Spans alone (no flight dump) is also valid output.
  const std::string spans_only = obs::to_trace_event_json(root);
  EXPECT_NE(spans_only.find("\"name\": \"aggregate\""), std::string::npos);
  EXPECT_EQ(spans_only.find("\"ph\": \"i\""), std::string::npos);
}
