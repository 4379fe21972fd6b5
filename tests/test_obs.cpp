// Tests for the observability layer: metric semantics (counter / gauge /
// histogram), registry identity and type safety, concurrent updates, trace
// span nesting and exclusive-time math, golden-format checks of the
// Prometheus / JSON / trace_event exporters, snapshot lookup (absent vs
// zero), percentile derivation and the SLO watchdog.
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
#include "obs/slo.hpp"
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

TEST(Trace, ScopedEndReturnsInclusiveSeconds) {
  obs::Trace trace;
  auto span = trace.scoped("stage");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double seconds = span.end();
  EXPECT_GT(seconds, 0.0);
  const auto snap = trace.snapshot();
  ASSERT_NE(snap.find("stage"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("stage")->duration_seconds, seconds);
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

TEST(Trace, TotalSecondsSumsRepeatedSpans) {
  obs::SpanRecord root;
  root.name = "run";
  for (const double d : {0.1, 0.2, 0.3}) {
    obs::SpanRecord child;
    child.name = "extract";
    child.duration_seconds = d;
    root.children.push_back(child);
  }
  EXPECT_NEAR(root.total_seconds("extract"), 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(root.total_seconds("missing"), 0.0);
}

TEST(Trace, EndSpanOnRootIsANoOp) {
  obs::Trace trace;
  EXPECT_DOUBLE_EQ(trace.end_span(), 0.0);  // nothing open besides the root
  const auto snap = trace.snapshot();
  EXPECT_TRUE(snap.children.empty());
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

TEST(Export, JsonGoldenCounter) {
  obs::MetricsRegistry registry;
  registry.counter("c_total", {{"k", "v"}}, "h").increment(2);
  const std::string expected =
      "{\"metrics\":[\n"
      "{\"name\":\"c_total\",\"type\":\"counter\",\"help\":\"h\","
      "\"series\":[{\"labels\":{\"k\":\"v\"},\"value\":2}]}\n"
      "]}\n";
  EXPECT_EQ(obs::to_json(registry.snapshot()), expected);
}

TEST(Export, JsonGoldenHistogram) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("h_seconds", {}, {0.5});
  h.observe(0.25);
  h.observe(2.0);
  const std::string expected =
      "{\"metrics\":[\n"
      "{\"name\":\"h_seconds\",\"type\":\"histogram\",\"help\":\"\","
      "\"series\":[{\"labels\":{},\"count\":2,\"sum\":2.25,"
      "\"buckets\":[{\"le\":0.5,\"count\":1},{\"le\":\"+Inf\",\"count\":2}]}"
      "]}\n"
      "]}\n";
  EXPECT_EQ(obs::to_json(registry.snapshot()), expected);
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

// The JSON exporter must keep escaping quotes everywhere, including help.
TEST(Export, JsonStillEscapesQuotesInHelp) {
  obs::MetricsRegistry registry;
  registry.counter("q_total", {}, "a \"quoted\" word").increment();
  const std::string json = obs::to_json(registry.snapshot());
  EXPECT_NE(json.find("\"help\":\"a \\\"quoted\\\" word\""),
            std::string::npos);
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

// --------------------------------------------------------- percentiles ---

namespace {

obs::HistogramSnapshot make_histogram(std::vector<double> bounds,
                                      std::vector<std::uint64_t> counts) {
  obs::HistogramSnapshot h;
  h.upper_bounds = std::move(bounds);
  h.bucket_counts = std::move(counts);  // non-cumulative, +Inf last
  for (const auto c : h.bucket_counts) h.count += c;
  return h;
}

}  // namespace

TEST(Slo, HistogramQuantileInterpolatesWithinBucket) {
  // 2 observations in (0, 1], 2 in (1, 2], none beyond.
  const auto h = make_histogram({1.0, 2.0}, {2, 2, 0});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.00), 2.0);
}

TEST(Slo, HistogramQuantileClampsInfBucketToHighestFiniteBound) {
  const auto h = make_histogram({1.0, 2.0}, {1, 0, 1});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.99), 2.0);
}

TEST(Slo, HistogramQuantileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(obs::HistogramSnapshot{}, 0.99),
                   0.0);
}

TEST(Slo, PercentilesBundleIsMonotone) {
  const auto h = make_histogram({0.1, 1.0, 10.0}, {90, 9, 1, 0});
  const obs::Percentiles p = obs::percentiles(h);
  EXPECT_LE(p.p50, p.p95);
  EXPECT_LE(p.p95, p.p99);
  EXPECT_GT(p.p99, 0.1);  // the slow tail lives above the first bucket
}

// ------------------------------------------------------------ watchdog ---

TEST(Slo, WatchdogAbsentSeriesIsNotABreach) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  obs::SloWatchdog watchdog(registry);
  watchdog.add({"lat_p99_ms", "crowdmap_never_observed_seconds", {},
                obs::SloKind::kHistogramQuantile, 0.99, 100.0, 1000.0});
  EXPECT_TRUE(watchdog.evaluate().empty());
  EXPECT_EQ(watchdog.breaches_total(), 0u);
  // The breach counter exists (registered eagerly) but stays at zero.
  EXPECT_EQ(registry->snapshot().value("crowdmap_slo_breaches_total",
                                       {{"slo", "lat_p99_ms"}}),
            0.0);
}

TEST(Slo, WatchdogBreachIncrementsCounterAndRecordsFlightEvent) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  obs::FlightOptions options;
  options.dump_on_anomaly = true;
  obs::FlightRecorder flight(options);
  int dumps = 0;
  std::string last_reason;
  flight.set_dump_sink([&](const obs::FlightDump&, std::string_view reason) {
    ++dumps;
    last_reason = std::string(reason);
  });

  auto& h = registry->histogram("lat_seconds", {},
                                obs::Histogram::default_latency_buckets(),
                                "latency");
  for (int i = 0; i < 10; ++i) h.observe(0.9);  // p99 ≈ 1000 ms

  obs::SloWatchdog watchdog(registry, &flight);
  watchdog.add({"lat_p99_ms", "lat_seconds", {},
                obs::SloKind::kHistogramQuantile, 0.99, 500.0, 1000.0});
  const auto breaches = watchdog.evaluate();
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].slo, "lat_p99_ms");
  EXPECT_GT(breaches[0].observed, 500.0);
  EXPECT_EQ(watchdog.breaches_total(), 1u);
  EXPECT_EQ(registry->snapshot().value("crowdmap_slo_breaches_total",
                                       {{"slo", "lat_p99_ms"}}),
            1.0);

  // The breach was recorded as a flight event and triggered an anomaly dump.
  EXPECT_EQ(dumps, 1);
  EXPECT_EQ(last_reason, "anomaly:slo_breach");
  const obs::FlightDump dump = flight.dump();
  bool saw_breach = false;
  for (const auto& event : dump.events) {
    if (event.kind == obs::FlightEventKind::kSloBreach) saw_breach = true;
  }
  EXPECT_TRUE(saw_breach);
  // The SLO name is interned so dumps stay readable.
  bool named = false;
  for (const auto& [hash, name] : dump.strings) {
    if (name == "lat_p99_ms") named = true;
  }
  EXPECT_TRUE(named);
}

TEST(Slo, WatchdogGaugeMaxKind) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  registry->gauge("depth", {}, "queue depth").set(12);
  obs::SloWatchdog watchdog(registry);
  watchdog.add({"depth_max", "depth", {}, obs::SloKind::kGaugeMax, 0.99,
                10.0, 1.0});
  EXPECT_EQ(watchdog.evaluate().size(), 1u);
  registry->gauge("depth", {}, "queue depth").set(3);
  EXPECT_TRUE(watchdog.evaluate().empty());
  EXPECT_EQ(watchdog.breaches_total(), 1u);
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
