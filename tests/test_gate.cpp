// Gate-library suite (tools/gate): BENCH line and tolerance-manifest
// parsing, the --check baseline self-validation, and the fresh-run gate
// (regressions, vanished series, new series notes) — all on in-memory
// lines, mirroring how tests/test_analyze.cpp drives the analyzer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gate/gate.hpp"

namespace gate = crowdmap::gate;

namespace {

constexpr const char* kLine =
    R"(BENCH_obs.json {"name":"record_enabled_ns","samples":5,"mean":38.2,)"
    R"("stddev":0.5,"min":37.7,"max":39.0,"median":38.1,"p90":38.7,"p99":39.0})";

TEST(GateParse, ParsesABenchLine) {
  gate::GateReport report;
  const auto series = gate::parse_bench_lines("mem", kLine, report);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].bench, "obs");
  EXPECT_EQ(series[0].name, "record_enabled_ns");
  EXPECT_EQ(series[0].samples, 5u);
  EXPECT_DOUBLE_EQ(series[0].mean, 38.2);
  EXPECT_DOUBLE_EQ(series[0].p99, 39.0);
}

TEST(GateParse, FindsBenchLinesInsideCiLogs) {
  gate::GateReport report;
  const std::string log = std::string("[12:30:01] some runner banner\n") +
                          "[12:30:02] " + kLine + "\nunrelated trailer\n";
  const auto series = gate::parse_bench_lines("ci.log", log, report);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].bench, "obs");
}

TEST(GateParse, MalformedBenchLineIsAnError) {
  gate::GateReport report;
  const auto series = gate::parse_bench_lines(
      "mem", "BENCH_obs.json {\"no_name_field\":1}", report);
  EXPECT_TRUE(series.empty());
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.errors.empty());
}

TEST(GateParse, ParsesToleranceManifest) {
  gate::GateReport report;
  const auto tolerances = gate::parse_tolerances(
      "TOLERANCES.conf",
      "# comment\n\n"
      "obs:record_enabled_ns max 50\n"
      "incremental:incremental_speedup_ratio min 5.0\n",
      report);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(tolerances.size(), 2u);
  EXPECT_EQ(tolerances[0].bench, "obs");
  EXPECT_EQ(tolerances[0].series, "record_enabled_ns");
  EXPECT_EQ(tolerances[0].bound, gate::Bound::kMax);
  EXPECT_DOUBLE_EQ(tolerances[0].value, 50.0);
  EXPECT_EQ(tolerances[1].bound, gate::Bound::kMin);
}

TEST(GateParse, MalformedToleranceRowsAreErrors) {
  gate::GateReport report;
  (void)gate::parse_tolerances("t", "obs:x sideways 5\n", report);
  EXPECT_FALSE(report.ok());
  gate::GateReport no_colon;
  (void)gate::parse_tolerances("t", "obsx min 5\n", no_colon);
  EXPECT_FALSE(no_colon.ok());
}

// ----------------------------------------------------------- baselines ---

std::vector<gate::BenchSeries> baseline_set() {
  gate::GateReport report;
  auto series = gate::parse_bench_lines(
      "baselines",
      std::string(kLine) + "\n" +
          R"(BENCH_obs.json {"name":"deterministic_dump_ms","samples":5,)"
          R"("mean":11.1,"stddev":0.6,"min":10.5,"max":12.1,"median":11.0,)"
          R"("p90":11.7,"p99":12.1})",
      report);
  EXPECT_TRUE(report.ok());
  return series;
}

std::vector<gate::Tolerance> bounds(const std::string& text) {
  gate::GateReport report;
  auto tolerances = gate::parse_tolerances("t", text, report);
  EXPECT_TRUE(report.ok());
  return tolerances;
}

TEST(GateCheck, PassesWhenBaselinesSatisfyBounds) {
  gate::GateReport report;
  gate::check_baselines(baseline_set(),
                        bounds("obs:record_enabled_ns max 50\n"), report);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front());
}

TEST(GateCheck, FailsWhenABoundHasNoBaseline) {
  gate::GateReport report;
  gate::check_baselines(baseline_set(), bounds("obs:missing_series max 1\n"),
                        report);
  EXPECT_FALSE(report.ok());
}

TEST(GateCheck, FailsWhenACommittedBaselineViolatesItsOwnBound) {
  gate::GateReport report;
  gate::check_baselines(baseline_set(),
                        bounds("obs:record_enabled_ns max 10\n"), report);
  EXPECT_FALSE(report.ok());
}

// ----------------------------------------------------------------- gate ---

TEST(GateRun, PassesWhenFreshMeansStayWithinBounds) {
  gate::GateReport report;
  gate::gate_run(baseline_set(), baseline_set(),
                 bounds("obs:record_enabled_ns max 50\n"), report);
  EXPECT_TRUE(report.ok());
}

TEST(GateRun, FailsOnARegressedSeries) {
  gate::GateReport report;
  auto current = baseline_set();
  for (auto& series : current) {
    if (series.name == "record_enabled_ns") series.mean = 97.5;
  }
  gate::gate_run(baseline_set(), current,
                 bounds("obs:record_enabled_ns max 50\n"), report);
  EXPECT_FALSE(report.ok());
  bool regression_reported = false;
  for (const auto& failure : report.failures) {
    if (failure.find("record_enabled_ns") != std::string::npos) {
      regression_reported = true;
    }
  }
  EXPECT_TRUE(regression_reported);
}

TEST(GateRun, FailsWhenACoveredSeriesDisappears) {
  gate::GateReport report;
  auto current = baseline_set();
  current.erase(current.begin() + 1);  // drop deterministic_dump_ms
  gate::gate_run(baseline_set(), current,
                 bounds("obs:record_enabled_ns max 50\n"), report);
  EXPECT_FALSE(report.ok());
}

TEST(GateRun, IgnoresBenchesTheFreshRunDoesNotCover) {
  // A fresh run of only micro_obs must not fail because the incremental
  // baselines were not re-run.
  gate::GateReport report;
  auto baselines = baseline_set();
  gate::GateReport parse;
  auto other = gate::parse_bench_lines(
      "baselines",
      R"(BENCH_incremental.json {"name":"incremental_speedup_ratio",)"
      R"("samples":1,"mean":59.4,"stddev":0,"min":59.4,"max":59.4,)"
      R"("median":59.4,"p90":59.4,"p99":59.4})",
      parse);
  ASSERT_TRUE(parse.ok());
  baselines.insert(baselines.end(), other.begin(), other.end());
  gate::gate_run(baselines, baseline_set(),
                 bounds("obs:record_enabled_ns max 50\n"
                        "incremental:incremental_speedup_ratio min 5.0\n"),
                 report);
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? ""
                                   : report.failures.front());
}

TEST(GateRun, NotesNewSeries) {
  gate::GateReport report;
  gate::GateReport parse;
  auto current = baseline_set();
  auto fresh = gate::parse_bench_lines(
      "run",
      R"(BENCH_obs.json {"name":"brand_new_ns","samples":1,"mean":1,)"
      R"("stddev":0,"min":1,"max":1,"median":1,"p90":1,"p99":1})",
      parse);
  ASSERT_TRUE(parse.ok());
  current.insert(current.end(), fresh.begin(), fresh.end());
  gate::gate_run(baseline_set(), current,
                 bounds("obs:record_enabled_ns max 50\n"), report);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.notes.empty());
}

}  // namespace
