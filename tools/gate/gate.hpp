// bench_gate — the perf-regression gate over BENCH_*.json result lines.
//
// Every bench binary emits machine-readable lines of the form
//
//   BENCH_<bench>.json {"name":"<series>","samples":N,"mean":...,...}
//
// (bench/bench_util.hpp). The committed files under bench/baselines/ capture
// those lines; bench/baselines/TOLERANCES.conf declares per-metric bounds
// for the host-independent series (ratios, counts). This library parses
// both, validates the committed baselines against the manifest (--check, the
// CI mode), and diffs a fresh bench run against the baselines: a bounded
// series that crosses its bound fails the gate, a series that disappears
// from a covered bench fails the gate, and everything else — absolute
// wall-clock numbers vary per host — is presence-checked only.
//
// Like tools/analyze, this half is dependency-free so tests can drive the gate
// on in-memory lines; the binary half (tools/bench_gate.cpp) does the file
// I/O and exits non-zero for CI.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace crowdmap::gate {

/// One parsed BENCH result line.
struct BenchSeries {
  std::string bench;   // the <bench> of BENCH_<bench>.json
  std::string name;    // the "name" field (series within the bench)
  std::uint64_t samples = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Direction of a tolerance bound on a series' mean.
enum class Bound { kMin, kMax };

/// One TOLERANCES.conf row: `<bench>:<series> min|max <value>`.
struct Tolerance {
  std::string bench;
  std::string series;
  Bound bound = Bound::kMin;
  double value = 0.0;
};

/// Outcome of a parse or gate step. `errors` are malformed inputs (always
/// fatal); `failures` are gate verdicts; `notes` are informational.
struct GateReport {
  std::vector<std::string> errors;
  std::vector<std::string> failures;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const noexcept {
    return errors.empty() && failures.empty();
  }
};

/// Extracts every BENCH_*.json line out of `text` (raw baseline files and
/// full CI logs both work; non-BENCH lines are ignored). Malformed BENCH
/// lines are reported into `report.errors` with `origin` as the location.
[[nodiscard]] std::vector<BenchSeries> parse_bench_lines(
    std::string_view origin, std::string_view text, GateReport& report);

/// Parses the tolerance manifest (# comments and blank lines allowed).
[[nodiscard]] std::vector<Tolerance> parse_tolerances(std::string_view origin,
                                                      std::string_view text,
                                                      GateReport& report);

/// CI self-check: every manifest row must match a committed baseline series,
/// and that series' mean must satisfy its own bound (a baseline that fails
/// its own tolerance is a regression someone committed).
void check_baselines(const std::vector<BenchSeries>& baselines,
                     const std::vector<Tolerance>& tolerances,
                     GateReport& report);

/// Gates a fresh run against the baselines: bounded series are re-checked
/// against their bounds on the fresh means; series present in a baseline
/// bench that the fresh run also covers must not disappear; new series are
/// noted so they get a baseline row in review.
void gate_run(const std::vector<BenchSeries>& baselines,
              const std::vector<BenchSeries>& current,
              const std::vector<Tolerance>& tolerances, GateReport& report);

}  // namespace crowdmap::gate
