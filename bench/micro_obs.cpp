// Flight-recorder hot-path overhead: record() on a disarmed recorder (one
// relaxed load + branch), record() armed (steady-clock read + five relaxed
// atomic stores into the thread-local ring), armed recording under thread
// contention, and the cold-path deterministic dump.
//
// Emits BENCH_obs.json. The acceptance bar is record_enabled_ns <= ~50 ns —
// cheap enough that the recorder ships always-on (docs/OBSERVABILITY.md);
// bench/baselines/TOLERANCES.conf pins it through tools/bench_gate, and pins
// dump_events exactly: every ring is full, so the dump holds rings x 4096.
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "obs/flight.hpp"

namespace {

constexpr const char* kBench = "obs";
constexpr int kRepeats = 5;
constexpr std::size_t kEvents = 1u << 20;

using crowdmap::obs::FlightEventKind;
using crowdmap::obs::FlightRecorder;

double ns_per_event(FlightRecorder& flight, std::size_t events) {
  crowdmap::common::Stopwatch timer;
  for (std::size_t i = 0; i < events; ++i) {
    flight.record(FlightEventKind::kCacheHit, 1, i, i ^ 0x5aa5);
  }
  return timer.elapsed_seconds() * 1e9 / static_cast<double>(events);
}

}  // namespace

int main() {
  using namespace crowdmap;

  obs::FlightOptions options;
  options.ring_capacity = 4096;
  FlightRecorder flight(options);

  // Warm up this thread's ring registration so neither loop pays it.
  flight.record(FlightEventKind::kCacheHit, 0, 0, 0);

  std::vector<double> disarmed;
  std::vector<double> enabled;
  for (int r = 0; r < kRepeats; ++r) {
    flight.disarm();
    disarmed.push_back(ns_per_event(flight, kEvents));
    flight.arm();
    enabled.push_back(ns_per_event(flight, kEvents));
  }
  bench::emit_bench_json(kBench, "record_disarmed_ns", disarmed);
  bench::emit_bench_json(kBench, "record_enabled_ns", enabled);

  // Contended: four writers, each into its own ring — per-thread rings mean
  // the only sharing is the armed flag and the clock, so this should stay
  // within a small factor of the single-thread number.
  std::vector<double> contended;
  for (int r = 0; r < kRepeats; ++r) {
    common::Stopwatch timer;
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&flight] {
        for (std::size_t i = 0; i < kEvents / 4; ++i) {
          flight.record(FlightEventKind::kCacheMiss, 2, i, i);
        }
      });
    }
    for (auto& w : writers) w.join();
    contended.push_back(timer.elapsed_seconds() * 1e9 /
                        static_cast<double>(kEvents / 4));
  }
  bench::emit_bench_json(kBench, "record_contended_4t_ns", contended);

  // Cold path: merge + normalize the rings.
  std::vector<double> dump_ms;
  std::size_t dump_events = 0;
  for (int r = 0; r < kRepeats; ++r) {
    common::Stopwatch timer;
    const obs::FlightDump dump = flight.deterministic_dump();
    dump_ms.push_back(timer.elapsed_seconds() * 1e3);
    dump_events = dump.events.size();
  }
  bench::emit_bench_json(kBench, "deterministic_dump_ms", dump_ms);
  bench::emit_bench_scalar(kBench, "dump_events",
                           static_cast<double>(dump_events));
  return 0;
}
