// Chrome/Perfetto trace export: renders a Trace span tree (and optionally a
// flight-recorder dump) as the `trace_event` JSON that chrome://tracing and
// ui.perfetto.dev open directly. Complete spans become "X" duration events;
// flight events become "i" instants on their recording thread's track,
// carrying every field of the event. This is the one rendering a dump has
// outside the process. Wired to `crowdmap_cli --trace-out`
// (docs/OBSERVABILITY.md has a walkthrough).
#pragma once

#include <string>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace crowdmap::obs {

/// Serializes the span tree rooted at `root` (plus the flight dump's events,
/// when given) into trace_event JSON. Timestamps are microseconds: spans
/// from the trace epoch, flight events from the recorder epoch — the two
/// clocks start within the same pipeline construction, so the tracks line
/// up closely enough to read. Output is deterministic for fixed inputs.
[[nodiscard]] std::string to_trace_event_json(
    const SpanRecord& root, const FlightDump* flight = nullptr);

}  // namespace crowdmap::obs
