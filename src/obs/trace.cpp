#include "obs/trace.hpp"

#include <iomanip>
#include <sstream>

#include "obs/flight.hpp"

namespace crowdmap::obs {

// ----------------------------------------------------------- SpanRecord ---

double SpanRecord::exclusive_seconds() const {
  double children_total = 0.0;
  for (const auto& child : children) children_total += child.duration_seconds;
  return duration_seconds - children_total;
}

const std::string* SpanRecord::attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

const SpanRecord* SpanRecord::find(std::string_view target) const {
  if (name == target) return this;
  for (const auto& child : children) {
    if (const SpanRecord* hit = child.find(target)) return hit;
  }
  return nullptr;
}

namespace {

void render(const SpanRecord& span, int depth, std::ostringstream& out) {
  out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << span.name
      << "  " << std::fixed << std::setprecision(3)
      << span.duration_seconds * 1e3 << " ms";
  if (!span.children.empty()) {
    out << " (self " << span.exclusive_seconds() * 1e3 << " ms)";
  }
  for (const auto& [key, value] : span.attributes) {
    out << "  " << key << "=" << value;
  }
  out << '\n';
  for (const auto& child : span.children) render(child, depth + 1, out);
}

}  // namespace

std::string SpanRecord::to_string() const {
  std::ostringstream out;
  render(*this, 0, out);
  return out.str();
}

// ------------------------------------------------------------ ScopedSpan ---

ScopedSpan::ScopedSpan(Trace& trace, std::string name) : trace_(&trace) {
  trace_->begin_span(std::move(name));
}

ScopedSpan::~ScopedSpan() {
  if (trace_) trace_->end_span();
}

// ----------------------------------------------------------------- Trace ---

Trace::Trace(std::string name) {
  root_.name = std::move(name);
  root_.start = Clock::now();
  open_ = &root_;
}

void Trace::begin_span(std::string name) {
  common::MutexLock lock(mutex_);
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  node->start = Clock::now();
  node->parent = open_;
  Node* raw = node.get();
  open_->children.push_back(std::move(node));
  open_ = raw;
  if (flight_ != nullptr) {
    flight_->record_named(FlightEventKind::kSpanBegin, 0, raw->name);
  }
}

void Trace::end_span() {
  common::MutexLock lock(mutex_);
  if (open_ == &root_) return;  // unbalanced end: ignore
  open_->end = Clock::now();
  open_->closed = true;
  if (flight_ != nullptr) {
    const double seconds =
        std::chrono::duration<double>(open_->end - open_->start).count();
    flight_->record_named(FlightEventKind::kSpanEnd, 0, open_->name,
                          static_cast<std::uint64_t>(seconds * 1e9));
  }
  open_ = open_->parent;
}

void Trace::annotate(std::string_view key, std::string value) {
  common::MutexLock lock(mutex_);
  for (auto& [k, v] : open_->attributes) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  open_->attributes.emplace_back(std::string(key), std::move(value));
}

SpanRecord Trace::snapshot_node(const Node& node, Clock::time_point now) const {
  SpanRecord record;
  record.name = node.name;
  record.start_seconds =
      std::chrono::duration<double>(node.start - root_.start).count();
  const Clock::time_point end = node.closed ? node.end : now;
  record.duration_seconds =
      std::chrono::duration<double>(end - node.start).count();
  record.attributes = node.attributes;
  record.children.reserve(node.children.size());
  for (const auto& child : node.children) {
    record.children.push_back(snapshot_node(*child, now));
  }
  return record;
}

void Trace::set_flight_recorder(FlightRecorder* flight) {
  common::MutexLock lock(mutex_);
  flight_ = flight;
}

SpanRecord Trace::snapshot() const {
  common::MutexLock lock(mutex_);
  return snapshot_node(root_, Clock::now());
}

}  // namespace crowdmap::obs
