#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace crowdmap::obs {

namespace {

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Integers render without a decimal point; everything else as shortest %g.
std::string format_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// The exposition format escapes only backslash and newline in HELP text —
/// double quotes stay literal there, unlike in label values.
std::string escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// {key="value",...} — empty string for an empty label set.
std::string prometheus_labels(const Labels& labels, std::string_view extra_key = {},
                              std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + escape(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + std::string(extra_value) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& family : snapshot.families) {
    if (!family.help.empty()) {
      out << "# HELP " << family.name << ' ' << escape_help(family.help)
          << '\n';
    }
    out << "# TYPE " << family.name << ' ' << type_name(family.type) << '\n';
    for (const auto& series : family.series) {
      if (family.type == MetricType::kHistogram) {
        const auto& h = series.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
          cumulative += h.bucket_counts[i];
          out << family.name << "_bucket"
              << prometheus_labels(series.labels, "le",
                                   format_number(h.upper_bounds[i]))
              << ' ' << cumulative << '\n';
        }
        out << family.name << "_bucket"
            << prometheus_labels(series.labels, "le", "+Inf") << ' ' << h.count
            << '\n';
        out << family.name << "_sum" << prometheus_labels(series.labels) << ' '
            << format_number(h.sum) << '\n';
        out << family.name << "_count" << prometheus_labels(series.labels)
            << ' ' << h.count << '\n';
      } else {
        out << family.name << prometheus_labels(series.labels) << ' '
            << format_number(series.value) << '\n';
      }
    }
  }
  return out.str();
}

}  // namespace crowdmap::obs
