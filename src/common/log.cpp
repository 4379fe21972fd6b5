#include "common/log.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/annotations.hpp"

namespace crowdmap::common {

namespace {

LogLevel level_from_env() noexcept {
  const char* value = std::getenv("CROWDMAP_LOG_LEVEL");
  return parse_log_level(value ? value : "", LogLevel::kWarn);
}

std::atomic<LogLevel> g_level{level_from_env()};
Mutex g_write_mutex;

[[nodiscard]] const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

/// Small per-thread id: threads number themselves on first log.
[[nodiscard]] unsigned thread_number() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1);
  return id;
}

/// ISO-8601 UTC with milliseconds, e.g. "2026-08-05T12:34:56.789Z".
/// Wall-clock time is fine here: log timestamps never feed scores or output.
void format_timestamp(char* buf, std::size_t size) noexcept {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  std::snprintf(buf, size, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(ms));
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

LogLevel parse_log_level(std::string_view name, LogLevel fallback) noexcept {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

void log_line(LogLevel level, std::string_view component, std::string_view message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  char timestamp[96];
  format_timestamp(timestamp, sizeof(timestamp));
  MutexLock lock(g_write_mutex);
  std::fprintf(stderr, "%s [%s] (t%02u) %.*s: %.*s\n", timestamp,
               level_name(level), thread_number(),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace crowdmap::common
