#include "common/config_file.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace crowdmap::common {

namespace {

[[nodiscard]] std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

ConfigFile ConfigFile::parse(const std::string& text) {
  ConfigFile config;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config line " + std::to_string(line_no) +
                               ": expected key = value");
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("config line " + std::to_string(line_no) +
                               ": empty key");
    }
    config.entries_[key] = value;
  }
  return config;
}

ConfigFile ConfigFile::load(const std::string& path) {
  // Boot-time read of an operator-supplied file, not durable state — the
  // storage::Env indirection buys nothing here.
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

Expected<ConfigFile> ConfigFile::try_parse(const std::string& text) {
  try {
    return parse(text);
  } catch (const std::runtime_error& e) {
    return make_error("config.parse", e.what());
  }
}

Expected<ConfigFile> ConfigFile::try_load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return make_error("config.io", "cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return try_parse(buffer.str());
}

bool ConfigFile::has(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::optional<std::string> ConfigFile::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

double ConfigFile::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const double out = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("config key '" + key + "': not a number: " + *v);
  }
}

int ConfigFile::get_int(const std::string& key, int fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const int out = std::stoi(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("config key '" + key + "': not an integer: " + *v);
  }
}

bool ConfigFile::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::runtime_error("config key '" + key + "': not a boolean: " + *v);
}

}  // namespace crowdmap::common
