#include "experiments/options.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pmsb::experiments {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

void parse_line(Options& opts, const std::string& raw, const std::string& where) {
  std::string line = raw;
  if (const auto hash = line.find('#'); hash != std::string::npos) {
    line = line.substr(0, hash);
  }
  line = trim(line);
  if (line.empty()) return;
  const auto eq = line.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::invalid_argument("Options: malformed '" + raw + "' in " + where);
  }
  opts.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
}
}  // namespace

Options Options::from_args(int argc, const char* const* argv) {
  Options file_opts;
  Options cli_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config") {
      if (i + 1 >= argc) throw std::invalid_argument("--config needs a path");
      file_opts.merge_from(from_file(argv[++i]));
      continue;
    }
    parse_line(cli_opts, arg, "argv");
  }
  file_opts.merge_from(cli_opts);  // command line wins
  return file_opts;
}

Options Options::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("Options: cannot open " + path);
  Options opts;
  std::string line;
  while (std::getline(in, line)) parse_line(opts, line, path);
  return opts;
}

void Options::merge_from(const Options& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::invalid_argument("Options: '" + key + "' is not an integer");
  }
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t pos = 0;
  const double v = std::stod(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::invalid_argument("Options: '" + key + "' is not a number");
  }
  return v;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Options: '" + key + "' is not a boolean");
}

namespace {
std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Classic two-row Levenshtein; option keys are short so O(|a|*|b|) is fine.
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}
}  // namespace

std::string Options::closest_key(const std::string& key,
                                 const std::vector<std::string>& candidates,
                                 std::size_t max_distance) {
  std::string best;
  std::size_t best_dist = max_distance + 1;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(key, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

void Options::validate_keys(const std::vector<std::string>& allowed) const {
  for (const auto& [key, value] : values_) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) continue;
    std::string msg = "unknown option '" + key + "'";
    const std::string suggestion = closest_key(key, allowed);
    if (!suggestion.empty()) msg += " (did you mean '" + suggestion + "'?)";
    msg += "; run with --help for the key list";
    throw std::invalid_argument(msg);
  }
}

std::vector<double> Options::get_double_list(const std::string& key) const {
  std::vector<double> out;
  const auto it = values_.find(key);
  if (it == values_.end()) return out;
  std::stringstream ss(it->second);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    const std::string entry = trim(cell);
    if (entry.empty()) continue;
    std::size_t pos = 0;
    double v = 0.0;
    try {
      v = std::stod(entry, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != entry.size()) {
      throw std::invalid_argument("Options: '" + key + "' entry '" + entry +
                                  "' is not a number");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace pmsb::experiments
