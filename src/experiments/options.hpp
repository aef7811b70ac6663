// Tiny key=value option parser for the command-line tools.
//
// Accepts `key=value` tokens on the command line plus `--config FILE` where
// FILE holds one `key=value` per line ('#' comments allowed). Later values
// override earlier ones, and command-line tokens override the file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pmsb::experiments {

class Options {
 public:
  Options() = default;

  /// Parses argv tokens; throws std::invalid_argument on malformed input.
  static Options from_args(int argc, const char* const* argv);

  /// Parses a config file (one key=value per line, '#' comments).
  static Options from_file(const std::string& path);

  void set(const std::string& key, const std::string& value) { values_[key] = value; }
  void erase(const std::string& key) { values_.erase(key); }
  void merge_from(const Options& other);  ///< other's values win

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = {}) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Comma-separated list of doubles ("1,2.5,4"); empty entries are
  /// skipped, and an entry that is not wholly a number throws.
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::string>& values() const {
    return values_;
  }

  /// Throws std::invalid_argument naming the first key not in `allowed`,
  /// with a "did you mean" suggestion when a near-miss exists. Tools call
  /// this after parsing so a typo (`trace_flow=3`) fails loudly instead of
  /// being silently ignored.
  void validate_keys(const std::vector<std::string>& allowed) const;

  /// The entry of `candidates` closest to `key` by edit distance, or ""
  /// when nothing is within `max_distance` edits.
  [[nodiscard]] static std::string closest_key(
      const std::string& key, const std::vector<std::string>& candidates,
      std::size_t max_distance = 3);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pmsb::experiments
