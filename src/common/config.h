// Command-line flag parsing for benches and examples.
//
// Flags are "--key=value" or "--key value"; "--flag" alone sets a boolean.
// Every binary calls require_all_read() after its last flag read and before
// its first run, so an unknown flag raises ConfigError and a typo in a sweep
// script fails at once instead of being ignored.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fedl {

class Flags {
 public:
  // Parses argv; throws ConfigError on malformed input.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // Comma-separated list of doubles, e.g. --budgets=100,200,400.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const;

  // Keys that were parsed but never read.
  std::vector<std::string> unread_keys() const;
  // Throws ConfigError naming every key in unread_keys(), if any.
  void require_all_read() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace fedl
