#include "common/config.h"

#include <cstdlib>
#include <stdexcept>

#include "common/error.h"

namespace fedl {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw ConfigError("expected --flag, got: " + arg);
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_[key] = true;
  return it->second;
}

bool Flags::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  auto v = raw(key);
  return v ? *v : fallback;
}

double Flags::get_double(const std::string& key, double fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    double parsed = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("flag --" + key + " expects a number, got: " + *v);
  }
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    long long parsed = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("flag --" + key + " expects an integer, got: " + *v);
  }
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw ConfigError("flag --" + key + " expects a boolean, got: " + *v);
}

std::vector<double> Flags::get_double_list(
    const std::string& key, std::vector<double> fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= v->size()) {
    auto comma = v->find(',', start);
    std::string tok = v->substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!tok.empty()) {
      try {
        out.push_back(std::stod(tok));
      } catch (const std::exception&) {
        throw ConfigError("flag --" + key + " has a bad list element: " + tok);
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty())
    throw ConfigError("flag --" + key + " expects a non-empty list");
  return out;
}

std::vector<std::string> Flags::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_)
    if (!read_.count(k)) out.push_back(k);
  return out;
}

void Flags::require_all_read() const {
  const std::vector<std::string> unread = unread_keys();
  if (unread.empty()) return;
  std::string msg = unread.size() == 1 ? "unknown flag:" : "unknown flags:";
  for (const auto& k : unread) msg += " --" + k;
  throw ConfigError(msg);
}

}  // namespace fedl
