#include "cli/args.hpp"

#include <cmath>
#include <cstdlib>

#include "config/range.hpp"

namespace hcsim {

namespace {

/// Options that never take a value. "--flag token" must leave `token` a
/// positional instead of swallowing it as the flag's value; every other
/// option follows the "--key value" rule.
bool isBareFlag(const std::string& name) {
  static const char* const kBareFlags[] = {
      "--fsync", "--per-op", "--shared-file", "--unique-dir", "--help",
      "--no-shrink", "--full", "--internal", "--telemetry", "--json",
      "--self", "--self-profile",
  };
  for (const char* flag : kBareFlags) {
    if (name == flag) return true;
  }
  return false;
}

/// The whole value as a finite number, else nullopt.
std::optional<double> toNumber(const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(d)) return std::nullopt;
  return d;
}

}  // namespace

ArgParser::ArgParser(const std::vector<std::string>& args) { parse(args); }

ArgParser::ArgParser(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& tok = args[i];
    if (tok.rfind("--", 0) == 0) {
      const auto eq = tok.find('=');
      if (eq != std::string::npos) {
        options_[tok.substr(0, eq)] = tok.substr(eq + 1);
      } else if (!isBareFlag(tok) && i + 1 < args.size() &&
                 args[i + 1].rfind("--", 0) != 0) {
        options_[tok] = args[++i];
      } else {
        options_[tok] = "";
      }
    } else {
      positionals_.push_back(tok);
    }
  }
}

std::string ArgParser::positionalOr(std::size_t index, const std::string& fallback) const {
  return index < positionals_.size() ? positionals_[index] : fallback;
}

bool ArgParser::has(const std::string& key) const {
  read_.insert(key);
  return options_.count(key) > 0;
}

std::optional<std::string> ArgParser::get(const std::string& key) const {
  read_.insert(key);
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::getOr(const std::string& key, const std::string& fallback) const {
  const auto v = get(key);
  return v ? *v : fallback;
}

double ArgParser::numberOr(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (const auto d = toNumber(*v)) return *d;
  if (badNumber_.empty()) badNumber_ = key + ": must be a number (got '" + *v + "')";
  return fallback;
}

std::size_t ArgParser::sizeOr(const std::string& key, std::size_t fallback) const {
  return integerOr(key, fallback, kWhole);
}

std::size_t ArgParser::countOr(const std::string& key, std::size_t fallback) const {
  return integerOr(key, fallback, kCount);
}

std::size_t ArgParser::integerOr(const std::string& key, std::size_t fallback,
                                 const Range& range) const {
  const auto v = get(key);
  if (!v) return fallback;
  const auto d = toNumber(*v);
  if (d && range.holds(*d) && *d < 1e15) return static_cast<std::size_t>(*d);
  if (badNumber_.empty()) {
    badNumber_ = key + ": " + range.rule + " (got " + (d ? *v : "'" + *v + "'") + ")";
  }
  return fallback;
}

std::string ArgParser::problem() const {
  for (const auto& [key, value] : options_) {
    if (read_.count(key) == 0) return key + ": unknown option";
  }
  return badNumber_;
}

}  // namespace hcsim
