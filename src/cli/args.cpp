#include "cli/args.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace hcsim {

namespace {

/// The whole token as a finite number, else nullopt.
std::optional<double> toNumber(const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(d)) return std::nullopt;
  return d;
}

}  // namespace

ArgParser::ArgParser(const std::vector<std::string>& args) : args_(args) { split({}); }

ArgParser::ArgParser(int argc, const char* const* argv)
    : ArgParser(argc > 1 ? std::vector<std::string>(argv + 1, argv + argc)
                         : std::vector<std::string>{}) {}

void ArgParser::split(const std::vector<Flag>& flags) {
  const auto bare = [&flags](const std::string& key) {
    return key == "--help" || std::any_of(flags.begin(), flags.end(), [&key](const Flag& f) {
             return f.kind == Flag::Kind::Bare && key == f.key;
           });
  };
  const auto isOption = [](const std::string& token) { return token.rfind("--", 0) == 0; };
  positionals_.clear();
  options_.clear();
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const std::string& tok = args_[i];
    if (!isOption(tok)) {
      positionals_.push_back(tok);
    } else if (const auto eq = tok.find('='); eq != std::string::npos) {
      options_.push_back({tok.substr(0, eq), tok.substr(eq + 1)});
    } else if (!bare(tok) && i + 1 < args_.size() && !isOption(args_[i + 1])) {
      options_.push_back({tok, args_[++i]});
    } else {
      options_.push_back({tok, std::nullopt});
    }
  }
}

std::string ArgParser::positionalOr(std::size_t index, const std::string& fallback) const {
  return index < positionals_.size() ? positionals_[index] : fallback;
}

std::optional<std::string> ArgParser::get(const std::string& key) const {
  const auto it = std::find_if(options_.rbegin(), options_.rend(),
                               [&key](const auto& o) { return o.first == key; });
  if (it == options_.rend()) return std::nullopt;
  return it->second.value_or("");
}

std::string ArgParser::collect(const std::vector<Flag>& flags, JsonObject& out) {
  split(flags);
  for (const auto& [key, value] : options_) {
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&key](const Flag& f) { return key == f.key; });
    if (flag == flags.end()) return key + ": unknown option";
    const std::optional<double> number =
        value && flag->kind == Flag::Kind::Number ? toNumber(*value) : std::nullopt;
    if (!value) {
      out[key] = flag->kind == Flag::Kind::Bare ? JsonValue(true) : JsonValue();
    } else if (flag->kind == Flag::Kind::Bare && (*value == "true" || *value == "false")) {
      out[key] = *value == "true";  // --flag=true|false
    } else if (number) {
      out[key] = *number;
    } else {
      out[key] = *value;
    }
  }
  for (const Flag& f : flags) {
    if (f.required && out.count(f.key) == 0) out[f.key] = JsonValue();
  }
  return "";
}

}  // namespace hcsim
