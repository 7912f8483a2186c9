#pragma once
// Tiny command-line parser for the hcsim CLI: positionals + --key value
// options + --flags. Deliberately simple and fully testable.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "config/range.hpp"

namespace hcsim {

class ArgParser {
 public:
  /// Parse argv-style input (excluding the program name). Tokens
  /// starting with "--" are options; "--key value" when the next token
  /// is not an option, otherwise a boolean flag. Known boolean flags
  /// (--fsync, --per-op, --shared-file, --unique-dir, --help) never
  /// consume a value. Everything else is a positional. "--key=value" is
  /// also accepted.
  explicit ArgParser(const std::vector<std::string>& args);
  ArgParser(int argc, const char* const* argv);  ///< skips argv[0]

  const std::vector<std::string>& positionals() const { return positionals_; }
  std::string positionalOr(std::size_t index, const std::string& fallback) const;

  // Every accessor records the key as read by the running command.
  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::string getOr(const std::string& key, const std::string& fallback) const;
  /// A value that is not a number, or is outside `range`
  /// (config/range.hpp; the default takes any finite number), returns
  /// `fallback` and is a problem(): "--noise: must be >= 0 (got -1)".
  double numberOr(const std::string& key, double fallback, const Range& range = {}) const;
  /// As numberOr, for a non-negative integer.
  std::size_t sizeOr(const std::string& key, std::size_t fallback) const;
  /// As numberOr, for a positive integer (a count of nodes, processes,
  /// segments, ...): "--nodes: must be a positive integer (got 0)".
  std::size_t countOr(const std::string& key, std::size_t fallback) const;

  /// One line naming the first option no accessor has read
  /// ("--acess: unknown option"), else the first numeric option whose
  /// value did not parse or is outside its range; "" when neither. A
  /// command asks once it has read every option it takes, before it
  /// runs.
  std::string problem() const;

 private:
  void parse(const std::vector<std::string>& args);
  /// The value as a whole number within `range` (config/range.hpp), else
  /// `fallback` with the range's phrase recorded as the problem.
  std::size_t integerOr(const std::string& key, std::size_t fallback, const Range& range) const;

  std::vector<std::string> positionals_;
  std::map<std::string, std::string> options_;  // flag -> "" for bare flags
  mutable std::set<std::string> read_;
  mutable std::string badNumber_;
};

}  // namespace hcsim
