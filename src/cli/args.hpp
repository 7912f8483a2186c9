#pragma once
// The hcsim command line: positionals, "--key value" and "--key=value"
// options, read onto a command's flags through a field list
// (config/fields.hpp) whose keys are the flags themselves:
//
//   io("--procs", f.cfg.procsPerNode, kCount);
//   io("--unique-dir", f.cfg.uniqueDirPerTask);
//
// read() turns argv into a JSON object for readFields, so a flag gets a
// spec key's ranges, enum spellings and one-line messages ("--procs: must
// be a positive integer (got 0)"), and `hcsim help` prints the same list.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/fields.hpp"

namespace hcsim {

/// One flag of a list, as argv and `hcsim help` see it.
struct Flag {
  enum class Kind { Bare, Number, Text };
  const char* key;
  Kind kind;
  bool required;        ///< an enum whose default is past its last spelling ("?")
  std::string value;    ///< the default as help prints it; "" for none
  std::string choices;  ///< "a|b|c" for an enum or oneOf flag
};

/// Walks a flag list: a bool field is a bare flag, a number's token is
/// parsed as a number, and every other value is a string.
class FlagList {
 public:
  template <class T>
  void operator()(const char* key, const T& v, const Range& = {}) {
    if constexpr (std::is_same_v<T, bool>) {
      flags.push_back({key, Flag::Kind::Bare, false, "", ""});
    } else if constexpr (std::is_arithmetic_v<T>) {
      char text[32];
      std::snprintf(text, sizeof text, "%.15g", static_cast<double>(v));
      flags.push_back({key, Flag::Kind::Number, false, text, ""});
    } else if constexpr (std::is_enum_v<T>) {
      const bool required = std::strcmp(enumName(v), "?") == 0;
      flags.push_back({key, Flag::Kind::Text, required, required ? "" : enumName(v),
                       enumChoices<T>()});
    } else {
      flags.push_back({key, Flag::Kind::Text, false, v, ""});
    }
  }
  void oneOf(const char* key, const std::string& v, std::initializer_list<const char*> names) {
    flags.push_back({key, Flag::Kind::Text, false, v, oneOfChoices(names)});
  }

  std::vector<Flag> flags;
};

class ArgParser {
 public:
  explicit ArgParser(const std::vector<std::string>& args);
  ArgParser(int argc, const char* const* argv);  ///< skips argv[0]

  /// The tokens that are neither an option nor an option's value. Until
  /// read() names the bare flags, every option but --help takes the
  /// next token unless it starts with "--".
  const std::vector<std::string>& positionals() const { return positionals_; }
  std::string positionalOr(std::size_t index, const std::string& fallback) const;
  /// The last value given for `key` ("" for a bare one): for --help and
  /// for the flag that decides which list a command reads.
  std::optional<std::string> get(const std::string& key) const;

  /// Read every option onto `flags` through its field list: "" or one
  /// line naming the flag ("--acess: unknown option", "--nodes: must be a
  /// positive integer (got 0)"). The token after a bare flag becomes a
  /// positional.
  template <class T>
  std::string read(T& flags) {
    FlagList list;
    fields(list, flags);
    JsonObject given;
    if (std::string e = collect(list.flags, given); !e.empty()) return e;
    return readFields(JsonValue(std::move(given)), flags, "");
  }

 private:
  /// Split argv into positionals and options, `flags`' bare ones (and
  /// --help) taking no value.
  void split(const std::vector<Flag>& flags);
  /// The options as JSON values of their flags, an absent required one
  /// as null; "" or the first unknown option.
  std::string collect(const std::vector<Flag>& flags, JsonObject& out);

  std::vector<std::string> args_;
  std::vector<std::string> positionals_;
  std::vector<std::pair<std::string, std::optional<std::string>>> options_;
};

}  // namespace hcsim
