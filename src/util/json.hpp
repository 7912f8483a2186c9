#pragma once
// Minimal JSON value + parser + writer (no external dependencies).
//
// Used by the chrome-trace importer, the config (de)serializers and the
// CLI. Supports the full JSON value model; numbers are doubles (adequate
// for configs and traces), \uXXXX escapes decode to UTF-8 (BMP only).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace hcsim {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  JsonValue() = default;
  JsonValue(std::nullptr_t) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(int i) : v_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u) : v_(static_cast<double>(u)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(JsonArray a) : v_(std::make_shared<JsonArray>(std::move(a))) {}
  JsonValue(JsonObject o) : v_(std::make_shared<JsonObject>(std::move(o))) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool isBool() const { return std::holds_alternative<bool>(v_); }
  bool isNumber() const { return std::holds_alternative<double>(v_); }
  bool isString() const { return std::holds_alternative<std::string>(v_); }
  bool isArray() const { return std::holds_alternative<std::shared_ptr<JsonArray>>(v_); }
  bool isObject() const { return std::holds_alternative<std::shared_ptr<JsonObject>>(v_); }

  const bool* boolean() const { return std::get_if<bool>(&v_); }
  const double* number() const { return std::get_if<double>(&v_); }
  const std::string* str() const { return std::get_if<std::string>(&v_); }
  const JsonArray* array() const {
    const auto* p = std::get_if<std::shared_ptr<JsonArray>>(&v_);
    return p ? p->get() : nullptr;
  }
  const JsonObject* object() const {
    const auto* p = std::get_if<std::shared_ptr<JsonObject>>(&v_);
    return p ? p->get() : nullptr;
  }
  JsonArray* array() {
    auto* p = std::get_if<std::shared_ptr<JsonArray>>(&v_);
    return p ? p->get() : nullptr;
  }
  JsonObject* object() {
    auto* p = std::get_if<std::shared_ptr<JsonObject>>(&v_);
    return p ? p->get() : nullptr;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Typed convenience getters with defaults.
  double numberOr(const std::string& key, double fallback) const;
  std::string stringOr(const std::string& key, const std::string& fallback) const;
  bool boolOr(const std::string& key, bool fallback) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, std::shared_ptr<JsonArray>,
               std::shared_ptr<JsonObject>>
      v_ = nullptr;
};

/// Parse a complete JSON document. Returns false on malformed input,
/// including arrays and objects nested more than 256 deep.
bool parseJson(const std::string& text, JsonValue& out);

/// Serialize (compact; `indent` > 0 pretty-prints).
std::string writeJson(const JsonValue& value, int indent = 0);

/// Escape a string for embedding in JSON (without surrounding quotes).
std::string jsonEscape(const std::string& s);

/// Format a number exactly as the writer does: integral values < 1e15
/// without a fraction, everything else with round-trip (%.17g)
/// precision. Use when streaming JSON by hand so ad-hoc emitters cannot
/// silently truncate (default ostream precision keeps 6 digits).
std::string jsonNumber(double d);

}  // namespace hcsim
