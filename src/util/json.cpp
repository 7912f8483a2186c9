#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace hcsim {

const JsonValue* JsonValue::find(const std::string& key) const {
  const JsonObject* obj = object();
  if (!obj) return nullptr;
  const auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

double JsonValue::numberOr(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->isNumber() ? *v->number() : fallback;
}

std::string JsonValue::stringOr(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v && v->isString() ? *v->str() : fallback;
}

bool JsonValue::boolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v && v->isBool() ? *v->boolean() : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skipWs();
    if (!value(out)) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  void skipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  bool value(JsonValue& out) {
    skipWs();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return false;
        ++depth_;
        const bool ok = s_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string str;
        if (!string(str)) return false;
        out = JsonValue(std::move(str));
        return true;
      }
      case 't':
        if (literal("true")) {
          out = JsonValue(true);
          return true;
        }
        return false;
      case 'f':
        if (literal("false")) {
          out = JsonValue(false);
          return true;
        }
        return false;
      case 'n':
        if (literal("null")) {
          out = JsonValue(nullptr);
          return true;
        }
        return false;
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    if (!consume('{')) return false;
    JsonObject obj;
    skipWs();
    if (consume('}')) {
      out = JsonValue(std::move(obj));
      return true;
    }
    for (;;) {
      skipWs();
      std::string key;
      if (!string(key)) return false;
      skipWs();
      if (!consume(':')) return false;
      JsonValue val;
      if (!value(val)) return false;
      obj.emplace(std::move(key), std::move(val));
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) break;
      return false;
    }
    out = JsonValue(std::move(obj));
    return true;
  }

  bool array(JsonValue& out) {
    if (!consume('[')) return false;
    JsonArray arr;
    skipWs();
    if (consume(']')) {
      out = JsonValue(std::move(arr));
      return true;
    }
    for (;;) {
      JsonValue val;
      if (!value(val)) return false;
      arr.push_back(std::move(val));
      skipWs();
      if (consume(',')) continue;
      if (consume(']')) break;
      return false;
    }
    out = JsonValue(std::move(arr));
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            const std::string hex = s_.substr(pos_, 4);
            pos_ += 4;
            const long code = std::strtol(hex.c_str(), nullptr, 16);
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool number(JsonValue& out) {
    const std::size_t begin = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool any = false;
    auto digits = [&] {
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
      digits();
    }
    if (!any) return false;
    out = JsonValue(std::strtod(s_.substr(begin, pos_ - begin).c_str(), nullptr));
    return true;
  }

  /// Deeper nesting fails the parse instead of exhausting the stack.
  static constexpr std::size_t kMaxDepth = 256;

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void writeValue(const JsonValue& v, std::ostringstream& os, int indent, int depth) {
  const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                                     : std::string{};
  const std::string childPad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : std::string{};
  const char* nl = indent > 0 ? "\n" : "";
  if (v.isNull()) {
    os << "null";
  } else if (v.isBool()) {
    os << (*v.boolean() ? "true" : "false");
  } else if (v.isNumber()) {
    os << jsonNumber(*v.number());
  } else if (v.isString()) {
    os << '"' << jsonEscape(*v.str()) << '"';
  } else if (v.isArray()) {
    const JsonArray& arr = *v.array();
    if (arr.empty()) {
      os << "[]";
      return;
    }
    os << '[' << nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      os << childPad;
      writeValue(arr[i], os, indent, depth + 1);
      if (i + 1 < arr.size()) os << ',';
      os << nl;
    }
    os << pad << ']';
  } else {
    const JsonObject& obj = *v.object();
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << '{' << nl;
    std::size_t i = 0;
    for (const auto& [key, val] : obj) {
      os << childPad << '"' << jsonEscape(key) << "\":";
      if (indent > 0) os << ' ';
      writeValue(val, os, indent, depth + 1);
      if (++i < obj.size()) os << ',';
      os << nl;
    }
    os << pad << '}';
  }
}

}  // namespace

bool parseJson(const std::string& text, JsonValue& out) {
  Parser p(text);
  return p.parse(out);
}

std::string writeJson(const JsonValue& value, int indent) {
  std::ostringstream os;
  writeValue(value, os, indent, 0);
  return os.str();
}

std::string jsonNumber(double d) {
  char buf[48];
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", d);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hcsim
