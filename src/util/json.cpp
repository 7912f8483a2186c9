#include "util/json.hpp"

#include <charconv>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
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

void appendValue(std::string& out, const JsonValue& v, int indent, int depth) {
  if (const double* d = v.number()) return appendJsonNumber(out, *d);
  if (const std::string* s = v.str()) {
    out += '"';
    appendJsonEscaped(out, *s);
    out += '"';
    return;
  }
  if (const bool* b = v.boolean()) {
    out += *b ? "true" : "false";
    return;
  }
  const JsonArray* arr = v.array();
  const JsonObject* obj = v.object();
  if (arr == nullptr && obj == nullptr) {
    out += "null";
    return;
  }
  if (arr != nullptr ? arr->empty() : obj->empty()) {
    out += arr != nullptr ? "[]" : "{}";
    return;
  }
  // Pretty-printing puts each member on its own line, `indent` spaces
  // deeper than its container.
  const auto newline = [&out, indent](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  const char* sep = "";
  if (arr != nullptr) {
    out += '[';
    for (const JsonValue& e : *arr) {
      out += sep;
      sep = ",";
      newline(depth + 1);
      appendValue(out, e, indent, depth + 1);
    }
    newline(depth);
    out += ']';
    return;
  }
  out += '{';
  for (const auto& [key, val] : *obj) {
    out += sep;
    sep = ",";
    newline(depth + 1);
    out += '"';
    appendJsonEscaped(out, key);
    out += indent > 0 ? "\": " : "\":";
    appendValue(out, val, indent, depth + 1);
  }
  newline(depth);
  out += '}';
}

}  // namespace

bool parseJson(const std::string& text, JsonValue& out) {
  Parser p(text);
  return p.parse(out);
}

JsonFileStatus readJsonFile(const std::string& path, JsonValue& out) {
  std::ifstream in(path);
  if (!in) return JsonFileStatus::Unreadable;
  std::ostringstream text;
  text << in.rdbuf();
  return parseJson(text.str(), out) ? JsonFileStatus::Ok : JsonFileStatus::NotJson;
}

std::string writeJson(const JsonValue& value, int indent) {
  std::string out;
  appendJson(out, value, indent);
  return out;
}

std::string jsonNumber(double d) {
  std::string out;
  appendJsonNumber(out, d);
  return out;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  appendJsonEscaped(out, s);
  return out;
}

void appendJson(std::string& out, const JsonValue& value, int indent) {
  appendValue(out, value, indent, 0);
}

void appendJsonNumber(std::string& out, double d) {
  // Both branches print what snprintf's "%.0f" and "%.17g" would.
  char buf[32];
  char* end;
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char* p = buf;
    if (d == 0.0 && std::signbit(d)) *p++ = '-';  // "%.0f" keeps -0's sign
    end = std::to_chars(p, buf + sizeof buf, static_cast<std::int64_t>(d)).ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17).ptr;
  }
  out.append(buf, end);
}

void appendJsonEscaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
      }
    }
  }
  out.append(s, run, s.size() - run);
}

}  // namespace hcsim
