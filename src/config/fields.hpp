#pragma once
// One field list per config struct, walked by one writer, one reader and
// one checker.
//
// A serializable struct states its JSON keys exactly once, next to the
// struct, each numeric key with the range of values it accepts
// (config/range.hpp):
//
//   template <class IO>
//   void fields(IO& io, HddSpec& s) {
//     io("name", s.name);
//     io("streamBandwidth", s.streamBandwidth, kPositive);
//     io("seekTime", s.seekTime, kNonNegative);
//   }
//
// writeFields() walks that list to build the JSON object, readFields()
// walks it to read one back, so a key can never be written but not read.
// requireFields() walks it over a struct built in code: each validate()
// calls it and keeps only its cross-field rules.
// Member types: double, bool, std::string, unsigned integers, enums
// (spelled by enumName) and nested structs with their own field list.
// Three list entries carry extra behaviour:
//   io.omitWhen(key, member, v)  — not written while member == v;
//   io.preset(key, member, fn)   — on read, fn(value) runs before the
//                                  keys after it are applied;
//   io.oneOf(key, member, names) — a string that must be one of names.
//
// The reader is strict at the boundary. Absent keys keep the struct's
// current values, but an unknown key, an enum string that does not
// parse, a value of the wrong JSON type, a number outside the field's
// range, or a negative, non-finite or too-large number for an unsigned
// field fails the read with one line naming the dotted key:
// "ior.access: must be seq-read|... (got 'x')", "storageConfig.cnodes:
// must be a positive integer (got 0)". A non-number for an unsigned
// field fails with the field's range phrase ("must be a positive
// integer (got '4')"), for a double with "must be a number". An unsigned
// field truncates a fraction toward zero, and its range must hold before
// and after (count ranges reject fractions). The checker fails in the
// same words, and builds no string while every field holds.
//
// toJson()/fromJson() are the whole-value pair over the same lists, for
// any struct with a field list and any enum.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "config/range.hpp"
#include "util/json.hpp"

namespace hcsim {

/// The JSON spelling of an enum value. Defaults to toString(); an enum
/// whose display name differs declares a closer enumName overload. Both
/// return "?" past the last enumerator, which ends the value scan.
template <class E>
  requires std::is_enum_v<E>
const char* enumName(E e) {
  return toString(e);
}

/// Every spelling of E, joined by '|': "seq-read|seq-write|...".
template <class E>
std::string enumChoices() {
  std::string s;
  for (int i = 0; std::strcmp(enumName(static_cast<E>(i)), "?") != 0; ++i) {
    if (i > 0) s += '|';
    s += enumName(static_cast<E>(i));
  }
  return s;
}

/// The names a oneOf string accepts, joined by '|'.
inline std::string oneOfChoices(std::initializer_list<const char*> names) {
  std::string s;
  for (const char* n : names) {
    if (!s.empty()) s += '|';
    s += n;
  }
  return s;
}

inline bool isOneOf(const std::string& v, std::initializer_list<const char*> names) {
  return std::find(names.begin(), names.end(), v) != names.end();
}

/// Parse an enum from its JSON spelling; false leaves `out` untouched.
template <class E>
bool parseEnum(const JsonValue& j, E& out) {
  const std::string* s = j.str();
  if (s == nullptr) return false;
  for (int i = 0;; ++i) {
    const char* name = enumName(static_cast<E>(i));
    if (std::strcmp(name, "?") == 0) return false;
    if (*s == name) {
      out = static_cast<E>(i);
      return true;
    }
  }
}

template <class T>
JsonValue writeFields(const T& c);
template <class T>
std::string readFields(const JsonValue& j, T& out, const std::string& path,
                       std::initializer_list<const char*> others = {});

/// "<dotted>: <rule> (got <value>)", the one shape of every field error.
inline std::string fieldError(const std::string& dotted, const std::string& rule,
                              const JsonValue& got) {
  return dotted + ": " + rule + " (got " +
         (got.isString() ? "'" + *got.str() + "'" : writeJson(got)) + ")";
}

class FieldWriter {
 public:
  template <class T>
  void operator()(const char* key, const T& v, const Range& = {}) {
    obj_[key] = encode(v);
  }
  template <class T>
  void omitWhen(const char* key, const T& v, const T& skip, const Range& = {}) {
    if (!(v == skip)) (*this)(key, v);
  }
  template <class T, class Apply>
  void preset(const char* key, const T& v, Apply&&) {
    (*this)(key, v);
  }
  void oneOf(const char* key, const std::string& v, std::initializer_list<const char*>) {
    (*this)(key, v);
  }
  JsonObject take() { return std::move(obj_); }

  template <class T>
  static JsonValue encode(const T& v) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string>) {
      return JsonValue(v);
    } else if constexpr (std::is_enum_v<T>) {
      return JsonValue(std::string(enumName(v)));
    } else if constexpr (std::is_unsigned_v<T>) {
      return JsonValue(static_cast<double>(v));
    } else {
      return writeFields(v);
    }
  }

 private:
  JsonObject obj_;
};

class FieldReader {
 public:
  FieldReader(const JsonObject& obj, const std::string& path,
              std::initializer_list<const char*> others)
      : obj_(obj), path_(path) {
    for (const char* key : others) claim(key);
  }

  template <class T>
  void operator()(const char* key, T& v, const Range& r = {}) {
    if (const JsonValue* j = claim(key)) decode(key, *j, v, r);
  }
  template <class T>
  void omitWhen(const char* key, T& v, const T&, const Range& r = {}) {
    (*this)(key, v, r);
  }
  template <class T, class Apply>
  void preset(const char* key, T& v, Apply&& apply) {
    T parsed = v;
    if (const JsonValue* j = claim(key); j && decode(key, *j, parsed, {})) apply(parsed);
  }
  void oneOf(const char* key, std::string& v, std::initializer_list<const char*> names) {
    std::string parsed;
    const JsonValue* j = claim(key);
    if (j == nullptr || !decode(key, *j, parsed, {})) return;
    if (!isOneOf(parsed, names)) {
      fail(key, "must be " + oneOfChoices(names), *j);
      return;
    }
    v = parsed;
  }

  /// The first problem with a listed key, "" when there is none.
  const std::string& error() const { return error_; }
  /// True when every listed key was fine but the object holds another:
  /// an unknown key is reported only then.
  bool unclaimed() const { return error_.empty() && claimed_ < obj_.size(); }

 private:
  const JsonValue* claim(const char* key) {
    if (!error_.empty()) return nullptr;
    const auto it = obj_.find(key);
    if (it == obj_.end()) return nullptr;
    ++claimed_;
    return &it->second;
  }

  std::string dotted(const char* key) const { return path_.empty() ? key : path_ + "." + key; }

  bool fail(const char* key, const std::string& rule, const JsonValue& got) {
    error_ = fieldError(dotted(key), rule, got);
    return false;
  }

  template <class T>
  bool decode(const char* key, const JsonValue& j, T& v, const Range& r) {
    // An unsigned field truncates a fraction, so the range must hold
    // for the value as written and for the value the member will hold.
    if (const double* d = j.number();
        d != nullptr && !(r.holds(*d) && (!std::is_unsigned_v<T> || r.holds(std::trunc(*d))))) {
      return fail(key, r.rule, j);
    }
    if constexpr (std::is_same_v<T, bool>) {
      if (!j.isBool()) return fail(key, "must be true or false", j);
      v = *j.boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      if (!j.isNumber()) return fail(key, "must be a number", j);
      v = *j.number();
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!j.isString()) return fail(key, "must be a string", j);
      v = *j.str();
    } else if constexpr (std::is_enum_v<T>) {
      if (!parseEnum(j, v)) return fail(key, "must be " + enumChoices<T>(), j);
    } else if constexpr (std::is_unsigned_v<T>) {
      // 2^digits: the first value T cannot hold (exact as a double).
      constexpr double kLimit =
          2.0 * static_cast<double>(T{1} << (std::numeric_limits<T>::digits - 1));
      const double* d = j.number();
      if (d == nullptr) return fail(key, r.rule ? r.rule : "must be a non-negative integer", j);
      if (!(*d >= 0.0 && *d < kLimit)) return fail(key, "must be a non-negative integer", j);
      v = static_cast<T>(*d);
    } else {
      error_ = readFields(j, v, dotted(key));
      return error_.empty();
    }
    return true;
  }

  const JsonObject& obj_;
  const std::string& path_;
  std::size_t claimed_ = 0;
  std::string error_;
};

/// Collects a field list's keys, to name an unknown one. Only a read
/// that meets an unknown key walks its list twice, so a read that
/// succeeds allocates nothing.
class FieldNames {
 public:
  explicit FieldNames(std::initializer_list<const char*> others) : keys_(others) {}

  template <class T>
  void operator()(const char* key, const T&, const Range& = {}) {
    keys_.push_back(key);
  }
  template <class T>
  void omitWhen(const char* key, const T&, const T&, const Range& = {}) {
    keys_.push_back(key);
  }
  template <class T, class Apply>
  void preset(const char* key, const T&, Apply&&) {
    keys_.push_back(key);
  }
  void oneOf(const char* key, const std::string&, std::initializer_list<const char*>) {
    keys_.push_back(key);
  }

  /// "<path>.<key>: unknown key" for the first key of `obj` not listed.
  std::string firstUnknown(const JsonObject& obj, const std::string& path) const {
    for (const auto& kv : obj) {
      const auto named = [&kv](const char* k) { return kv.first == k; };
      if (std::none_of(keys_.begin(), keys_.end(), named)) {
        return (path.empty() ? kv.first : path + "." + kv.first) + ": unknown key";
      }
    }
    return "";
  }

 private:
  std::vector<const char*> keys_;
};

/// Walks a field list over a struct built in code. `error` names the
/// first field outside its range; a nested struct's error gets its key
/// prefixed on the way out, so no string is built while fields hold.
struct FieldChecker {
  template <class T>
  void operator()(const char* key, const T& v, const Range& r = {}) {
    if (!error.empty()) return;
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
      const double d = static_cast<double>(v);
      if (!r.holds(d)) error = fieldError(key, r.rule, JsonValue(d));
    } else if constexpr (std::is_class_v<T> && !std::is_same_v<T, std::string>) {
      FieldChecker nested;
      fields(nested, const_cast<T&>(v));  // field lists take T&; the checker only reads
      if (!nested.error.empty()) error = key + ("." + nested.error);
    }
  }
  template <class T>
  void omitWhen(const char* key, const T& v, const T&, const Range& r = {}) {
    (*this)(key, v, r);
  }
  template <class T, class Apply>
  void preset(const char*, const T&, Apply&&) {}
  void oneOf(const char* key, const std::string& v, std::initializer_list<const char*> names) {
    if (error.empty() && !isOneOf(v, names)) {
      error = fieldError(key, "must be " + oneOfChoices(names), JsonValue(v));
    }
  }

  std::string error;
};

/// The JSON object of `c`'s field list.
template <class T>
JsonValue writeFields(const T& c) {
  FieldWriter w;
  fields(w, const_cast<T&>(c));  // field lists take T&; the writer only reads
  return JsonValue(w.take());
}

/// Read `j` onto `out` through its field list. `others` names keys the
/// caller reads itself (a generator section's "generator"): the reader
/// neither applies nor rejects them. Returns "" on success, else one
/// line naming the dotted key under `path`.
template <class T>
std::string readFields(const JsonValue& j, T& out, const std::string& path,
                       std::initializer_list<const char*> others) {
  const JsonObject* obj = j.object();
  if (obj == nullptr) return (path.empty() ? "" : path + ": ") + "must be an object";
  FieldReader r(*obj, path, others);
  fields(r, out);
  if (!r.unclaimed()) return r.error();
  FieldNames names(others);
  fields(names, out);
  return names.firstUnknown(*obj, path);
}

/// A struct with a field list, or an enum spelled by enumName.
template <class T>
concept Serializable = std::is_enum_v<T> || requires(FieldWriter& w, T& v) { fields(w, v); };

/// The JSON of `v`: its field list's object, or its enum spelling.
template <Serializable T>
JsonValue toJson(const T& v) {
  return FieldWriter::encode(v);
}

/// Read `j` onto `out` as readFields does (an enum from its spelling);
/// false on any problem.
template <Serializable T>
bool fromJson(const JsonValue& j, T& out) {
  if constexpr (std::is_enum_v<T>) {
    return parseEnum(j, out);
  } else {
    return readFields(j, out, "").empty();
  }
}

/// Check every field of `c` against its range. Throws
/// std::invalid_argument naming the first field outside it, dotted under
/// `root`: "DaosConfig.fabric.lanes: must be a positive integer (got 0)".
template <class T>
void requireFields(const T& c, const char* root) {
  FieldChecker checker;
  checker(root, c);
  if (!checker.error.empty()) throw std::invalid_argument(checker.error);
}

}  // namespace hcsim
