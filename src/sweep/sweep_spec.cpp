#include "sweep/sweep_spec.hpp"

#include <stdexcept>

#include "config/fields.hpp"
#include "util/random.hpp"

namespace hcsim::sweep {

std::size_t SweepSpec::gridSize() const {
  std::size_t n = 1;
  for (const Axis& a : axes) n *= a.values.size();
  return n;
}

std::size_t SweepSpec::trialCount() const {
  return sampling.mode == Sampling::Mode::Random ? sampling.samples : gridSize();
}

JsonValue toJson(const SweepSpec& spec) {
  JsonObject o;
  o["name"] = spec.name;
  o["experiment"] = spec.experiment;
  o["base"] = deepCopy(spec.base);
  JsonArray axes;
  for (const Axis& a : spec.axes) {
    JsonObject ax;
    ax["path"] = a.path;
    JsonArray vals;
    vals.reserve(a.values.size());
    for (const JsonValue& v : a.values) vals.push_back(deepCopy(v));
    ax["values"] = JsonValue(std::move(vals));
    axes.push_back(JsonValue(std::move(ax)));
  }
  o["axes"] = JsonValue(std::move(axes));
  JsonObject s;
  s["mode"] = std::string(spec.sampling.mode == Sampling::Mode::Grid ? "grid" : "random");
  if (spec.sampling.mode == Sampling::Mode::Random) {
    s["samples"] = static_cast<double>(spec.sampling.samples);
    s["seed"] = static_cast<double>(spec.sampling.seed);
  }
  o["sampling"] = JsonValue(std::move(s));
  return JsonValue(std::move(o));
}

const char* toString(Sampling::Mode m) {
  switch (m) {
    case Sampling::Mode::Grid: return "grid";
    case Sampling::Mode::Random: return "random";
  }
  return "?";
}

namespace {

/// "" when `j` is a valid spec (read onto `out`), else the problem.
std::string readSpec(const JsonValue& j, SweepSpec& out) {
  if (!j.isObject()) return "a sweep spec must be a JSON object";
  if (std::string e = readFields(j, out, "", {"base", "axes"}); !e.empty()) return e;
  if (const JsonValue* b = j.find("base")) {
    if (!b->isObject()) return "base: must be an object";
    out.base = deepCopy(*b);
  }
  out.axes.clear();
  if (const JsonValue* ax = j.find("axes")) {
    const JsonArray* arr = ax->array();
    if (arr == nullptr) return "axes: must be an array";
    for (std::size_t i = 0; i < arr->size(); ++i) {
      const std::string where = "axes[" + std::to_string(i) + "]";
      Axis a;
      if (std::string e = readFields((*arr)[i], a, where, {"values"}); !e.empty()) return e;
      const JsonValue* vals = (*arr)[i].find("values");
      const JsonArray* varr = vals ? vals->array() : nullptr;
      if (a.path.empty() || !varr || varr->empty()) {
        return where + ": needs a 'path' and a non-empty 'values' array";
      }
      a.values.reserve(varr->size());
      for (const JsonValue& v : *varr) a.values.push_back(deepCopy(v));
      out.axes.push_back(std::move(a));
    }
  }
  if (out.sampling.mode == Sampling::Mode::Random && out.sampling.samples == 0) {
    return "sampling.samples: random sampling needs samples > 0";
  }
  return "";
}

}  // namespace

bool fromJson(const JsonValue& j, SweepSpec& out, std::string* error) {
  std::string e = readSpec(j, out);
  if (error != nullptr) *error = e;
  return e.empty();
}

bool loadSpec(const std::string& path, SweepSpec& out, std::string* error) {
  JsonValue j;
  const JsonFileStatus read = readJsonFile(path, j);
  std::string e = read == JsonFileStatus::Unreadable ? "cannot open file"
                  : read == JsonFileStatus::NotJson  ? "not valid JSON"
                                                     : readSpec(j, out);
  if (error != nullptr) *error = e;
  return e.empty();
}

JsonValue deepCopy(const JsonValue& v) {
  if (const JsonArray* a = v.array()) {
    JsonArray out;
    out.reserve(a->size());
    for (const JsonValue& e : *a) out.push_back(deepCopy(e));
    return JsonValue(std::move(out));
  }
  if (const JsonObject* o = v.object()) {
    JsonObject out;
    for (const auto& [k, e] : *o) out[k] = deepCopy(e);
    return JsonValue(std::move(out));
  }
  return v;  // scalars hold their value by value
}

namespace {

std::vector<std::string> splitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '.') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  return parts;
}

}  // namespace

const JsonValue* jsonPathGet(const JsonValue& root, const std::string& path) {
  const JsonValue* cur = &root;
  for (const std::string& key : splitPath(path)) {
    if (key.empty()) return nullptr;
    cur = cur->find(key);
    if (!cur) return nullptr;
  }
  return cur;
}

bool jsonPathSet(JsonValue& root, const std::string& path, JsonValue value) {
  if (!root.isObject()) {
    if (!root.isNull()) return false;
    root = JsonValue(JsonObject{});
  }
  JsonValue* cur = &root;
  const std::vector<std::string> parts = splitPath(path);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& key = parts[i];
    if (key.empty()) return false;
    JsonObject* obj = cur->object();
    if (!obj) return false;
    if (i + 1 == parts.size()) {
      (*obj)[key] = std::move(value);
      return true;
    }
    JsonValue& next = (*obj)[key];
    if (next.isNull()) next = JsonValue(JsonObject{});
    if (!next.isObject()) return false;
    cur = &next;
  }
  return false;
}

namespace {

Trial makeTrial(const SweepSpec& spec, std::size_t index, const std::vector<std::size_t>& pick) {
  Trial t;
  t.index = index;
  t.config = deepCopy(spec.base);
  if (t.config.isNull()) t.config = JsonValue(JsonObject{});
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const Axis& axis = spec.axes[a];
    t.params.emplace_back(axis.path, deepCopy(axis.values[pick[a]]));
    if (!jsonPathSet(t.config, axis.path, deepCopy(axis.values[pick[a]]))) {
      throw std::invalid_argument("sweep: axis path '" + axis.path +
                                  "' collides with a non-object value in the base config");
    }
  }
  return t;
}

}  // namespace

std::vector<Trial> expandTrials(const SweepSpec& spec) {
  std::vector<Trial> trials;
  std::vector<std::size_t> pick(spec.axes.size(), 0);
  if (spec.sampling.mode == Sampling::Mode::Random) {
    Rng rng(spec.sampling.seed);
    trials.reserve(spec.sampling.samples);
    for (std::size_t i = 0; i < spec.sampling.samples; ++i) {
      for (std::size_t a = 0; a < pick.size(); ++a) {
        pick[a] = static_cast<std::size_t>(rng.uniformInt(spec.axes[a].values.size()));
      }
      trials.push_back(makeTrial(spec, i, pick));
    }
    return trials;
  }
  const std::size_t total = spec.gridSize();
  trials.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    trials.push_back(makeTrial(spec, i, pick));
    // Odometer with the last axis fastest.
    for (std::size_t a = pick.size(); a-- > 0;) {
      if (++pick[a] < spec.axes[a].values.size()) break;
      pick[a] = 0;
    }
  }
  return trials;
}

}  // namespace hcsim::sweep
