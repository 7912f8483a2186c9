#pragma once
// hcsim::sweep — declarative what-if sweeps over storage configurations.
//
// A SweepSpec names a base trial config (a JSON object with "site",
// "storage", the workload section and optional "storageConfig"
// overrides) plus a set of axes. Each axis addresses one config field by
// the dotted JSON path the config/serialize layer emits — e.g.
// "ior.segments", "storageConfig.gateway.latency" — and lists the values
// to try. The spec expands to independent trials: the full cartesian
// grid, or a seeded random sample of it. A spec is read strictly: an
// unknown key or a value of the wrong type fails, naming the key.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace hcsim::sweep {

/// One sweep dimension: a dotted JSON path into the trial config and the
/// values to try there.
struct Axis {
  std::string path;
  std::vector<JsonValue> values;
};

template <class IO>
void fields(IO& io, Axis& a) {
  io("path", a.path);  // "values" is read by fromJson
}

struct Sampling {
  enum class Mode { Grid, Random };
  Mode mode = Mode::Grid;
  std::size_t samples = 0;  ///< Random only: how many trials to draw.
  std::uint64_t seed = 1;   ///< Random only: sampler seed.
};

const char* toString(Sampling::Mode m);

template <class IO>
void fields(IO& io, Sampling& s) {
  io("mode", s.mode);
  io("samples", s.samples);
  io("seed", s.seed);
}

struct SweepSpec {
  std::string name = "sweep";
  std::string experiment = "ior";  ///< "ior", "dlio", "chaos" or "workload"
  JsonValue base;                  ///< config object every trial starts from
  std::vector<Axis> axes;
  Sampling sampling;

  /// Number of points in the full cartesian grid (1 with no axes).
  std::size_t gridSize() const;
  /// Number of trials the spec expands to (grid size or sample count).
  std::size_t trialCount() const;
};

template <class IO>
void fields(IO& io, SweepSpec& s) {
  io("name", s.name);
  io.oneOf("experiment", s.experiment, {"ior", "dlio", "chaos", "workload"});
  io("sampling", s.sampling);  // "base" and "axes" are read by fromJson
}

JsonValue toJson(const SweepSpec& spec);
/// Read a spec. On failure returns false and, when `error` is given,
/// sets it to one line naming the key ("axes[0].pathh: unknown key").
bool fromJson(const JsonValue& j, SweepSpec& out, std::string* error = nullptr);
/// Load a spec from a JSON file; `error` as for fromJson.
bool loadSpec(const std::string& path, SweepSpec& out, std::string* error = nullptr);

/// Deep copy a JSON tree. JsonValue's copy constructor shares arrays and
/// objects (shared_ptr); trials handed to worker threads need their own.
JsonValue deepCopy(const JsonValue& v);

/// Walk a dotted path; nullptr when any component is absent.
const JsonValue* jsonPathGet(const JsonValue& root, const std::string& path);

/// Set a dotted path, creating intermediate objects as needed. Returns
/// false when an intermediate component exists but is not an object.
bool jsonPathSet(JsonValue& root, const std::string& path, JsonValue value);

/// One expanded trial: the base config with one value chosen per axis.
struct Trial {
  std::size_t index = 0;
  JsonValue config;  ///< deep-copied — safe to hand to a worker thread
  std::vector<std::pair<std::string, JsonValue>> params;  ///< axis path -> value
};

/// Expand the spec into concrete trials. Grid order is row-major with
/// the LAST axis fastest; random sampling is deterministic in
/// sampling.seed. Throws std::invalid_argument when an axis path
/// collides with a non-object value in the base config.
std::vector<Trial> expandTrials(const SweepSpec& spec);

}  // namespace hcsim::sweep
