#pragma once
// JSON files for every configuration struct — the interface a downstream
// user scripts experiments through (and what `hcsim ior|dlio --config`
// reads). Each struct lists its keys once, next to the struct, each
// numeric key with its range (config/fields.hpp, config/range.hpp);
// toJson()/fromJson() and these file helpers walk that list, and each
// struct's validate() walks it with the checker before its cross-field
// rules. Absent keys keep the struct's defaults, so a config file only
// states what it overrides. Unknown keys, enum strings that do not
// parse, values of the wrong JSON type and numbers outside the key's
// range fail the read.

#include <fstream>
#include <sstream>
#include <string>

#include "cluster/machine.hpp"
#include "config/fields.hpp"
#include "daos/daos_config.hpp"
#include "dlio/dlio_config.hpp"
#include "gpfs/gpfs_config.hpp"
#include "ior/ior_config.hpp"
#include "lustre/lustre_config.hpp"
#include "mdtest/mdtest.hpp"
#include "nvme/nvme_local.hpp"
#include "util/json.hpp"
#include "vast/vast_config.hpp"

namespace hcsim {

/// Write a config to a pretty-printed JSON file.
template <Serializable T>
bool saveConfig(const T& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << writeJson(toJson(config), 2) << '\n';
  return static_cast<bool>(out);
}

/// Load a config from a JSON file, read strictly (readFields). On
/// failure `error` (when given) gets one line naming the file and the
/// problem.
template <Serializable T>
bool loadConfig(const std::string& path, T& out, std::string* error = nullptr) {
  std::string problem;
  std::ifstream in(path);
  JsonValue root;
  if (!in) {
    problem = "cannot read " + path;
  } else {
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseJson(buf.str(), root)) {
      problem = path + " is not valid JSON";
    } else if (std::string e = readFields(root, out, ""); !e.empty()) {
      problem = path + ": " + e;
    }
  }
  if (error != nullptr) *error = problem;
  return problem.empty();
}

}  // namespace hcsim
