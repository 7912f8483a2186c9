#include "oracle/generator.hpp"

#include <cmath>
#include <stdexcept>

#include "config/paths.hpp"
#include "config/serialize.hpp"
#include "sweep/sweep_spec.hpp"
#include "util/random.hpp"

namespace hcsim::oracle {

ConfigGenerator::ConfigGenerator(Site site, StorageKind kind, std::vector<Knob> knobs)
    : site_(site), kind_(kind), knobs_(std::move(knobs)), preset_(presetJson(site, kind)) {
  for (const Knob& k : knobs_) {
    if (!hasNumericPath(preset_, k.path)) {
      throw std::logic_error("oracle: knob '" + k.path + "' is not a numeric path of the " +
                             std::string(backendInfo(kind).name) + " serialization");
    }
  }
}

JsonValue ConfigGenerator::makeBase(std::uint64_t seed, AccessPattern access) const {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(kind_) * 131 +
          static_cast<std::uint64_t>(site_) * 17 + 1);

  JsonObject ior;
  ior["access"] = toJson(access);
  static const std::size_t nodeChoices[] = {1, 2, 4};
  static const std::size_t ppnChoices[] = {8, 16, 32};
  ior["nodes"] = static_cast<double>(nodeChoices[rng.uniformInt(3)]);
  ior["procsPerNode"] = static_cast<double>(ppnChoices[rng.uniformInt(3)]);
  ior["segments"] = static_cast<double>(1000 + rng.uniformInt(2001));  // ~1-3 GiB per proc
  ior["repetitions"] = 1;
  ior["noiseStdDevFrac"] = 0.0;
  ior["seed"] = static_cast<double>(rng.next() >> 16);

  JsonValue storageConfig(JsonObject{});
  for (const Knob& k : knobs_) {
    if (rng.uniform() >= 0.5) continue;
    double v = numberAtPath(preset_, k.path, 0.0) * rng.uniform(k.lo, k.hi);
    if (k.integer) v = std::max(1.0, std::floor(v + 0.5));
    sweep::jsonPathSet(storageConfig, k.path, JsonValue(v));
  }

  JsonObject base;
  base["site"] = std::string(siteInfo(site_).name);
  base["storage"] = std::string(backendInfo(kind_).name);
  base["ior"] = JsonValue(std::move(ior));
  base["storageConfig"] = storageConfig;
  return JsonValue(std::move(base));
}

}  // namespace hcsim::oracle
