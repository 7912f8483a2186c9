#pragma once
// Seeded trial-config generators for the oracle's metamorphic relations.
//
// A generator starts from a site's preset deployment, perturbs a curated
// set of storage knobs (by default the backend table's oracleKnobs row,
// core/backends.hpp) — each addressed by the dotted JSON path the
// config serializer emits and validated against the serializer's path
// enumeration at construction, so a renamed field fails loudly instead
// of silently un-perturbing a knob — and randomizes the IOR geometry
// within paper-scale bounds. Every case is deterministic in its seed.

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/json.hpp"

namespace hcsim::oracle {

class ConfigGenerator {
 public:
  /// Throws std::logic_error when a knob path does not resolve to a
  /// numeric leaf of the preset's serialization (serializer drift).
  ConfigGenerator(Site site, StorageKind kind, std::vector<Knob> knobs);
  ConfigGenerator(Site site, StorageKind kind)
      : ConfigGenerator(site, kind, backendInfo(kind).oracleKnobs) {}

  Site site() const { return site_; }
  StorageKind kind() const { return kind_; }
  const std::vector<Knob>& knobs() const { return knobs_; }

  /// A base trial config {"site","storage","ior":{...},"storageConfig":
  /// {...}} for one case: paper-scale coalesced IOR geometry (noise 0,
  /// repetitions 1) and each knob perturbed with probability 1/2.
  /// Deterministic in (site, kind, knob table, seed, access).
  JsonValue makeBase(std::uint64_t seed, AccessPattern access) const;

 private:
  Site site_;
  StorageKind kind_;
  std::vector<Knob> knobs_;
  JsonValue preset_;
};

}  // namespace hcsim::oracle
