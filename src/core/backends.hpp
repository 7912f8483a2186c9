#pragma once
// The backend table: one row per storage system and one per site. Every
// caller that needs a backend's spec name, display label, the sites it
// runs on, its per-site preset, how to attach it to a TestBench, or the
// knobs the oracle perturbs reads these rows: makeEnvironment, the spec
// parsers, sweep trials, the CLI (--site/--storage, dump-config) and the
// oracle's config generator. Adding a StorageKind means adding a row
// here; the lookup's switch fails a -Werror=switch build until it has one.
//
// Fault component kinds and declared transport profiles stay with the
// models (FileSystemModel::faultComponentCount/declaredTransportProfile).

#include <memory>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "util/json.hpp"

namespace hcsim {

class FileSystemModel;
class TestBench;

enum class Site { Lassen, Ruby, Quartz, Wombat };
enum class StorageKind { Vast, Gpfs, Lustre, NvmeLocal, Daos };

struct SiteInfo {
  Site site;
  const char* name;   ///< spec/CLI name ("lassen")
  const char* label;  ///< display label ("Lassen")
  Machine (*machine)();
};

/// One perturbable storage knob of the oracle's randomized relations: a
/// dotted path into the serialized storage config plus the multiplicative
/// range drawn from when the knob is perturbed. Integer knobs round and
/// clamp to >= 1.
struct Knob {
  std::string path;
  double lo = 0.75;
  double hi = 1.5;
  bool integer = false;
};

struct BackendInfo {
  StorageKind kind;
  const char* name;   ///< spec/CLI name ("vast")
  const char* label;  ///< display label ("VAST")
  std::vector<Site> sites;  ///< sites the deployment exists on
  const char* siteRule;     ///< why any other site is rejected
  /// The serialized preset deployment as reached from `site`.
  JsonValue (*preset)(Site site);
  /// Build the site's preset, read `overrides` onto it (readFields under
  /// "storageConfig": the object only states what it changes, and an
  /// unknown key, bad enum or negative count throws
  /// std::invalid_argument naming it; nullptr = as-is) and attach the
  /// model to `bench`.
  std::unique_ptr<FileSystemModel> (*attach)(TestBench& bench, Site site,
                                             const JsonValue* overrides);
  /// Knobs whose perturbation must preserve every relation the oracle
  /// states about this backend (empty = not randomized yet).
  std::vector<Knob> oracleKnobs;
};

const SiteInfo& siteInfo(Site site);
const BackendInfo& backendInfo(StorageKind kind);
const std::vector<SiteInfo>& siteTable();
const std::vector<BackendInfo>& backendTable();

const char* toString(Site s);
const char* toString(StorageKind k);
Machine machineFor(Site site);

/// A row's spec/CLI name ("lassen", "vast"), "?" past the last row: the
/// spelling config/fields.hpp reads and writes the enums by, so specs,
/// sweep trials and CLI flags parse them like any other enum.
const char* enumName(Site s);
const char* enumName(StorageKind k);

/// parseEnum by a row's name.
bool parseSite(const std::string& name, Site& out);
bool parseStorage(const std::string& name, StorageKind& out);

/// "vast|gpfs|lustre|nvme|daos".
std::string storageNames();

/// Throws std::invalid_argument ("makeEnvironment: <siteRule>") when
/// `kind` has no deployment on `site`.
void requireSite(StorageKind kind, Site site);

/// The backend's serialized preset as reached from `site` (what
/// `hcsim dump-config` prints); throws as requireSite does.
JsonValue presetJson(Site site, StorageKind kind);

}  // namespace hcsim
