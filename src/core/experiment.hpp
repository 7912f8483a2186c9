#pragma once
// Experiment framework — the paper's contribution is a *methodology*:
// evaluate a storage system across (1) diverse workloads, (2) storage
// configurations and (3) deployment methods. This module packages that
// methodology as a library: pick a site and a storage system and build
// its environment; hcsim::sweep runs the paper's experiments on it.

#include <memory>
#include <string>
#include <vector>

#include "cluster/deployments.hpp"
#include "core/backends.hpp"
#include "dlio/dlio_runner.hpp"
#include "fs/client_session.hpp"
#include "ior/ior_runner.hpp"
#include "probe/monitor.hpp"
#include "transport/transport.hpp"
#include "util/json.hpp"

namespace hcsim {

/// A TestBench + an attached storage model, owned together. When a spec
/// carries a "transport" section (or the model is DAOS, which always
/// routes through the fabric), `transport` holds the NIC/transport layer
/// the model's transfers are posted through; otherwise it stays null and
/// the launch path is byte-identical to a build without hcsim::transport.
/// Declaration order matters: `fs` is destroyed before `transport`,
/// which is destroyed before `bench`.
struct Environment {
  std::unique_ptr<TestBench> bench;
  std::unique_ptr<transport::TransportFabric> transport;
  std::unique_ptr<FileSystemModel> fs;
};

/// Build the paper's deployment of `kind` as reached from `site`, with
/// `nodes` compute nodes wired (the backend table's preset and attach
/// row). Throws std::invalid_argument for combinations the paper does
/// not define (e.g. GPFS on Wombat).
Environment makeEnvironment(Site site, StorageKind kind, std::size_t nodes);

/// As above, with optional JSON overrides read onto the site preset's
/// storage config (readFields: the object only states what it changes;
/// an unknown key, bad enum or negative count throws
/// std::invalid_argument naming "storageConfig.<key>"). nullptr = preset
/// as-is. Shared by sweep trials and chaos scenarios so a
/// "storageConfig" section means the same everywhere.
Environment makeEnvironment(Site site, StorageKind kind, std::size_t nodes,
                            const JsonValue* storageOverrides);

/// As above, plus the spec's optional "transport" section. When present
/// (even as an empty object `{}`), the model's declaredTransportProfile()
/// is merged with the section's knobs and a TransportFabric is attached,
/// so transfers pay first-principles endpoint costs. nullptr = no fabric
/// (byte-identical to before hcsim::transport existed) — except for
/// StorageKind::Daos, which always runs on its config-embedded profile.
Environment makeEnvironment(Site site, StorageKind kind, std::size_t nodes,
                            const JsonValue* storageOverrides, const JsonValue* transportSection);

/// The header every run spec shares, chaos scenarios and workload specs
/// alike: the deployment to build and how its clients behave.
struct SpecHeader {
  std::string name;
  Site site = Site::Lassen;
  StorageKind storage = StorageKind::Vast;
  JsonValue storageConfig;  ///< null = site preset as-is
  /// Raw "transport" section: merged onto the model's declared endpoint
  /// profile and routed through hcsim::transport. null = no fabric.
  JsonValue transport;
  bool retryEnabled = false;  ///< "retry": true/false, or an object of knobs
  RetryPolicy retry;
  std::vector<probe::MonitorSpec> monitors;  ///< SLO watchdogs (probe/monitor.hpp)
};

/// Read the "site" and "storage" keys of `doc` onto `site` and `storage`
/// as their enums' field entries do, leaving every other key to the
/// caller: "" when both are absent or valid (no string is built then),
/// else one line naming the key.
std::string readDeployment(const JsonValue& doc, Site& site, StorageKind& storage);

/// Parse the header keys of `doc` (a JSON object) — name, site, storage,
/// storageConfig, transport, retry, monitors — into `out`. Absent keys
/// keep the defaults already in `out`. Appends one actionable line per
/// problem to `problems`.
void parseSpecHeader(const JsonValue& doc, SpecHeader& out, std::vector<std::string>& problems);

/// makeEnvironment for a parsed header.
Environment makeEnvironment(const SpecHeader& spec, std::size_t nodes);

/// One DLIO training run on a fresh environment.
DlioResult runDlio(Site site, StorageKind kind, const DlioConfig& cfg);

}  // namespace hcsim
