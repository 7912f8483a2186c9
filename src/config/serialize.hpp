#pragma once
// JSON (de)serialization for every configuration struct — the interface
// a downstream user scripts experiments through (and what the hcsim CLI
// consumes). Each struct lists its keys once, next to the struct, each
// numeric key with its range (config/fields.hpp, config/range.hpp); one
// writer and one reader walk that list, and each struct's validate()
// walks it with the checker before its cross-field rules. Absent keys
// keep the struct's defaults, so a config file only states what it
// overrides. Unknown keys, enum strings that do not parse, values of the
// wrong JSON type and numbers outside the key's range fail the read.

#include <string>

#include "cluster/machine.hpp"
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

// ---- enums ----
JsonValue toJson(AccessPattern p);
bool fromJson(const JsonValue& j, AccessPattern& out);
JsonValue toJson(NfsTransport t);
bool fromJson(const JsonValue& j, NfsTransport& out);
JsonValue toJson(ScalingMode m);
bool fromJson(const JsonValue& j, ScalingMode& out);

// ---- device specs ----
JsonValue toJson(const SsdSpec& s);
bool fromJson(const JsonValue& j, SsdSpec& out);
JsonValue toJson(const HddSpec& s);
bool fromJson(const JsonValue& j, HddSpec& out);

// ---- machines & storage configs ----
JsonValue toJson(const Machine& m);
bool fromJson(const JsonValue& j, Machine& out);
JsonValue toJson(const GatewaySpec& g);
bool fromJson(const JsonValue& j, GatewaySpec& out);
JsonValue toJson(const VastConfig& c);
bool fromJson(const JsonValue& j, VastConfig& out);
JsonValue toJson(const GpfsConfig& c);
bool fromJson(const JsonValue& j, GpfsConfig& out);
JsonValue toJson(const LustreConfig& c);
bool fromJson(const JsonValue& j, LustreConfig& out);
JsonValue toJson(const NvmeLocalConfig& c);
bool fromJson(const JsonValue& j, NvmeLocalConfig& out);
/// DaosConfig embeds its transport::TransportProfile under "fabric"
/// (profile (de)serializers live in transport/transport_profile.hpp).
JsonValue toJson(const DaosConfig& c);
bool fromJson(const JsonValue& j, DaosConfig& out);

// ---- workload configs ----
JsonValue toJson(const IorConfig& c);
bool fromJson(const JsonValue& j, IorConfig& out);
JsonValue toJson(const DlioWorkload& w);
bool fromJson(const JsonValue& j, DlioWorkload& out);
JsonValue toJson(const DlioConfig& c);
bool fromJson(const JsonValue& j, DlioConfig& out);
JsonValue toJson(const MdtestConfig& c);
bool fromJson(const JsonValue& j, MdtestConfig& out);

// ---- file helpers ----
/// Write any serializable config to a pretty-printed JSON file.
template <typename T>
bool saveConfig(const T& config, const std::string& path);
/// Load a config from a JSON file, read strictly (readFields,
/// config/fields.hpp). On failure `error` (when given) gets one line
/// naming the file and the problem.
template <typename T>
bool loadConfig(const std::string& path, T& out, std::string* error = nullptr);

}  // namespace hcsim
