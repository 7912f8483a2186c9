#include "config/serialize.hpp"

#include <fstream>
#include <sstream>

#include "config/fields.hpp"

namespace hcsim {

// ---- public (de)serializers ----

JsonValue toJson(AccessPattern p) { return FieldWriter::encode(p); }
bool fromJson(const JsonValue& j, AccessPattern& out) { return parseEnum(j, out); }
JsonValue toJson(NfsTransport t) { return FieldWriter::encode(t); }
bool fromJson(const JsonValue& j, NfsTransport& out) { return parseEnum(j, out); }
JsonValue toJson(ScalingMode m) { return FieldWriter::encode(m); }
bool fromJson(const JsonValue& j, ScalingMode& out) { return parseEnum(j, out); }

JsonValue toJson(const SsdSpec& s) { return writeFields(s); }
bool fromJson(const JsonValue& j, SsdSpec& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const HddSpec& s) { return writeFields(s); }
bool fromJson(const JsonValue& j, HddSpec& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const Machine& m) { return writeFields(m); }
bool fromJson(const JsonValue& j, Machine& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const GatewaySpec& g) { return writeFields(g); }
bool fromJson(const JsonValue& j, GatewaySpec& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const VastConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, VastConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const GpfsConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, GpfsConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const LustreConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, LustreConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const NvmeLocalConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, NvmeLocalConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const DaosConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, DaosConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const IorConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, IorConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const DlioWorkload& w) { return writeFields(w); }
bool fromJson(const JsonValue& j, DlioWorkload& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const DlioConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, DlioConfig& out) { return readFields(j, out, "").empty(); }
JsonValue toJson(const MdtestConfig& c) { return writeFields(c); }
bool fromJson(const JsonValue& j, MdtestConfig& out) { return readFields(j, out, "").empty(); }

// ---- file helpers ----

template <typename T>
bool saveConfig(const T& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << writeJson(toJson(config), 2) << '\n';
  return static_cast<bool>(out);
}

template <typename T>
bool loadConfig(const std::string& path, T& out, std::string* error) {
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

// Explicit instantiations for every config type.
#define HCSIM_CONFIG_IO(T)                                   \
  template bool saveConfig<T>(const T&, const std::string&); \
  template bool loadConfig<T>(const std::string&, T&, std::string*);
HCSIM_CONFIG_IO(Machine)
HCSIM_CONFIG_IO(VastConfig)
HCSIM_CONFIG_IO(GpfsConfig)
HCSIM_CONFIG_IO(LustreConfig)
HCSIM_CONFIG_IO(NvmeLocalConfig)
HCSIM_CONFIG_IO(DaosConfig)
HCSIM_CONFIG_IO(IorConfig)
HCSIM_CONFIG_IO(DlioWorkload)
HCSIM_CONFIG_IO(DlioConfig)
HCSIM_CONFIG_IO(MdtestConfig)
#undef HCSIM_CONFIG_IO

}  // namespace hcsim
