#include "core/experiment.hpp"

#include <stdexcept>

#include "config/fields.hpp"

namespace hcsim {

Environment makeEnvironment(Site site, StorageKind kind, std::size_t nodes) {
  return makeEnvironment(site, kind, nodes, nullptr);
}

Environment makeEnvironment(Site site, StorageKind kind, std::size_t nodes,
                            const JsonValue* storageOverrides) {
  return makeEnvironment(site, kind, nodes, storageOverrides, nullptr);
}

Environment makeEnvironment(Site site, StorageKind kind, std::size_t nodes,
                            const JsonValue* storageOverrides, const JsonValue* transportSection) {
  requireSite(kind, site);
  Environment env;
  env.bench = std::make_unique<TestBench>(machineFor(site), nodes);
  env.fs = backendInfo(kind).attach(*env.bench, site, storageOverrides);
  // Attach the NIC/transport layer when the spec opts in — or always for
  // DAOS, the one model built on the fabric from day one. A null section
  // for the other models leaves the launch path byte-identical to a
  // build without hcsim::transport (the zero-cost contract).
  if (transportSection || kind == StorageKind::Daos) {
    transport::TransportProfile profile = env.fs->declaredTransportProfile();
    if (transportSection != nullptr) {
      std::string e = readFields(*transportSection, profile, "transport");
      if (!e.empty()) throw std::invalid_argument(e);
    }
    profile.validate();
    env.transport = std::make_unique<transport::TransportFabric>(
        env.bench->sim(), env.bench->topo().network(), profile, &env.bench->recorder());
    env.fs->setTransport(env.transport.get());
  }
  return env;
}

Environment makeEnvironment(const SpecHeader& spec, std::size_t nodes) {
  return makeEnvironment(spec.site, spec.storage, nodes,
                         spec.storageConfig.isNull() ? nullptr : &spec.storageConfig,
                         spec.transport.isNull() ? nullptr : &spec.transport);
}

std::string readDeployment(const JsonValue& doc, Site& site, StorageKind& storage) {
  static const std::string kTopLevel;
  const JsonObject* obj = doc.object();
  if (obj == nullptr) return "";
  FieldReader r(*obj, kTopLevel, {});
  r("site", site);
  r("storage", storage);
  return r.error();
}

void parseSpecHeader(const JsonValue& doc, SpecHeader& out, std::vector<std::string>& problems) {
  if (const JsonValue* name = doc.find("name")) {
    if (const std::string* s = name->str()) {
      out.name = *s;
    } else {
      problems.push_back(fieldError("name", "must be a string", *name));
    }
  }
  if (std::string e = readDeployment(doc, out.site, out.storage); !e.empty()) {
    problems.push_back(std::move(e));
  }
  const auto section = [&](const char* key, const char* what, JsonValue& dst) {
    const JsonValue* v = doc.find(key);
    if (v == nullptr) return;
    if (v->isObject() || v->isNull()) {
      dst = *v;
    } else {
      problems.push_back(std::string(key) + ": must be an object of " + what + " overrides");
    }
  };
  section("storageConfig", "preset", out.storageConfig);
  section("transport", "endpoint-profile", out.transport);

  if (const JsonValue* r = doc.find("retry")) {
    if (r->isBool()) {
      out.retryEnabled = *r->boolean();
    } else if (r->isObject()) {
      out.retryEnabled = true;
      if (std::string e = readFields(*r, out.retry, "retry"); !e.empty()) {
        problems.push_back(std::move(e));
      }
    } else {
      problems.push_back("retry: must be a boolean or an object");
    }
  }
  probe::parseMonitors(doc, out.monitors, problems);
}

DlioResult runDlio(Site site, StorageKind kind, const DlioConfig& cfg) {
  Environment env = makeEnvironment(site, kind, cfg.nodes);
  DlioRunner runner(*env.bench, *env.fs);
  return runner.run(cfg);
}

}  // namespace hcsim
