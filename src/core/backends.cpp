#include "core/backends.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/deployments.hpp"
#include "config/fields.hpp"

namespace hcsim {

namespace {

VastConfig vastPreset(Site s) {
  return s == Site::Lassen   ? vastOnLassen()
         : s == Site::Ruby   ? vastOnRuby()
         : s == Site::Quartz ? vastOnQuartz()
                             : vastOnWombat();
}
GpfsConfig gpfsPreset(Site) { return gpfsOnLassen(); }
LustreConfig lustrePreset(Site s) { return s == Site::Quartz ? lustreOnQuartz() : lustreOnRuby(); }
NvmeLocalConfig nvmePreset(Site) { return nvmeOnWombat(); }
DaosConfig daosPreset(Site) { return daosInstance(); }

template <auto Preset>
JsonValue presetAsJson(Site site) {
  return toJson(Preset(site));
}

template <auto Preset, auto Attach>
std::unique_ptr<FileSystemModel> attachPreset(TestBench& bench, Site site,
                                              const JsonValue* overrides) {
  auto c = Preset(site);
  if (overrides != nullptr) {
    std::string e = readFields(*overrides, c, "storageConfig");
    if (!e.empty()) throw std::invalid_argument(e);
  }
  return (bench.*Attach)(std::move(c));
}

}  // namespace

const std::vector<SiteInfo>& siteTable() {
  // In enum order: siteInfo() indexes by the enum value.
  static const std::vector<SiteInfo> rows = {
      {Site::Lassen, "lassen", "Lassen", &Machine::lassen},
      {Site::Ruby, "ruby", "Ruby", &Machine::ruby},
      {Site::Quartz, "quartz", "Quartz", &Machine::quartz},
      {Site::Wombat, "wombat", "Wombat", &Machine::wombat},
  };
  return rows;
}

const std::vector<BackendInfo>& backendTable() {
  // In enum order: backendInfo() indexes by the enum value.
  static const std::vector<BackendInfo> rows = {
      {StorageKind::Vast, "vast", "VAST", {Site::Lassen, Site::Ruby, Site::Quartz, Site::Wombat}, "",
       presetAsJson<vastPreset>, attachPreset<vastPreset, &TestBench::attachVast>,
       {{"cnodes", 0.75, 1.5, true},
        {"nconnect", 0.5, 1.5, true},
        {"rdmaSessionCap", 0.75, 1.5, false},
        {"tcpSessionCap", 0.75, 1.5, false},
        {"fabricLinkBandwidth", 0.75, 1.5, false}}},
      {StorageKind::Gpfs, "gpfs", "GPFS", {Site::Lassen}, "the paper only tests GPFS on Lassen",
       presetAsJson<gpfsPreset>, attachPreset<gpfsPreset, &TestBench::attachGpfs>,
       {{"nsdServers", 0.5, 2.0, true},
        {"serverReadBandwidth", 0.75, 1.5, false},
        {"serverWriteBandwidth", 0.75, 1.5, false},
        {"serverCacheBytes", 0.5, 2.0, false},
        {"spindlesPerServer", 0.75, 1.5, true}}},
      {StorageKind::Lustre, "lustre", "Lustre", {Site::Quartz, Site::Ruby},
       "the paper tests Lustre on Quartz/Ruby", presetAsJson<lustrePreset>,
       attachPreset<lustrePreset, &TestBench::attachLustre>,
       {{"ossCount", 0.5, 1.5, true},
        {"ossBandwidth", 0.75, 1.5, false},
        {"spindlesPerOss", 0.75, 1.25, true},
        {"mdsCount", 0.5, 2.0, true},
        {"clientCap", 0.75, 1.25, false}}},
      {StorageKind::NvmeLocal, "nvme", "NVMe", {Site::Wombat}, "node-local NVMe is only on Wombat",
       presetAsJson<nvmePreset>, attachPreset<nvmePreset, &TestBench::attachNvme>,
       {{"drivesPerNode", 0.5, 2.0, true},
        {"memoryBandwidth", 0.75, 1.5, false},
        {"dirtyLimitBytes", 0.5, 2.0, false}}},
      // DAOS is not one of the paper's deployments: its pool is wired with
      // its own fabric and is reachable from any site's machine.
      {StorageKind::Daos, "daos", "DAOS", {Site::Lassen, Site::Ruby, Site::Quartz, Site::Wombat}, "",
       presetAsJson<daosPreset>, attachPreset<daosPreset, &TestBench::attachDaos>, {}},
  };
  return rows;
}

const SiteInfo& siteInfo(Site site) {
  switch (site) {  // exhaustive: a new Site fails -Werror=switch until it has a row
    case Site::Lassen:
    case Site::Ruby:
    case Site::Quartz:
    case Site::Wombat:
      break;
  }
  return siteTable().at(static_cast<std::size_t>(site));
}

const BackendInfo& backendInfo(StorageKind kind) {
  switch (kind) {  // exhaustive: a new StorageKind fails -Werror=switch until it has a row
    case StorageKind::Vast:
    case StorageKind::Gpfs:
    case StorageKind::Lustre:
    case StorageKind::NvmeLocal:
    case StorageKind::Daos:
      break;
  }
  return backendTable().at(static_cast<std::size_t>(kind));
}

const char* toString(Site s) { return siteInfo(s).label; }
const char* toString(StorageKind k) { return backendInfo(k).label; }
Machine machineFor(Site site) { return siteInfo(site).machine(); }

const char* enumName(Site s) {
  const auto i = static_cast<std::size_t>(s);
  return i < siteTable().size() ? siteTable()[i].name : "?";
}

const char* enumName(StorageKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < backendTable().size() ? backendTable()[i].name : "?";
}

bool parseSite(const std::string& name, Site& out) { return parseEnum(JsonValue(name), out); }
bool parseStorage(const std::string& name, StorageKind& out) {
  return parseEnum(JsonValue(name), out);
}
std::string storageNames() { return enumChoices<StorageKind>(); }

void requireSite(StorageKind kind, Site site) {
  const BackendInfo& row = backendInfo(kind);
  if (std::find(row.sites.begin(), row.sites.end(), site) == row.sites.end()) {
    throw std::invalid_argument(std::string("makeEnvironment: ") + row.siteRule);
  }
}

JsonValue presetJson(Site site, StorageKind kind) {
  requireSite(kind, site);
  return backendInfo(kind).preset(site);
}

}  // namespace hcsim
