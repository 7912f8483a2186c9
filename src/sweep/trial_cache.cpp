#include "sweep/trial_cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "sweep/result_sink.hpp"
#include "util/json.hpp"

namespace hcsim::sweep {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

std::string trialKey(const std::string& experiment, const JsonValue& config) {
  return experiment + '\n' + writeJson(config);
}

std::optional<TrialMetrics> TrialCache::lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void TrialCache::insert(const std::string& key, const TrialMetrics& metrics) {
  std::lock_guard<std::mutex> lk(mu_);
  map_[key] = metrics;
}

std::size_t TrialCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

std::uint64_t TrialCache::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

std::uint64_t TrialCache::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}

void TrialCache::resetCounters() {
  std::lock_guard<std::mutex> lk(mu_);
  hits_ = 0;
  misses_ = 0;
}

bool TrialCache::loadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return true;  // absent file == cold cache
  std::string line;
  std::unordered_map<std::string, TrialMetrics> staged;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue j;
    if (!parseJson(line, j)) return false;
    const JsonValue* key = j.find("key");
    const JsonValue* fnv = j.find("fnv");
    const JsonValue* metrics = j.find("metrics");
    if (!key || !key->str() || !fnv || !fnv->str() || !metrics) return false;
    std::ostringstream expect;
    expect << std::hex << fnv1a64(*key->str());
    if (expect.str() != *fnv->str()) return false;  // corrupt or hand-edited
    TrialMetrics m;
    if (!metricsFromJson(*metrics, m)) return false;
    staged[*key->str()] = std::move(m);
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [k, m] : staged) map_[k] = std::move(m);
  return true;
}

bool TrialCache::saveFile(const std::string& path) const {
  std::vector<const std::pair<const std::string, TrialMetrics>*> entries;
  {
    std::lock_guard<std::mutex> lk(mu_);
    entries.reserve(map_.size());
    for (const auto& kv : map_) entries.push_back(&kv);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const auto* kv : entries) {
    std::ostringstream fnv;
    fnv << std::hex << fnv1a64(kv->first);
    JsonObject rec;
    rec["fnv"] = fnv.str();
    rec["key"] = kv->first;
    rec["metrics"] = metricsToJson(kv->second);
    out << writeJson(JsonValue(std::move(rec))) << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace hcsim::sweep
