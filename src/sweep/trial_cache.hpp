#pragma once
// Trial memoization for hcsim::sweep.
//
// A TrialCache maps the canonical identity of a trial — experiment name
// plus the canonical JSON serialization of its config (JsonObject keys
// are sorted and numbers print losslessly, so two semantically equal
// configs always serialize identically) — to the TrialMetrics a
// Simulator produced for it. Trials are deterministic functions of their
// config, so a hit returns exactly the metrics a fresh run would
// produce and sweep/oracle output stays byte-identical with the cache
// on or off, at any job count.
//
// Keys are derived as: key = experiment + '\n' + writeJson(config);
// an FNV-1a 64-bit hash of the key is stored alongside every persisted
// entry as an integrity check (the in-memory map is keyed by the full
// string, so hash collisions can never alias two configs).
//
// Record format, one JSON object per line, sorted by key:
//   {"fnv":"<hex>","key":"<experiment>\n<config>","metrics":{...}}
// where "metrics" is exactly the trial's JSONL metrics object
// (sweep::appendMetricsJson). A line whose metrics object does not read back
// — e.g. a successful trial without every base column, as in the flat
// format older builds wrote — fails the whole load.
//
// Invalidation: the key covers the entire config, so any config change
// misses naturally. What the key can NOT see is a change to the
// simulation code itself — persisted caches are only valid for the
// binary revision that wrote them. Delete the cache file (or let
// check.sh use a build-local path) whenever the engine or a model
// changes; loadFile also rejects entries whose stored hash no longer
// matches their key, so truncated/corrupt files fail loudly.
//
// Thread-safe: lookup/insert take an internal mutex; the work-stealing
// pool shares one cache across workers.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sweep/sweep_runner.hpp"

namespace hcsim::sweep {

/// FNV-1a 64-bit.
std::uint64_t fnv1a64(std::string_view s);

/// Canonical cache key for one trial.
std::string trialKey(const std::string& experiment, const JsonValue& config);

class TrialCache {
 public:
  TrialCache() = default;
  TrialCache(const TrialCache&) = delete;
  TrialCache& operator=(const TrialCache&) = delete;

  /// Metrics for `key`, or nullopt on a miss. Counts a hit or a miss.
  std::optional<TrialMetrics> lookup(const std::string& key) const;

  /// Record metrics for `key` (last writer wins; concurrent writers for
  /// the same key always carry identical metrics, so order is moot).
  void insert(const std::string& key, const TrialMetrics& metrics);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void resetCounters();

  /// Merge entries from a JSONL cache file. A missing file is an empty
  /// cache (returns true); malformed lines or hash/key mismatches fail
  /// the whole load (returns false).
  bool loadFile(const std::string& path);

  /// Write every entry, sorted by key for deterministic bytes.
  bool saveFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::unordered_map<std::string, TrialMetrics> map_;
};

}  // namespace hcsim::sweep
