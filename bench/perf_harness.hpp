#pragma once
// The perf harness of the five gated benches (bench_engine, bench_probe,
// bench_scale, bench_transport, bench_workload): one flag set, one
// timed-rounds runner, one reference compare and one JSON schema.
//
// A shared host's speed moves between phases by more than the gate's
// tolerance, so the gate judges no absolute rate. Each of kRounds rounds
// runs every scenario for at least kMinRoundSec, and between its calls
// a calibration kernel of fixed cost runs for as long as the scenario
// does. A round's ratio is the scenario's rate times the kernel's mean
// seconds per run: the work units it does in the time of one kernel
// run, measured in the host's phase of that moment. The gate compares
// the median ratio over the rounds with the committed one. The kernel
// is plain standard-library code and calls nothing in libhcsim, so a
// regression in the library cannot move the kernel with it. Paired
// scenarios (bench_probe's recorder off/on) take turns call by call
// within a round, each side first in half the rounds.
//
// Flags, the same in every gated bench:
//   --hcsim_json OUT           write the JSON document to OUT
//   --hcsim_compare REF.json   exit 1 when a scenario's ratio falls below
//                              REF's by more than the tolerance, or REF
//                              names a scenario this run lacks; exit 2
//                              when REF was recorded under another build
//                              type
//   --hcsim_max_regress 0.30   the tolerance (fraction)
//   --hcsim_golden_dir DIR     bench_engine: goldens for the oracle timing
//   --hcsim_max_overhead 0.03  bench_probe: the recorder budget
// An unknown --hcsim_* flag exits 2.
//
// JSON: {"schema", "provenance": {nproc, compiler, build_type, commit},
// "scenarios": {NAME: {work_units, seconds, rate, ratio}}} and any block
// a bench adds beside them. work_units and seconds sum over the rounds,
// rate is their quotient and ratio the median round ratio. A committed
// BENCH_*.json holds the provenance and each scenario's ratio.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace hcsim::perf {

inline constexpr std::size_t kRounds = 10;
inline constexpr double kMinRoundSec = 0.05;

/// Wall seconds since construction.
class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

/// A gated scenario: `run` does `workUnits` units of work once and
/// returns the wall seconds it timed (it may build its inputs before it
/// starts its Stopwatch).
struct Scenario {
  std::string name;
  double workUnits = 0.0;
  std::function<double()> run;
};

/// One round of one scenario.
struct Sample {
  double work = 0.0;
  double seconds = 0.0;
  double ratio = 0.0;  ///< work per kernel run's time
};

struct Measured {
  std::string name;
  std::vector<Sample> rounds;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double medianRatio(const Measured& m) {
  std::vector<double> r;
  for (const Sample& s : m.rounds) r.push_back(s.ratio);
  return median(std::move(r));
}

/// Median over the rounds of `a`'s seconds per work unit over `b`'s.
inline double medianCostRatio(const Measured& a, const Measured& b) {
  std::vector<double> r;
  for (std::size_t i = 0; i < a.rounds.size() && i < b.rounds.size(); ++i) {
    const Sample& x = a.rounds[i];
    const Sample& y = b.rounds[i];
    r.push_back((x.seconds / x.work) / (y.seconds / y.work));
  }
  return median(std::move(r));
}

namespace detail {

inline std::uint64_t kernelSink = 0;

/// The calibration kernel: a fixed amount of the work the scenarios are
/// made of, in plain standard-library code. A min-heap of timestamps
/// stands for the event queue, a hash map of short strings for keyed
/// lookups and allocation, and a float update over a vector for the
/// flow solve. Its inputs are fixed, so its cost is too.
inline void kernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::string> names;
  std::vector<double> shares(4096, 1.0);
  std::uint64_t sum = 0;
  for (int i = 0; i < 8000; ++i) {
    queue.push(next() % 1000000007u);
    if (queue.size() > 4096) {
      sum += queue.top();
      queue.pop();
    }
    std::string& name = names[next() % 8192];
    if (name.size() > 40) name.clear();
    name += static_cast<char>('a' + i % 26);
    const std::size_t k = next() % shares.size();
    shares[k] = 0.5 * shares[k] + 1.0 / (1.0 + static_cast<double>(k));
  }
  for (double s : shares) sum += static_cast<std::uint64_t>(s * 1e6);
  kernelSink += sum + names.size();
}

inline double kernelSeconds() {
  const Stopwatch sw;
  kernel();
  return sw.seconds();
}

}  // namespace detail

/// Runs every scenario once untimed (caches, allocator, lazy set-up),
/// then kRounds rounds. A round takes the scenarios in groups of `group`
/// neighbours. A group's members run one call each in turn (a b a b ...,
/// b first in odd rounds), and the kernel runs between those turns
/// whenever it has run for less time than the members' mean, until the
/// kernel and every member have run kMinRoundSec. So paired scenarios,
/// and each scenario and its kernel, see the same host phase.
inline std::vector<Measured> runRounds(const std::vector<Scenario>& scenarios,
                                       std::size_t group = 1) {
  std::vector<Measured> out;
  for (const Scenario& s : scenarios) {
    s.run();
    out.push_back({s.name, {}});
  }
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t first = 0; first < scenarios.size(); first += group) {
      std::vector<Sample> s(std::min(group, scenarios.size() - first));
      double kernelSec = 0.0;
      double kernelRuns = 0.0;
      double memberSec = 0.0;  // summed over the members
      while (kernelSec < kMinRoundSec ||
             std::any_of(s.begin(), s.end(), [](const Sample& x) { return x.seconds < kMinRoundSec; })) {
        if (kernelSec * static_cast<double>(s.size()) <= memberSec) {
          kernelSec += detail::kernelSeconds();
          ++kernelRuns;
          continue;
        }
        for (std::size_t k = 0; k < s.size(); ++k) {
          const std::size_t j = r % 2 == 0 ? k : s.size() - 1 - k;
          const double sec = scenarios[first + j].run();
          s[j].seconds += sec;
          s[j].work += scenarios[first + j].workUnits;
          memberSec += sec;
        }
      }
      for (std::size_t j = 0; j < s.size(); ++j) {
        s[j].ratio = s[j].work / s[j].seconds * kernelSec / kernelRuns;
        out[first + j].rounds.push_back(s[j]);
      }
    }
  }
  return out;
}

struct Options {
  std::string bench;  ///< the binary's name, for messages
  std::string jsonOut;
  std::string compareRef;
  std::string goldenDir;
  double maxRegress = 0.30;
  double maxOverhead = 0.03;
  JsonValue reference;  ///< compareRef, read and checked by parseFlags

  /// True when a JSON document or a compare was asked for.
  bool gate() const { return !jsonOut.empty() || !compareRef.empty(); }
};

[[noreturn]] inline void usageError(const std::string& bench, const std::string& what) {
  std::cerr << bench << ": " << what << "\n";
  std::exit(2);
}

/// Reads the reference: valid JSON, a ratio per scenario, and recorded
/// under this build's type (a RelWithDebInfo build must not be judged
/// by Release ratios).
inline JsonValue readReference(const Options& o) {
  std::ifstream f(o.compareRef);
  std::stringstream text;
  text << f.rdbuf();
  JsonValue ref;
  if (!f || !parseJson(text.str(), ref)) usageError(o.bench, "cannot read " + o.compareRef);
  const JsonValue* scenarios = ref.find("scenarios");
  if (scenarios == nullptr || !scenarios->isObject()) {
    usageError(o.bench, o.compareRef + " has no \"scenarios\" object");
  }
  for (const auto& [name, entry] : *scenarios->object()) {
    const JsonValue* ratio = entry.find("ratio");
    if (ratio == nullptr || ratio->number() == nullptr) {
      usageError(o.bench, o.compareRef + ": scenario " + name + " has no ratio");
    }
  }
  const JsonValue* prov = ref.find("provenance");
  const std::string type = prov != nullptr ? prov->stringOr("build_type", "") : "";
  if (type != HCSIM_BENCH_BUILD_TYPE) {
    usageError(o.bench, o.compareRef + " was recorded under build type '" + type +
                            "', this build is '" HCSIM_BENCH_BUILD_TYPE "'");
  }
  return ref;
}

/// Takes the --hcsim_* flags out of argv. Other arguments stay in argv
/// when `keepOthers` (google-benchmark reads them) and fail otherwise.
inline Options parseFlags(const char* bench, int& argc, char** argv, bool keepOthers = false) {
  Options o;
  o.bench = bench;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--hcsim_", 0) != 0) {
      if (!keepOthers) usageError(bench, "unknown argument " + flag);
      argv[kept++] = argv[i];
      continue;
    }
    std::string* text = flag == "--hcsim_json"         ? &o.jsonOut
                        : flag == "--hcsim_compare"    ? &o.compareRef
                        : flag == "--hcsim_golden_dir" ? &o.goldenDir
                                                       : nullptr;
    double* fraction = flag == "--hcsim_max_regress"    ? &o.maxRegress
                       : flag == "--hcsim_max_overhead" ? &o.maxOverhead
                                                        : nullptr;
    if (text == nullptr && fraction == nullptr) usageError(bench, "unknown option " + flag);
    if (i + 1 >= argc) usageError(bench, flag + " needs a value");
    const std::string value = argv[++i];
    if (text != nullptr) {
      *text = value;
      continue;
    }
    char* end = nullptr;
    *fraction = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !(*fraction >= 0.0 && *fraction < 1.0)) {
      usageError(bench, flag + ": must be a fraction in [0, 1) (got '" + value + "')");
    }
  }
  argc = kept;
  if (!o.compareRef.empty()) o.reference = readReference(o);
  return o;
}

inline JsonValue provenance() {
  JsonObject p;
  p["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  p["compiler"] = HCSIM_BENCH_COMPILER;
  p["build_type"] = HCSIM_BENCH_BUILD_TYPE;
  p["commit"] = HCSIM_BENCH_COMMIT;
  return JsonValue(std::move(p));
}

/// PERF FAIL lines for every reference scenario this run misses or
/// whose ratio falls below the reference's by more than the tolerance.
inline int compare(const Options& o, const JsonObject& scenarios) {
  int failures = 0;
  for (const auto& [name, entry] : *o.reference.find("scenarios")->object()) {
    const double want = *entry.find("ratio")->number();
    const auto it = scenarios.find(name);
    if (it == scenarios.end()) {
      std::cerr << "PERF FAIL " << name << ": scenario missing from current run\n";
      ++failures;
      continue;
    }
    const double got = it->second.numberOr("ratio", 0.0);
    const double floor = want * (1.0 - o.maxRegress);
    if (got < floor) {
      std::cerr << "PERF FAIL " << name << ": ratio " << got << " < floor " << floor << " (ref "
                << want << ", tolerance " << o.maxRegress * 100.0 << "%)\n";
      ++failures;
    } else {
      std::cout << "perf ok " << name << ": ratio " << got << " vs ref " << want << "\n";
    }
  }
  return failures;
}

/// Prints one line per scenario, writes the JSON document (with `extra`
/// beside "scenarios") and compares against the reference. `failures`
/// counts the bench's own failed checks. Returns the exit code.
inline int finish(const Options& o, const std::vector<Measured>& measured,
                  JsonObject extra = {}, int failures = 0) {
  JsonObject scenarios;
  for (const Measured& m : measured) {
    double work = 0.0;
    double seconds = 0.0;
    for (const Sample& s : m.rounds) {
      work += s.work;
      seconds += s.seconds;
    }
    const double ratio = medianRatio(m);
    JsonObject e;
    e["work_units"] = work;
    e["seconds"] = seconds;
    e["rate"] = work / seconds;
    e["ratio"] = ratio;
    std::cout << m.name << ": " << work / seconds << "/s, ratio " << ratio << "\n";
    scenarios[m.name] = JsonValue(std::move(e));
  }
  if (!o.compareRef.empty()) failures += compare(o, scenarios);
  if (!o.jsonOut.empty()) {
    JsonObject doc = std::move(extra);
    doc["schema"] = "hcsim-perf-v1";
    doc["provenance"] = provenance();
    doc["scenarios"] = JsonValue(std::move(scenarios));
    std::ofstream f(o.jsonOut, std::ios::trunc);
    f << writeJson(JsonValue(std::move(doc)), 2) << "\n";
    if (!f) usageError(o.bench, "cannot write " + o.jsonOut);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace hcsim::perf
