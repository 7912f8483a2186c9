#pragma once
// The benchmark's three workloads. Each makes its inputs from the seed,
// drives them through the library calls the hcsim command makes, checks
// the simulated outputs, and reports one measured pass at a time.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "util/json.hpp"

namespace perfbench {

/// One simulated output of a pass. Exact entries (counts) must match the
/// reference bit for bit; the rest (goodput, simulated time) within the
/// oracle's 2% golden tolerance.
struct DigestEntry {
  std::string name;
  double value = 0.0;
  bool exact = true;
};

/// What one measured pass produced. A pass is made of units of work that
/// every pass repeats in the same order (a site's runSweep call, a scale
/// run, a drill), so a unit's time can be compared across passes.
struct Pass {
  std::vector<double> unitSec;   ///< per unit; they add up to the pass's wall time
  std::vector<double> trialSec;  ///< per trial (timed sweep trial, scale run, drill), fixed order
  std::uint64_t attempted = 0;   ///< trials or ops attempted
  std::uint64_t failed = 0;
  std::vector<DigestEntry> digest;
  std::vector<std::string> problems;  ///< violated output invariants

  double wallSec() const {
    double sum = 0.0;
    for (double s : unitSec) sum += s;
    return sum;
  }
};

enum class Size { Full, Smoke };

class Workload {
 public:
  virtual ~Workload() = default;

  /// The generated inputs' parameters, recorded with every result.
  virtual hcsim::JsonValue params() const = 0;

  /// How many times set-up alone is timed before each measured pass.
  virtual std::size_t setupRepeats() const = 0;

  /// Everything before the first simulated event (spec parse and
  /// validation, trial expansion, environment construction), built and
  /// thrown away.
  virtual void setup() = 0;

  /// One measured pass. A non-null probe makes it the traced pass.
  virtual Pass run(Probe* probe) = 0;
};

/// nullptr for an unknown name. `dataDir` holds the benchmark's own input
/// files (perfbench/specs).
std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed, Size size,
                                       const std::string& dataDir);

}  // namespace perfbench
