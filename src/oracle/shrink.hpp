#pragma once
// Counterexample shrinking for failed metamorphic cases.
//
// A monotonicity violation is first observed between two axis values
// that may be far apart ("bandwidth dropped somewhere between 1 and 8
// stripes"). bisectAxis narrows the interval to the tightest pair that
// still violates, so the report names the exact cliff — the minimal
// failing config — instead of the whole span.

#include <cstddef>
#include <functional>
#include <string>

#include "util/json.hpp"

namespace hcsim::oracle {

struct ShrinkResult {
  std::string axis;
  double lo = 0.0;  ///< tightest still-failing pair: metric drops lo -> hi
  double hi = 0.0;  ///< (in axis order, so lo > hi on a descending axis)
  std::size_t probes = 0;       ///< pairFails evaluations spent
  bool spanning = false;        ///< violation needs the full [lo, hi] span
  JsonValue minimalConfig;      ///< base with axis at `hi` (the dropped side)
  std::string summary;          ///< one-line human report
};

/// Predicate: does the relation still fail between axis values (lo, hi)?
using PairFails = std::function<bool(double lo, double hi)>;

/// Bisect the failing interval [lo, hi] of a numeric axis, ascending or
/// descending. When neither half fails on its own the violation only
/// manifests across the whole span; that is reported rather than looped
/// on. Integer axes stop at adjacent values, real axes after maxSteps
/// halvings.
ShrinkResult bisectAxis(const JsonValue& base, const std::string& axis, double lo, double hi,
                        bool integerAxis, const PairFails& pairFails, std::size_t maxSteps = 12);

}  // namespace hcsim::oracle
