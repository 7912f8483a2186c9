#include "oracle/shrink.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sweep/sweep_spec.hpp"

namespace hcsim::oracle {

ShrinkResult bisectAxis(const JsonValue& base, const std::string& axis, double lo, double hi,
                        bool integerAxis, const PairFails& pairFails, std::size_t maxSteps) {
  ShrinkResult r;
  r.axis = axis;
  r.lo = lo;
  r.hi = hi;
  for (std::size_t step = 0; step < maxSteps; ++step) {
    if (integerAxis && std::abs(r.hi - r.lo) <= 1.0) break;
    double mid = (r.lo + r.hi) / 2.0;
    if (integerAxis) mid = std::floor(mid);
    if (!(std::min(r.lo, r.hi) < mid && mid < std::max(r.lo, r.hi))) break;
    ++r.probes;
    if (pairFails(r.lo, mid)) {
      r.hi = mid;
      continue;
    }
    ++r.probes;
    if (pairFails(mid, r.hi)) {
      r.lo = mid;
      continue;
    }
    // Neither half fails alone: the drop only shows across the span.
    r.spanning = true;
    break;
  }
  r.minimalConfig = sweep::deepCopy(base);
  sweep::jsonPathSet(r.minimalConfig, axis, JsonValue(r.hi));
  std::ostringstream os;
  os << "axis '" << axis << "' shrunk to " << (r.spanning ? "spanning interval [" : "[") << r.lo
     << ", " << r.hi << "] (" << r.probes << " probes); minimal failing config: "
     << writeJson(r.minimalConfig);
  r.summary = os.str();
  return r;
}

}  // namespace hcsim::oracle
