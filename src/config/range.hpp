#pragma once
// The valid values of a config field, stated once as the last argument
// of its field-list entry (config/fields.hpp):
//
//   io("cnodes", c.cnodes, kCount);
//
// One range per kind of quantity, so a knob's range follows from what
// it measures rather than from a per-field check.

#include <cmath>

namespace hcsim {

/// The values a field accepts and the phrase a value outside them fails
/// with. The default range accepts every value.
struct Range {
  bool (*test)(double) = nullptr;
  const char* rule = nullptr;

  bool holds(double v) const { return test == nullptr || test(v); }
};

/// Whole counts of things: nodes, servers, lanes, repetitions.
inline constexpr Range kCount{[](double v) { return v >= 1 && v == std::floor(v); },
                              "must be a positive integer"};
/// Whole counts that may be zero: retries.
inline constexpr Range kWhole{[](double v) { return v >= 0 && v == std::floor(v); },
                              "must be a non-negative integer"};
/// Byte sizes (a fraction truncates, and must stay > 0), bandwidths,
/// rates and spans of time that must pass.
inline constexpr Range kPositive{[](double v) { return v > 0; }, "must be > 0"};
/// Latencies, delays, spreads and penalties.
inline constexpr Range kNonNegative{[](double v) { return v >= 0; }, "must be >= 0"};
/// Multipliers and batching factors.
inline constexpr Range kAtLeastOne{[](double v) { return v >= 1; }, "must be >= 1"};
/// Shares and probabilities.
inline constexpr Range kFraction{[](double v) { return v >= 0 && v <= 1; }, "must be in [0, 1]"};
/// A share of bytes removed (data reduction, parity): all of them would
/// leave nothing to store.
inline constexpr Range kProperFraction{[](double v) { return v >= 0 && v < 1; },
                                       "must be in [0, 1)"};
/// A share of a rate kept: none of it would stall every op.
inline constexpr Range kEfficiency{[](double v) { return v > 0 && v <= 1; },
                                   "must be in (0, 1]"};

}  // namespace hcsim
