#include "lustre/lustre_config.hpp"

#include <stdexcept>

namespace hcsim {

void LustreConfig::validate() const {
  if (mdsCount == 0) throw std::invalid_argument("LustreConfig: mdsCount must be > 0");
  if (ossCount == 0) throw std::invalid_argument("LustreConfig: ossCount must be > 0");
  if (spindlesPerOss == 0) throw std::invalid_argument("LustreConfig: spindlesPerOss must be > 0");
  if (stripeCount == 0) throw std::invalid_argument("LustreConfig: stripeCount must be > 0");
  if (ossBandwidth <= 0.0 || clientCap <= 0.0) {
    throw std::invalid_argument("LustreConfig: bandwidths must be > 0");
  }
  if (raidz2Overhead < 0.0 || raidz2Overhead >= 1.0) {
    throw std::invalid_argument("LustreConfig: raidz2Overhead must be in [0,1)");
  }
}

LustreConfig LustreConfig::lcInstance() {
  return LustreConfig{};  // defaults describe the LC instance
}

}  // namespace hcsim
