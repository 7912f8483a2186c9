#include "daos/daos_config.hpp"

#include <stdexcept>

#include "config/fields.hpp"

namespace hcsim {

void DaosConfig::validate() const {
  requireFields(*this, "DaosConfig");
  if (redundancyGroupSize > totalTargets()) {
    throw std::invalid_argument("DaosConfig: redundancyGroupSize must be <= totalTargets()");
  }
}

DaosConfig DaosConfig::instance() { return DaosConfig{}; }

}  // namespace hcsim
