#include "gpfs/gpfs_config.hpp"

#include "config/fields.hpp"

namespace hcsim {

void GpfsConfig::validate() const { requireFields(*this, "GpfsConfig"); }

GpfsConfig GpfsConfig::lassen() {
  return GpfsConfig{};  // defaults describe the Lassen instance
}

}  // namespace hcsim
