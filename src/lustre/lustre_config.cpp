#include "lustre/lustre_config.hpp"

#include "config/fields.hpp"

namespace hcsim {

void LustreConfig::validate() const { requireFields(*this, "LustreConfig"); }

LustreConfig LustreConfig::lcInstance() {
  return LustreConfig{};  // defaults describe the LC instance
}

}  // namespace hcsim
