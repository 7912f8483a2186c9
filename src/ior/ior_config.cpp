#include "ior/ior_config.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "config/fields.hpp"

namespace hcsim {

const char* toString(IorConfig::Mode m) {
  switch (m) {
    case IorConfig::Mode::Coalesced: return "coalesced";
    case IorConfig::Mode::PerOp: return "per-op";
  }
  return "?";
}

void IorConfig::validate() const {
  requireFields(*this, "IorConfig");
  if (blockSize % transferSize != 0) {
    throw std::invalid_argument("IorConfig: blockSize must be a multiple of transferSize");
  }
  if (stonewallSeconds > 0.0 && mode != Mode::PerOp) {
    throw std::invalid_argument("IorConfig: stonewalling requires Mode::PerOp");
  }
  // bytesPerProc(), totalProcs() and totalBytes() must not wrap; every
  // factor is >= 1 here, and transfersPerProc() <= bytesPerProc().
  const auto fits = [](std::uint64_t a, std::uint64_t b) {
    return a <= std::numeric_limits<std::uint64_t>::max() / b;
  };
  if (!fits(segments, blockSize) || !fits(nodes, procsPerNode) ||
      !fits(bytesPerProc(), totalProcs())) {
    throw std::invalid_argument(
        fieldError("IorConfig.segments", "must keep segments x blockSize x procs below 2^64 bytes",
                   JsonValue(static_cast<double>(segments))));
  }
}

std::string IorConfig::describe() const {
  std::ostringstream os;
  os << "ior -a POSIX " << (filePerProcess ? "-F " : "") << "-b " << blockSize << " -t "
     << transferSize << " -s " << segments << (fsyncPerWrite ? " -e" : "")
     << (reorderTasks ? " -C" : "") << " [" << toString(access) << ", " << nodes << "x"
     << procsPerNode << " procs]";
  return os.str();
}

IorConfig IorConfig::scalability(AccessPattern access, std::size_t nodes,
                                 std::size_t procsPerNode) {
  IorConfig c;
  c.access = access;
  c.blockSize = units::MiB;
  c.transferSize = units::MiB;
  c.segments = 3000;  // ~3 GiB/proc; 44 procs -> ~129 GiB/node ("~120 GB")
  c.nodes = nodes;
  c.procsPerNode = procsPerNode;
  c.mode = Mode::Coalesced;
  c.reorderTasks = true;
  return c;
}

IorConfig IorConfig::singleNodeFsync(AccessPattern access, std::size_t procs) {
  IorConfig c;
  c.access = access;
  c.blockSize = units::MiB;
  c.transferSize = units::MiB;
  c.segments = 256;  // 256 MiB per process keeps the per-op run tractable
  c.nodes = 1;
  c.procsPerNode = procs;
  c.fsyncPerWrite = !isRead(access);
  c.mode = Mode::PerOp;
  return c;
}

}  // namespace hcsim
