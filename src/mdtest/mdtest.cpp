#include "mdtest/mdtest.hpp"

#include <algorithm>
#include <stdexcept>

#include "config/fields.hpp"
#include "util/random.hpp"

namespace hcsim {

void MdtestConfig::validate() const { requireFields(*this, "MdtestConfig"); }

Seconds MdtestRunner::runPhase(const MdtestConfig& cfg, MetaOp op) {
  Simulator& sim = bench_.sim();
  const SimTime start = sim.now();
  SimTime lastEnd = start;
  std::size_t running = cfg.totalProcs();

  // Each process is a sequential chain of metadata ops.
  struct Proc {
    MdtestRunner* self;
    const MdtestConfig* cfg;
    ClientId client;
    MetaOp op;
    std::uint64_t rank;
    std::size_t remaining;
    SimTime* lastEnd;
    std::size_t* running;

    void next() {
      MetaRequest req;
      req.client = client;
      req.op = op;
      // Item id: rank-major so unique-dir routing spreads by rank.
      req.fileId = cfg->uniqueDirPerTask ? rank : rank * cfg->itemsPerProc + remaining;
      req.sharedDirectory = !cfg->uniqueDirPerTask;
      self->fs_.submitMeta(req, [this](const IoResult& r) {
        *lastEnd = std::max(*lastEnd, r.endTime);
        if (--remaining > 0) {
          next();
        } else {
          --*running;
        }
      });
    }
  };

  std::vector<std::unique_ptr<Proc>> procs;
  procs.reserve(cfg.totalProcs());
  for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
    for (std::uint32_t p = 0; p < cfg.procsPerNode; ++p) {
      auto proc = std::make_unique<Proc>();
      proc->self = this;
      proc->cfg = &cfg;
      proc->client = ClientId{n, p};
      proc->op = op;
      proc->rank = static_cast<std::uint64_t>(n) * cfg.procsPerNode + p;
      proc->remaining = cfg.itemsPerProc;
      proc->lastEnd = &lastEnd;
      proc->running = &running;
      procs.push_back(std::move(proc));
    }
  }
  for (auto& proc : procs) proc->next();
  sim.run();
  if (running != 0) throw std::logic_error("MdtestRunner: phase drained with live processes");
  return lastEnd - start;
}

MdtestResult MdtestRunner::run(const MdtestConfig& cfg) {
  cfg.validate();
  if (cfg.nodes > bench_.nodesUsed()) {
    throw std::invalid_argument("MdtestRunner: config uses more nodes than the TestBench wired");
  }
  MdtestResult result;
  result.totalItems = cfg.totalItems();
  Rng noise(cfg.seed);

  std::vector<double> create, stat, remove;
  for (std::size_t rep = 0; rep < cfg.repetitions; ++rep) {
    for (MetaOp op : {MetaOp::Create, MetaOp::Stat, MetaOp::Remove}) {
      Seconds elapsed = runPhase(cfg, op);
      if (cfg.noiseStdDevFrac > 0.0 && cfg.repetitions > 1) {
        elapsed *= noise.normalAtLeast(1.0, cfg.noiseStdDevFrac, 0.2);
      }
      const double ops = static_cast<double>(cfg.totalItems()) / elapsed;
      (op == MetaOp::Create ? create : op == MetaOp::Stat ? stat : remove).push_back(ops);
    }
  }
  result.createOpsPerSec = summarize(create);
  result.statOpsPerSec = summarize(stat);
  result.removeOpsPerSec = summarize(remove);
  return result;
}

}  // namespace hcsim
