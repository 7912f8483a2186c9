#pragma once
// The hcsim CLI commands — thin, scriptable entry points over the
// library. `hcsim help` lists each command with its flags and their
// defaults, printed from the flag lists the commands read.

#include <iosfwd>

#include "cli/args.hpp"

namespace hcsim::cli {

/// Run `hcsim <command> ...`: the process exit code, with output on
/// `out` and errors on `err`, so tests can drive it without spawning
/// processes. 2 is a bad command line or spec, 1 a failed run.
int run(ArgParser args, std::ostream& out, std::ostream& err);

}  // namespace hcsim::cli
