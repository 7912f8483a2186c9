#!/usr/bin/env bash
# Build everything, run the full test suite, then regenerate every figure
# of the paper from its sweep spec (examples/specs/paper/*.json), the
# section-VII takeaways over fig2a/fig2b, every study (the ablations and
# the application suite, examples/specs/studies/*.json) and the remaining
# table and extension benches, teeing the outputs the repo's docs
# reference. Each figure's CSV lands in build/paper/, each study's in
# build/studies/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j

ctest --test-dir build --timeout 300 2>&1 | tee test_output.txt

mkdir -p build/paper build/studies
{
  for spec in examples/specs/paper/*.json; do
    name="$(basename "$spec" .json)"
    echo "===== $name ====="
    build/src/hcsim sweep --spec "$spec" --csv "build/paper/$name.csv"
    echo
  done
  echo "===== takeaways ====="
  build/src/hcsim takeaways
  echo
  for spec in examples/specs/studies/*.json; do
    name="$(basename "$spec" .json)"
    echo "===== study: $name ====="
    build/src/hcsim sweep --spec "$spec" --csv "build/studies/$name.csv"
    echo
  done
  for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
      echo "===== $(basename "$b") ====="
      "$b"
      echo
    fi
  done
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt, bench_output.txt, build/paper/*.csv, build/studies/*.csv"
