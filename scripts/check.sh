#!/usr/bin/env bash
# Release-build gate: configure + build EVERYTHING (library, tests,
# benches, examples — a bench that fails to compile fails this script),
# run the full test suite, then smoke-test the sweep engine, the trial
# cache (byte-identity cold/warm), the strict config reader (a
# misspelled key or an out-of-range knob fails every trial by name, a
# spec nested past the JSON depth limit exits 2), the regression oracle, the
# telemetry layer (jobs-determinism with --telemetry on, strip-identity
# against the telemetry-off JSONL, and gateway attribution via `trace
# --internal`), the chaos layer (fault-drill run-twice byte-identity,
# chaos-sweep jobs independence, empty-schedule zero-cost identity
# against the plain fig2 JSONL), the probe layer (satisfied-monitor
# byte-identity, breach exit + table, flight-recorder dump determinism
# for a wrapped ring and for one that never fills),
# the transport/DAOS layer (calibrated endpoint sweeps, run-twice and
# jobs-count byte-identity), and the perf gate: bench_engine, workload,
# scale, probe and transport run through bench/perf_harness.hpp, which
# times each scenario in 10 rounds against a calibration kernel run
# between its calls, and fails when the median scenario/kernel ratio
# falls more than 30% below the one committed in BENCH_*.json, or when
# the flight recorder costs more than 3% (HCSIM_CHECK_PERF=0 to skip,
# HCSIM_PERF_MAX_REGRESS to widen). A second profile repeats the
# tests and an oracle smoke run under ASan+UBSan with sanitizers fatal;
# export HCSIM_CHECK_SANITIZE=0 to skip it. HCSIM_CHECK_TSAN=1 adds a
# ThreadSanitizer pass over the probe + telemetry test binaries.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${HCSIM_CHECK_BUILD_DIR:-$ROOT/build-check}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j"$JOBS"

ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

# Sweep smoke: the fig2 grid must complete, emit parseable JSONL/CSV,
# and be independent of the job count.
OUT="$BUILD/check-sweep"
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/fig2.json" --jobs 8 \
    --out "$OUT-8.jsonl" --csv "$OUT-8.csv" >/dev/null
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/fig2.json" --jobs 1 \
    --out "$OUT-1.jsonl" >/dev/null
cmp "$OUT-8.jsonl" "$OUT-1.jsonl"
test "$(wc -l < "$OUT-8.jsonl")" -ge 24
grep -q '"ok":true' "$OUT-8.jsonl"
head -1 "$OUT-8.csv" | grep -q '^trial,'

# Strict-config gate: a misspelled "ior" key must not run as a flat,
# plausible curve. Every trial fails without running, its JSONL error
# names the dotted key, and `hcsim sweep` exits 1 (every trial failed).
sed 's/"segments": 400,/"segments": 400, "segmentz": 400,/' \
    "$ROOT/examples/specs/fig2.json" > "$BUILD/check-fig2-typo.json"
TYPO_RC=0
"$BUILD/src/hcsim" sweep --spec "$BUILD/check-fig2-typo.json" --jobs 8 \
    --out "$OUT-typo.jsonl" >/dev/null || TYPO_RC=$?
test "$TYPO_RC" -eq 1
test "$(wc -l < "$OUT-typo.jsonl")" -ge 24
test "$(grep -c '"error":"ior.segmentz: unknown key"' "$OUT-typo.jsonl")" \
    -eq "$(wc -l < "$OUT-typo.jsonl")"

# Range gate: a knob outside its field-list range fails every trial by
# name instead of running ("nconnect": 0 must not run as nconnect 1).
sed 's/"storageConfig": {/"storageConfig": { "nconnect": 0,/' \
    "$ROOT/examples/specs/chaos_sweep.json" > "$BUILD/check-chaos-nconnect0.json"
RANGE_RC=0
"$BUILD/src/hcsim" sweep --spec "$BUILD/check-chaos-nconnect0.json" --jobs 8 \
    --out "$OUT-nconnect0.jsonl" >/dev/null || RANGE_RC=$?
test "$RANGE_RC" -eq 1
test "$(wc -l < "$OUT-nconnect0.jsonl")" -eq 4
test "$(grep -c '"error":"storageConfig.nconnect: ' "$OUT-nconnect0.jsonl")" -eq 4

# Depth gate: a spec of 200k nested '[' is malformed JSON (exit 2), not a
# stack overflow.
head -c 200000 /dev/zero | tr '\0' '[' > "$BUILD/check-deep.json"
DEEP_RC=0
"$BUILD/src/hcsim" sweep --spec "$BUILD/check-deep.json" >/dev/null 2>&1 || DEEP_RC=$?
test "$DEEP_RC" -eq 2

# Trial-cache gate: a cached sweep must emit byte-identical JSONL to the
# uncached run above — cold (writing the cache) and warm (served from it).
CACHE="$BUILD/check-trial-cache.jsonl"
rm -f "$CACHE"
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/fig2.json" --jobs 8 \
    --cache "$CACHE" --out "$OUT-cache-cold.jsonl" >/dev/null
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/fig2.json" --jobs 3 \
    --cache "$CACHE" --out "$OUT-cache-warm.jsonl" > "$BUILD/check-sweep-warm.txt"
cmp "$OUT-8.jsonl" "$OUT-cache-cold.jsonl"
cmp "$OUT-8.jsonl" "$OUT-cache-warm.jsonl"
grep -q 'hit rate 100%' "$BUILD/check-sweep-warm.txt"

# Oracle gates: the metamorphic catalog must hold at full depth, and the
# check of the paper's artifacts (every spec under examples/specs/paper
# against its snapshot, plus the takeaways' paper bands) and of its
# ablation studies (examples/specs/studies) must pass AND be
# byte-identical whatever the job count — and whether or not a trial
# cache (cold or warm) served the sweeps.
"$BUILD/src/hcsim" oracle relations --cases 50 >/dev/null
OCACHE="$BUILD/check-oracle-cache.jsonl"
for specs in paper studies; do
  O="$BUILD/check-oracle-$specs"
  "$BUILD/src/hcsim" oracle check --dir "$ROOT/examples/specs/$specs" --jobs 8 > "$O-8.txt"
  "$BUILD/src/hcsim" oracle check --dir "$ROOT/examples/specs/$specs" --jobs 1 > "$O-1.txt"
  cmp "$O-8.txt" "$O-1.txt"
  rm -f "$OCACHE"
  "$BUILD/src/hcsim" oracle check --dir "$ROOT/examples/specs/$specs" --jobs 8 \
      --cache "$OCACHE" > "$O-cold.txt"
  "$BUILD/src/hcsim" oracle check --dir "$ROOT/examples/specs/$specs" --jobs 1 \
      --cache "$OCACHE" > "$O-warm.txt"
  cmp "$O-8.txt" "$O-cold.txt"
  cmp "$O-8.txt" "$O-warm.txt"
done

# Telemetry gates: with --telemetry the sweep must stay deterministic
# across job counts, emit per-trial "telemetry" blocks, and reduce to the
# telemetry-off JSONL byte-for-byte once those blocks are stripped. The
# oracle check must print the exact same report with telemetry on, and
# `hcsim trace --internal` on the VAST Lassen seq-read scale point must
# attribute the op time to the gateway link.
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/fig2.json" --telemetry \
    --jobs 8 --out "$OUT-tel-8.jsonl" --csv "$OUT-tel-8.csv" >/dev/null
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/fig2.json" --telemetry \
    --jobs 1 --out "$OUT-tel-1.jsonl" >/dev/null
cmp "$OUT-tel-8.jsonl" "$OUT-tel-1.jsonl"
grep -q '"telemetry":' "$OUT-tel-8.jsonl"
head -1 "$OUT-tel-8.csv" | grep -q ',dominantStage,'
sed 's/,"telemetry":{[^}]*}//' "$OUT-tel-8.jsonl" > "$OUT-tel-stripped.jsonl"
cmp "$OUT-8.jsonl" "$OUT-tel-stripped.jsonl"
"$BUILD/src/hcsim" oracle check --dir "$ROOT/examples/specs/paper" --jobs 8 \
    --telemetry > "$BUILD/check-oracle-tel.txt"
cmp "$BUILD/check-oracle-paper-8.txt" "$BUILD/check-oracle-tel.txt"
"$BUILD/src/hcsim" trace --site lassen --storage vast --access seq-read \
    --nodes 32 --ppn 8 --internal --out "$BUILD/check-trace.json" \
    > "$BUILD/check-trace.txt"
grep -q 'dominant stage: gw' "$BUILD/check-trace.txt"
grep -q '"cat":"internal"' "$BUILD/check-trace.json"

# Chaos gates: a scheduled fault drill must print a degradation-and-
# recovery timeline and emit byte-identical JSONL on repeated runs; a
# chaos-bearing sweep must be independent of the job count; and an EMPTY
# chaos section must cost nothing — its sweep JSONL is byte-identical to
# the same spec with no chaos section at all.
"$BUILD/src/hcsim" chaos "$ROOT/examples/specs/cnode_failover.json" \
    --out "$BUILD/check-chaos-a.jsonl" > "$BUILD/check-chaos.txt"
"$BUILD/src/hcsim" chaos "$ROOT/examples/specs/cnode_failover.json" \
    --out "$BUILD/check-chaos-b.jsonl" >/dev/null
cmp "$BUILD/check-chaos-a.jsonl" "$BUILD/check-chaos-b.jsonl"
grep -q 'DEGRADED' "$BUILD/check-chaos.txt"
grep -q 'recovered' "$BUILD/check-chaos.txt"
grep -q '"scenario":"cnode-failover"' "$BUILD/check-chaos-a.jsonl"
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/chaos_sweep.json" --jobs 8 \
    --out "$OUT-chaos-8.jsonl" >/dev/null
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/chaos_sweep.json" --jobs 1 \
    --out "$OUT-chaos-1.jsonl" >/dev/null
cmp "$OUT-chaos-8.jsonl" "$OUT-chaos-1.jsonl"
grep -q '"ok":true' "$OUT-chaos-8.jsonl"
sed 's/"base": {/"base": { "chaos": { "events": [] },/' \
    "$ROOT/examples/specs/fig2.json" > "$BUILD/check-fig2-emptychaos.json"
"$BUILD/src/hcsim" sweep --spec "$BUILD/check-fig2-emptychaos.json" --jobs 8 \
    --out "$OUT-emptychaos.jsonl" >/dev/null
cmp "$OUT-8.jsonl" "$OUT-emptychaos.jsonl"

# Workload gates: the generator specs must run twice byte-identically
# through the CLI (grammar and openloop cover closed- and open-loop
# paths), report the opLatency contract in their summary record, and the
# "workload" sweep trial type must be independent of the job count.
for spec in grammar_burst openloop_zipf; do
  "$BUILD/src/hcsim" workload "$ROOT/examples/specs/$spec.json" \
      --out "$BUILD/check-workload-$spec-a.jsonl" \
      > "$BUILD/check-workload-$spec.txt"
  "$BUILD/src/hcsim" workload "$ROOT/examples/specs/$spec.json" \
      --out "$BUILD/check-workload-$spec-b.jsonl" >/dev/null
  cmp "$BUILD/check-workload-$spec-a.jsonl" "$BUILD/check-workload-$spec-b.jsonl"
  grep -q '"type":"summary"' "$BUILD/check-workload-$spec-a.jsonl"
  grep -q '"opLatency"' "$BUILD/check-workload-$spec-a.jsonl"
done
grep -q 'goodput' "$BUILD/check-workload-openloop_zipf.txt"
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/workload_sweep.json" --jobs 8 \
    --out "$OUT-workload-8.jsonl" >/dev/null
"$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/workload_sweep.json" --jobs 1 \
    --out "$OUT-workload-1.jsonl" >/dev/null
cmp "$OUT-workload-8.jsonl" "$OUT-workload-1.jsonl"
grep -q '"ok":true' "$OUT-workload-8.jsonl"

# Transport + DAOS gates (hcsim::transport / hcsim::daos): the two
# calibrated endpoint sweeps — daos_ior spans the RDMA-vs-TCP endpoint
# classes, transport_nconnect the TCP lane scaling — must complete with
# every trial ok, carry per-trial "transport" telemetry, and stay
# byte-identical across repeated runs and job counts (a "transport"
# section must not perturb determinism).
for spec in daos_ior transport_nconnect; do
  "$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/$spec.json" --jobs 8 \
      --out "$OUT-$spec-8.jsonl" >/dev/null
  "$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/$spec.json" --jobs 1 \
      --out "$OUT-$spec-1.jsonl" >/dev/null
  cmp "$OUT-$spec-8.jsonl" "$OUT-$spec-1.jsonl"
  "$BUILD/src/hcsim" sweep --spec "$ROOT/examples/specs/$spec.json" --jobs 8 \
      --out "$OUT-$spec-rerun.jsonl" >/dev/null
  cmp "$OUT-$spec-8.jsonl" "$OUT-$spec-rerun.jsonl"
  grep -q '"ok":true' "$OUT-$spec-8.jsonl"
  grep -q '"transport":' "$OUT-$spec-8.jsonl"
done

# Scale gates (hcsim::scale): the flow-class demo must emit byte-identical
# JSONL on repeated runs, and a 1,000,000-client open-loop run must
# complete under a hard address-space ceiling — the memory-flat-in-members
# contract enforced in-kernel (the run peaks under 10 MB RSS; 256 MB of
# address space leaves room for allocator/runtime overhead only, never
# for per-client state).
"$BUILD/src/hcsim" scale --clients 100000 --classes 64 --horizon 2 \
    --out "$BUILD/check-scale-a.jsonl" > "$BUILD/check-scale.txt"
"$BUILD/src/hcsim" scale --clients 100000 --classes 64 --horizon 2 \
    --out "$BUILD/check-scale-b.jsonl" >/dev/null
cmp "$BUILD/check-scale-a.jsonl" "$BUILD/check-scale-b.jsonl"
grep -q '"classes":64' "$BUILD/check-scale-a.jsonl"
grep -q 'flat in members' "$BUILD/check-scale.txt"
( ulimit -v 262144; "$BUILD/src/hcsim" scale > "$BUILD/check-scale-1m.txt" )
grep -q '^scale: 1000192 clients as 256 flow classes' "$BUILD/check-scale-1m.txt"

# Probe gates (hcsim::probe): a chaos run with every monitor satisfied
# must emit byte-identical JSONL to the same scenario with no monitors
# at all; tightening the recovery deadline below the observed recovery
# must exit 3 and print the breach table; and --dump-on-exit must write
# byte-identical flight-recorder dumps on repeated runs.
"$BUILD/src/hcsim" chaos "$ROOT/examples/specs/cnode_failover_slo.json" \
    --out "$BUILD/check-probe-slo.jsonl" > "$BUILD/check-probe-slo.txt"
cmp "$BUILD/check-chaos-a.jsonl" "$BUILD/check-probe-slo.jsonl"
grep -q 'monitors: 3 evaluated, 0 breach(es)' "$BUILD/check-probe-slo.txt"
sed 's/"max": 10.0/"max": 2.0/' "$ROOT/examples/specs/cnode_failover_slo.json" \
    > "$BUILD/check-probe-tight.json"
if "$BUILD/src/hcsim" chaos "$BUILD/check-probe-tight.json" \
    > "$BUILD/check-probe-tight.txt"; then
  echo "check.sh: tightened recovery monitor did not fail the run" >&2
  exit 1
fi
grep -q 'SLO breaches:' "$BUILD/check-probe-tight.txt"
grep -q 'recovery-deadline' "$BUILD/check-probe-tight.txt"
"$BUILD/src/hcsim" chaos "$ROOT/examples/specs/cnode_failover.json" \
    --dump-on-exit "$BUILD/check-probe-dump-a" >/dev/null
"$BUILD/src/hcsim" chaos "$ROOT/examples/specs/cnode_failover.json" \
    --dump-on-exit "$BUILD/check-probe-dump-b" >/dev/null
cmp "$BUILD/check-probe-dump-a.jsonl" "$BUILD/check-probe-dump-b.jsonl"
cmp "$BUILD/check-probe-dump-a.trace.json" "$BUILD/check-probe-dump-b.trace.json"
# The drill above fills and wraps the whole ring; grammar_burst writes
# ~1.2k records, so its ring keeps slots that were never written (the
# ring is not zeroed). A dump that read one would differ between runs or
# carry a record of no known kind.
"$BUILD/src/hcsim" workload "$ROOT/examples/specs/grammar_burst.json" \
    --dump-on-exit "$BUILD/check-probe-partial-a" >/dev/null
"$BUILD/src/hcsim" workload "$ROOT/examples/specs/grammar_burst.json" \
    --dump-on-exit "$BUILD/check-probe-partial-b" >/dev/null
cmp "$BUILD/check-probe-partial-a.jsonl" "$BUILD/check-probe-partial-b.jsonl"
cmp "$BUILD/check-probe-partial-a.trace.json" "$BUILD/check-probe-partial-b.trace.json"
if grep -q '"kind":"unknown"' "$BUILD/check-probe-partial-a.jsonl"; then
  echo "check.sh: flight-recorder dump read an unwritten ring slot" >&2
  exit 1
fi

# Perf gate: every scenario's rate, as a ratio to the calibration kernel
# timed in the same rounds, must stay within tolerance of the ratio
# committed in its BENCH_*.json (docs/ENGINE.md). The ratios are
# Release ratios: a reference from another build type exits 2.
# Telemetry and the watchdog are off in the engine scenarios, so
# bench_engine doubles as the zero-cost floor for those hooks, and
# bench_probe prices the always-on flight recorder (recorder-on vs
# recorder-off budget enforced in-binary). Export HCSIM_CHECK_PERF=0 to
# skip, or widen the tolerance with HCSIM_PERF_MAX_REGRESS (fraction,
# default 0.30).
run_perf_gate() {
  local bench="$1" baseline="$2"
  shift 2
  "$BUILD/bench/$bench" \
      --hcsim_json "$BUILD/check-$bench.json" \
      --hcsim_compare "$baseline" \
      --hcsim_max_regress "${HCSIM_PERF_MAX_REGRESS:-0.30}" "$@" > /dev/null
}
if [ "${HCSIM_CHECK_PERF:-1}" != "0" ]; then
  run_perf_gate bench_engine "$ROOT/BENCH_engine.json" \
      --hcsim_golden_dir "$ROOT/examples/specs/paper"
  run_perf_gate bench_workload "$ROOT/BENCH_workload.json"
  run_perf_gate bench_scale "$ROOT/BENCH_scale.json"
  run_perf_gate bench_probe "$ROOT/BENCH_probe.json"
  run_perf_gate bench_transport "$ROOT/BENCH_transport.json"
fi

# ASan+UBSan profile: rebuild the library + tests with sanitizers fatal
# and re-run the full suite plus an oracle smoke. Benches/examples are
# skipped (nothing new to catch there, halves the build).
if [ "${HCSIM_CHECK_SANITIZE:-1}" != "0" ]; then
  SAN_BUILD="${HCSIM_CHECK_ASAN_BUILD_DIR:-$ROOT/build-check-asan}"
  cmake -S "$ROOT" -B "$SAN_BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DHCSIM_BUILD_BENCH=OFF -DHCSIM_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
  cmake --build "$SAN_BUILD" -j"$JOBS"
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  ctest --test-dir "$SAN_BUILD" --output-on-failure -j"$JOBS"
  "$SAN_BUILD/src/hcsim" oracle relations --cases 5 >/dev/null
  "$SAN_BUILD/src/hcsim" oracle check --dir "$ROOT/examples/specs/paper" >/dev/null
fi

# TSan profile (opt-in: HCSIM_CHECK_TSAN=1): rebuild with ThreadSanitizer
# and run the probe + telemetry test binaries — the two layers whose
# hooks ride inside the multi-threaded sweep executor.
if [ "${HCSIM_CHECK_TSAN:-0}" = "1" ]; then
  TSAN_BUILD="${HCSIM_CHECK_TSAN_BUILD_DIR:-$ROOT/build-check-tsan}"
  cmake -S "$ROOT" -B "$TSAN_BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DHCSIM_BUILD_BENCH=OFF -DHCSIM_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread"
  cmake --build "$TSAN_BUILD" -j"$JOBS" --target test_probe test_telemetry
  TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD/tests/test_probe"
  TSAN_OPTIONS=halt_on_error=1 "$TSAN_BUILD/tests/test_telemetry"
fi

echo "check.sh: OK"
