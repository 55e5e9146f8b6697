#!/usr/bin/env bash
# CI entry point: the default (tier-1) build-and-test leg, followed
# by an optional ThreadSanitizer leg over the thread-crossing suites.
#
#   scripts/ci.sh          # tier-1: full build + full ctest +
#                          # examples and vaqc explain/sens smokes +
#                          # the unreached-function check
#   scripts/ci.sh --tsan   # also run the -DVAQ_SANITIZE=thread leg
#   scripts/ci.sh --asan   # also run the address+UB (with
#                          # float-cast-overflow) sanitizer leg
#   scripts/ci.sh --tidy   # also gate on scripts/lint.sh
#                          # (clang-tidy over the default dirs)
#
# The default ctest run includes every label (robustness, parallel,
# analysis, store, router, obs, sim, fleet, ...). The `parallel`
# label then runs again with `ctest --repeat until-fail:5`: each
# test runs up to five times and stops at its first failure (nothing
# is retried until it passes), any failure fails CI, and each failed
# run's output is kept as build/flake-logs/<test>.log. The 5
# examples and the 17 paper benches (fig*, table*, ablation*,
# extension*) then run once each: every one must exit 0 and print
# exactly its recorded stdout in tests/golden/stdout/<name>.stdout,
# so a refactor that moves any printed number fails CI. Two vaqc
# smokes run the views of the loss decomposition end to end: `--explain` must print "PST estimate"
# and `vaqc sens` must print "log-PST". A vaqc --batch differential
# compiles the service fixtures once with shared calibration
# contexts (the default) and once with a private context per compile
# (--no-path-cache); the job tables must be byte-identical. A vaqc
# Monte-Carlo golden runs the same fixtures on IBM-Q20 with an
# adaptive PST target through both trial runs (Bernoulli and
# outcome-checked) at 1 and at 4 threads; both outputs must equal
# tests/sim/golden/vaqc_q20_adaptive.golden. A fleet
# golden runs `vaqfleet --fingerprint` under rate-5 chaos (seed 11,
# 400 jobs), whose quarantine events send many compiles through the
# healthy-region path, at 1 and at 4 threads; both outputs must equal
# tests/fleet/golden/chaos_rate5_seed11.fingerprint. perf_sens
# replays the artifact store under its --staleness-tol sweep at seed
# 7: its exit code is its acceptance gate, and its count columns
# (tol, lookups, exact, delta, bound, recompile, hit-rate; no
# timings) must equal tests/store/golden/perf_sens_seed7.counts.
# Six perf_* benches run as exit-0 smokes: perf_frame's frame-reference construction,
# perf_frame's width-27 Pauli-frame trials (the fault-table trial
# kernel), perf_simulator's 1M-trial, 4-thread Bernoulli
# fault-injection run (the threshold trial kernel), perf_compiler's
# QASM parse/write cases (the wire codec), perf_compiler's
# vqa+vqm portfolio compiles (placements x routes) and
# perf_compiler's three vqa+vqm strength placements at widths 5, 12
# and 20 (the connected-region search). scripts/unreached.sh then
# rebuilds the shipped binaries into build-unreached/ (-O0, one
# section per function, --gc-sections) and fails when a library
# function that no binary reaches is missing from
# scripts/unreached.allow, or when a listed one is reached or gone
# (about 50 s clean on 4 cores). The TSan leg
# rebuilds into build-tsan/ and runs only
# `-L "parallel|analysis|store|sim|service|fleet"`
# — the tests that exercise the thread pool, calibration contexts
# shared across threads and rollovers,
# the batch fault paths, the lint determinism checks, the shared
# artifact store, and the Pauli-frame cross-validation suite (whose
# per-trial frame-vs-dense bit-exactness and thread-count invariance
# are asserted under TSan) — because the full suite under TSan is
# too slow for a gate. The ASan leg rebuilds into build-asan/ with
# -DVAQ_SANITIZE=address,undefined,float-cast-overflow (GCC's
# `undefined` group leaves out float-cast-overflow, the check that
# catches an out-of-range double-to-integer conversion of untrusted
# JSON numbers) and runs the full suite, then re-selects the
# `store`, `sim` and `mutation` labels so the record parser's
# corruption-tolerance sweeps, the simulator cross-validation and
# the seeded QASM / calibration-CSV / artifact-record / FaultPlan
# JSON mutation corpora are provably part of that leg.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
PARALLEL_REPEAT=5
RUN_TSAN=0
RUN_ASAN=0
RUN_TIDY=0
for arg in "$@"; do
    case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --asan) RUN_ASAN=1 ;;
    --tidy) RUN_TIDY=1 ;;
    *)
        echo "usage: scripts/ci.sh [--tsan] [--asan] [--tidy]" >&2
        exit 2
        ;;
    esac
done

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [ "$RUN_TIDY" -eq 1 ]; then
    echo "== tidy leg: scripts/lint.sh over the default dirs =="
    # Gating: clang-tidy findings (profile .clang-tidy, including
    # the WarningsAsErrors hard gates) fail CI. lint.sh exits 0
    # with a clear message when clang-tidy is not installed, so
    # environments without it skip rather than fail.
    scripts/lint.sh
fi

echo "== tier-1: full test suite (all labels) =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tier-1: parallel label repeat (until-fail:$PARALLEL_REPEAT, logs kept) =="
# Thread-crossing flakes show up once in many runs, and a plain rerun
# loses the failing run's output. Run every `parallel` test up to
# $PARALLEL_REPEAT times, stopping a test at its first failure (a
# failing test is never retried until it passes), and copy each
# failed run's output from ctest's LastTest.log into
# build/flake-logs/<test>.log. Any failure fails CI.
FLAKE_LOGS=build/flake-logs
rm -rf "$FLAKE_LOGS"
PARALLEL_STATUS=0
ctest --test-dir build -L parallel --repeat "until-fail:$PARALLEL_REPEAT" \
    --output-on-failure -j "$JOBS" || PARALLEL_STATUS=$?
if [ "$PARALLEL_STATUS" -ne 0 ]; then
    mkdir -p "$FLAKE_LOGS"
    awk -v dir="$FLAKE_LOGS" '
        /^[0-9]+\/[0-9]+ Testing: / {
            name = substr($0, index($0, ": ") + 2)
            block = ""
            passed = 0
        }
        { block = block $0 "\n" }
        /^Test Passed\./ { passed = 1 }
        name != "" && index($0, "\"" name "\" time elapsed:") == 1 {
            if (!passed) {
                file = name
                gsub(/[^A-Za-z0-9_.-]/, "_", file)
                printf "%s", block >> (dir "/" file ".log")
            }
            name = ""
        }' build/Testing/Temporary/LastTest.log
    echo "ci: parallel label failed under repeat; failed runs' logs:" >&2
    ls "$FLAKE_LOGS" >&2
    exit 1
fi

echo "== tier-1: examples and paper benches stdout goldens =="
# The examples are the documented front doors of the library and the
# paper benches print its figures and tables; all are deterministic.
# Each must exit 0 and print exactly its golden. Every binary needs a
# golden and every golden a binary. Re-record only for an intended
# change: build/<examples|bench>/<name> >tests/golden/stdout/<name>.stdout
STDOUT_GOLDENS=tests/golden/stdout
STDOUT_ACTUAL="$(mktemp)"
STDOUT_CHECKED=0
for binary in build/examples/* build/bench/fig* build/bench/table* \
    build/bench/ablation* build/bench/extension*; do
    [ -f "$binary" ] && [ -x "$binary" ] || continue
    name="$(basename "$binary")"
    golden="$STDOUT_GOLDENS/$name.stdout"
    [ -f "$golden" ] || {
        echo "ci: $name has no stdout golden ($golden)" >&2
        exit 1
    }
    "$binary" >"$STDOUT_ACTUAL" || {
        echo "ci: $name failed" >&2
        exit 1
    }
    diff -u "$golden" "$STDOUT_ACTUAL" >&2 || {
        echo "ci: $name stdout differs from $golden" >&2
        exit 1
    }
    STDOUT_CHECKED=$((STDOUT_CHECKED + 1))
done
rm -f "$STDOUT_ACTUAL"
STDOUT_GOLDEN_COUNT="$(find "$STDOUT_GOLDENS" -name '*.stdout' | wc -l)"
[ "$STDOUT_CHECKED" -eq "$STDOUT_GOLDEN_COUNT" ] || {
    echo "ci: checked $STDOUT_CHECKED binaries but" \
        "$STDOUT_GOLDENS holds $STDOUT_GOLDEN_COUNT goldens" >&2
    exit 1
}
echo "ci: $STDOUT_CHECKED stdout goldens matched"

echo "== tier-1: vaqc --explain and vaqc sens smokes (exit 0) =="
# Both read the circuit's SensitivityProfile; each must exit 0 and
# print its headline line.
EXPLAIN_OUT="$(build/tools/vaqc --qasm tests/service/fixtures/bv4.qasm \
    --machine q5 --policy vqa+vqm --synthetic-seed 7 --explain)"
grep -q 'PST estimate' <<<"$EXPLAIN_OUT" || {
    echo "ci: vaqc --explain printed no PST estimate" >&2
    exit 1
}
SENS_OUT="$(build/tools/vaqc sens tests/service/fixtures/qft5.qasm \
    --machine q20 --policy vqa+vqm --synthetic-seed 7 --drift-cycles 0)"
grep -q 'log-PST' <<<"$SENS_OUT" || {
    echo "ci: vaqc sens printed no log-PST" >&2
    exit 1
}
echo "ci: vaqc explain/sens smokes passed"

echo "== tier-1: vaqc --batch shared vs private context differential =="
# One calibration context per snapshot must compile exactly what a
# private context per compile does. Only the timing and table-counter
# lines may differ.
BATCH_ARGS=(--batch --machine q20 --batch-cycles 3)
for program in tests/service/fixtures/*.qasm; do
    BATCH_ARGS+=(--qasm "$program")
done
SHARED_OUT="$(build/tools/vaqc "${BATCH_ARGS[@]}" |
    grep -v -e '^elapsed ' -e '^caches ')"
PRIVATE_OUT="$(build/tools/vaqc "${BATCH_ARGS[@]}" --no-path-cache |
    grep -v -e '^elapsed ' -e '^caches ')"
grep -q '^jobs ' <<<"$SHARED_OUT" || {
    echo "ci: vaqc --batch printed no job summary" >&2
    exit 1
}
[ "$SHARED_OUT" = "$PRIVATE_OUT" ] || {
    echo "ci: shared and private calibration contexts disagree:" >&2
    diff <(echo "$SHARED_OUT") <(echo "$PRIVATE_OUT") >&2
    exit 1
}
echo "ci: vaqc --batch context differential passed"

echo "== tier-1: vaqc adaptive Monte-Carlo golden (threads 1 and 4) =="
# Each fixture's Bernoulli and outcome-checked PST lines, including
# the trial counts at which the adaptive target stops them, must
# equal the recorded golden at any thread count.
SIM_GOLDEN=tests/sim/golden/vaqc_q20_adaptive.golden
for threads in 1 4; do
    for program in bv4 ghz6 qft5; do
        build/tools/vaqc --qasm "tests/service/fixtures/$program.qasm" \
            --machine q20 --trials 200000 --target-stderr 0.002 \
            --sim-engine auto --threads "$threads"
    done | cmp - "$SIM_GOLDEN" || {
        echo "ci: vaqc Monte-Carlo output at --threads $threads" \
            "differs from $SIM_GOLDEN" >&2
        exit 1
    }
done
echo "ci: vaqc Monte-Carlo golden matched (threads 1 and 4)"

echo "== tier-1: robustness label smoke (must select tests) =="
ctest --test-dir build -L robustness --output-on-failure -j "$JOBS"

echo "== tier-1: store label smoke (must select tests) =="
ctest --test-dir build -L store --output-on-failure -j "$JOBS"

echo "== tier-1: sim label smoke (must select tests) =="
ctest --test-dir build -L sim --output-on-failure -j "$JOBS"

echo "== tier-1: service label smoke (must select tests) =="
ctest --test-dir build -L service --output-on-failure -j "$JOBS"

echo "== tier-1: fleet label smoke (must select tests) =="
ctest --test-dir build -L fleet --output-on-failure -j "$JOBS"

echo "== tier-1: seeded chaos smoke (byte-identical summaries) =="
# The same FaultPlan seed must produce byte-identical fleet
# summaries across repeat runs and across thread counts.
CHAOS_A="$(mktemp)"
CHAOS_B="$(mktemp)"
build/bench/perf_fleet --chaos-smoke --seed 11 --threads 1 >"$CHAOS_A"
build/bench/perf_fleet --chaos-smoke --seed 11 --threads 1 >"$CHAOS_B"
cmp "$CHAOS_A" "$CHAOS_B" || {
    echo "ci: chaos smoke diverged across repeat runs" >&2
    exit 1
}
build/bench/perf_fleet --chaos-smoke --seed 11 --threads 8 >"$CHAOS_B"
cmp "$CHAOS_A" "$CHAOS_B" || {
    echo "ci: chaos smoke diverged across thread counts" >&2
    exit 1
}
rm -f "$CHAOS_A" "$CHAOS_B"
echo "ci: chaos smoke deterministic (threads 1 vs 8)"

echo "== tier-1: fleet region-path golden (vaqfleet --fingerprint) =="
# Rate-5 chaos on seed 11 quarantines links and corrupts calibration
# on several machines, so many placements compile into a healthy
# region. The fingerprint must equal the recorded golden at 1 and at
# 4 prewarm threads.
FLEET_GOLDEN=tests/fleet/golden/chaos_rate5_seed11.fingerprint
for threads in 1 4; do
    build/tools/vaqfleet --fingerprint --fault-rate 5 --seed 11 \
        --jobs 400 --threads "$threads" | cmp - "$FLEET_GOLDEN" || {
        echo "ci: vaqfleet fingerprint at --threads $threads" \
            "differs from $FLEET_GOLDEN" >&2
        exit 1
    }
done
echo "ci: fleet region-path golden matched (threads 1 and 4)"

echo "== tier-1: store staleness sweep (perf_sens, seed 7) =="
# The artifact store's warm-replay sweep over --staleness-tol. Its
# own exit code is its acceptance gate (tol=1e-3 must out-serve
# tol=0), and its count columns (no timings) must equal the golden.
SENS_GOLDEN=tests/store/golden/perf_sens_seed7.counts
SENS_OUT="$(build/bench/perf_sens --seed 7)" || {
    echo "ci: perf_sens acceptance gate failed" >&2
    echo "$SENS_OUT" >&2
    exit 1
}
awk '$1 == "tol" { table = 1 } table && NF == 0 { exit }
    table { print $1, $2, $3, $4, $5, $6, $7 }' <<<"$SENS_OUT" |
    cmp - "$SENS_GOLDEN" || {
    echo "ci: perf_sens counts differ from $SENS_GOLDEN" >&2
    exit 1
}
echo "ci: perf_sens gate passed and counts matched"

echo "== tier-1: frame reference bench smoke (must exit 0) =="
# Times PauliFrameSim construction (stabilizer tableau + sparse ideal
# reference) at widths 5/16/20 and on mapped BV-19/IBM-Q20.
build/bench/perf_frame --benchmark_filter=BM_FrameReference >/dev/null
echo "ci: frame reference bench smoke passed"

echo "== tier-1: Bernoulli trial kernel bench smoke (must exit 0) =="
# 1M Monte-Carlo fault-injection trials of mapped BV-16 on 4 workers
# through ParallelFaultSim's threshold kernel. Google Benchmark exits 0
# when a filter matches nothing, so the output must name the case.
KERNEL_OUT="$(build/bench/perf_simulator \
    --benchmark_filter='BM_ParallelFaultInjection/1000000/4')"
grep -q 'BM_ParallelFaultInjection/1000000/4' <<<"$KERNEL_OUT" || {
    echo "ci: Bernoulli trial kernel bench selected no benchmark" >&2
    exit 1
}
echo "ci: Bernoulli trial kernel bench smoke passed"

echo "== tier-1: Pauli-frame trial kernel bench smoke (must exit 0) =="
# 16384 outcome-checked Pauli-frame trials of a Falcon-27 Clifford
# workload through the fault-table kernel. As above, the output must
# name the case.
FRAME_OUT="$(build/bench/perf_frame --benchmark_filter='BM_FrameTrials/27')"
grep -q 'BM_FrameTrials/27' <<<"$FRAME_OUT" || {
    echo "ci: Pauli-frame trial kernel bench selected no benchmark" >&2
    exit 1
}
echo "ci: Pauli-frame trial kernel bench smoke passed"

echo "== tier-1: QASM codec bench smoke (must exit 0) =="
# Parse and render the mapped Table 1 suite, the wire codec vaqd runs
# on every /v1/compile. Both cases must appear in the output.
QASM_OUT="$(build/bench/perf_compiler --benchmark_filter='BM_Qasm')"
for case in BM_QasmParse BM_QasmWrite; do
    grep -q "$case" <<<"$QASM_OUT" || {
        echo "ci: QASM codec bench did not run $case" >&2
        exit 1
    }
done
echo "ci: QASM codec bench smoke passed"

echo "== tier-1: portfolio compile bench smoke (must exit 0) =="
# Compile Table 1 programs through the full vqa+vqm portfolio: every
# placement allocates once and routes each of its routes.
POLICY_OUT="$(build/bench/perf_compiler --benchmark_filter='BM_FullPolicy')"
grep -q BM_FullPolicy <<<"$POLICY_OUT" || {
    echo "ci: portfolio compile bench did not run BM_FullPolicy" >&2
    exit 1
}
echo "ci: portfolio compile bench smoke passed"

echo "== tier-1: strength allocation bench smoke (must exit 0) =="
# The three vqa+vqm strength placements (induced, full-strength,
# qubit-aware) at widths 5, 12 and 20: each runs the connected-region
# search once per allocation. All nine cases must appear.
ALLOC_OUT="$(build/bench/perf_compiler --benchmark_filter='BM_AllocateStrength' --benchmark_min_time=0.1)"
for placement in 0 1 2; do
    for width in 5 12 20; do
        grep -q "BM_AllocateStrength/$placement/$width " <<<"$ALLOC_OUT" || {
            echo "ci: strength allocation bench did not run" \
                "BM_AllocateStrength/$placement/$width" >&2
            exit 1
        }
    done
done
echo "ci: strength allocation bench smoke passed"

echo "== tier-1: vaqd daemon smoke (compile + rollover over HTTP) =="
# Start vaqd on an ephemeral port, parse the port it prints, then
# drive one compile / rollover / recompile cycle through the
# perf_service load generator's external-client smoke mode.
VAQD_LOG="$(mktemp)"
build/tools/vaqd --machine q20 --synthetic-seed 7 >"$VAQD_LOG" 2>&1 &
VAQD_PID=$!
trap 'kill "$VAQD_PID" 2>/dev/null || true' EXIT
VAQD_PORT=""
for _ in $(seq 1 50); do
    VAQD_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$VAQD_LOG" | head -1)"
    [ -n "$VAQD_PORT" ] && break
    sleep 0.1
done
if [ -z "$VAQD_PORT" ]; then
    echo "ci: vaqd did not come up:" >&2
    cat "$VAQD_LOG" >&2
    exit 1
fi
build/bench/perf_service --smoke --port "$VAQD_PORT"
kill -TERM "$VAQD_PID"
wait "$VAQD_PID"
trap - EXIT
echo "ci: vaqd smoke passed (port $VAQD_PORT)"

echo "== tier-1: unreached library functions (scripts/unreached.sh) =="
# Every out-of-line library function must be reached by a shipped
# binary or carry an allowlist reason (oracle, probe, api <name>).
scripts/unreached.sh

if [ "$RUN_TSAN" -eq 1 ]; then
    echo "== tsan leg: -DVAQ_SANITIZE=thread, ctest -L parallel|analysis|store|sim|service|fleet =="
    cmake -B build-tsan -S . -DVAQ_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS"
    ctest --test-dir build-tsan \
        -L "parallel|analysis|store|sim|service|fleet" \
        --output-on-failure -j "$JOBS"
fi

if [ "$RUN_ASAN" -eq 1 ]; then
    echo "== asan leg: -DVAQ_SANITIZE=address,undefined,float-cast-overflow, full ctest =="
    cmake -B build-asan -S . \
        -DVAQ_SANITIZE=address,undefined,float-cast-overflow >/dev/null
    cmake --build build-asan -j "$JOBS"
    # halt_on_error promotes UBSan findings to failures so the leg
    # cannot pass while printing runtime-error lines.
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan --output-on-failure -j "$JOBS"
    echo "== asan leg: store label smoke (must select tests) =="
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan -L store --output-on-failure \
        -j "$JOBS"
    echo "== asan leg: sim label smoke (must select tests) =="
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan -L sim --output-on-failure \
        -j "$JOBS"
    echo "== asan leg: mutation label smoke (must select tests) =="
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan -L mutation --output-on-failure \
        -j "$JOBS"
    echo "== asan leg: service label smoke (must select tests) =="
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan -L service --output-on-failure \
        -j "$JOBS"
    echo "== asan leg: fleet label smoke (must select tests) =="
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan -L fleet --output-on-failure \
        -j "$JOBS"
fi

echo "ci: all legs passed"
