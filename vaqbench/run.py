#!/usr/bin/env python3
"""Build and run the libvaq benchmark.

Run from the repository root:

  python3 vaqbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 vaqbench/run.py --selfcheck

Each run configures (first time) and incrementally builds the
benchmark program with CMake into $CARGO_TARGET_DIR/vaqbench, or
.bench_build/vaqbench when the variable is unset, then runs it. The
last line of standard output is the result JSON object. --selfcheck
runs the paper-ordering check and the determinism checks instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recompile-burst", "vaqd-drift", "mc-pst")
RUN_TIMEOUT_S = 170

# Per-layer counts that must repeat exactly for one seed.
DETERMINISTIC = {
    "recompile-burst": ["quality.geomean_pst", "core.swaps_per_job"],
    "vaqd-drift": ["quality.geomean_pst", "core.swaps_per_job",
                   "store.exact_hits", "store.delta_serves",
                   "store.bound_serves", "store.misses"],
    "mc-pst": ["quality.geomean_pst", "sim.trial_successes"],
}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "vaqbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("vaqbench: library sources (src/) not found beside "
                 "the benchmark")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "vaqbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(out, "vaqbench")


def run(binary, args):
    """Run the program; return (exit code, stdout)."""
    proc = subprocess.run([binary] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def selfcheck(binary):
    ok = True
    code, out = run(binary, ["--check-ordering", "--seed", "1"])
    sys.stdout.write(out)
    ok &= code == 0
    for workload in WORKLOADS:
        runs = []
        for seed in (1, 1, 2):
            args = ["--workload", workload, "--seed", str(seed),
                    "--seconds", "4", "--trace", "1"]
            code, out = run(binary, args)
            if code != 0:
                print(f"selfcheck: {workload} seed {seed} failed")
                return False
            runs.append(result_of(out)["metrics"])
        for name in DETERMINISTIC[workload]:
            same = runs[0][name]["value"] == runs[1][name]["value"]
            print(f"selfcheck: {workload} {name} repeats: {same}")
            ok &= same
        key = "harness.input_fingerprint"
        changed = runs[0][key]["value"] != runs[2][key]["value"]
        print(f"selfcheck: {workload} seed 2 changes inputs: {changed}")
        ok &= changed
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selfcheck:
        return 0 if selfcheck(binary) else 1
    code, out = run(binary, ["--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)])
    if code != 0:
        return code
    result_of(out)  # the last line must be the result object
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
