#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <metro_1m|link_sweep|fleet_traffic> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver (perfbench/src) is configured
with CMake into .bench_build/perfbench, built incrementally, and run once.
Build output goes to stderr; stdout carries the driver's report, whose
last line is the JSON result. The driver prints bare metric values;
BENCHMARK.json is the only list of metric names and units. This script
attaches the units, fills the per-layer metrics a workload does not set
with 0, and rejects a name the list does not hold or a missing end-to-end
metric. Exit status: 0 on success, 1 when a correctness check failed, 2
when the build or the result itself is unusable.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# Time the driver may take beyond --seconds: gates, set-up and the STREAM
# probe take well under a minute.
RUN_SLACK_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # Configured for another checkout.
    if not cache.is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def with_units(values, trace):
    """The driver's bare values as {name: {value, unit}}, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    unknown = sorted(set(values) - set(units))
    if unknown:
        fail(f"metrics not listed in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not trace:
        fail(f"end-to-end metrics not printed: {missing}")
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["metro_1m", "link_sweep", "fleet_traffic"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    timeout_s = args.seconds + RUN_SLACK_S
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {timeout_s} s")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(run.stdout)
        fail(f"driver exited {run.returncode} without a JSON result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    result["metrics"] = with_units(result.get("metrics", {}), args.trace)
    print(json.dumps(result))
    sys.exit(0 if run.returncode == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
