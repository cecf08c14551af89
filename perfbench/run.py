#!/usr/bin/env python3
"""Build and run the SKV benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (a CMake package that
compiles the simulator from ../src) into .bench_build/perfbench; later calls
reuse that build. The benchmark binary prints human-readable tables and, as its
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
This wrapper checks that the metrics in that line, by name and unit, are
exactly the ones BENCHMARK.json declares for the mode (end_to_end for
--trace 0, per_layer for --trace 1) and exits non-zero without printing a
result otherwise.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def run(cmd: list, timeout: int, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run in its own process group, so a timeout also stops
    grandchildren (compilers under cmake) before it raises."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build() -> bool:
    """Configure (once) and build the benchmark; build output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = run(cmd, BUILD_TIMEOUT_S, stdout=log,
                         stderr=subprocess.STDOUT).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
                return False
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step {' '.join(cmd[:2])} exited {rc} (log: {log_path})")
                return False
    return True


def expected_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines[:-1]))
        return fail(f"benchmark exited {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        return fail("last line is not a JSON result")
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        print("\n".join(lines[:-1]))
        diff = sorted(set(got.items()) ^ set(want.items()))
        return fail(f"metrics (name, unit) differ from BENCHMARK.json: {diff}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
