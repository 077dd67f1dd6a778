#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see vbench/README.md).

    python3 vbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 vbench/run.py --workload all --seed <n> --seconds <s> --trace 1
    python3 vbench/run.py --selftest

Run it from the repository root. It configures and builds vbench/ (a CMake
package that compiles ../src) into .bench_build/vbench, runs the benchmark
program, forwards its report, and prints as the last line one JSON object
with the metrics BENCHMARK.json lists: the end-to-end ones with --trace 0,
the per-layer ones with --trace 1. The exit code is the program's: 0 when
every output check passed, 1 when one failed; any other code means no
result was produced.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "vbench"
WORKLOADS = ["headline_lte", "lossy_3g", "deploy_day"]


def fail(message, code=2):
    print(f"vbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def commit():
    def git(*args):
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True)
        return out.stdout.strip() if out.returncode == 0 else ""

    try:
        if Path(git("rev-parse", "--show-toplevel") or "/nonexistent") != ROOT:
            return "unknown"
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return sha + ("-dirty" if dirty else "") if sha else "unknown"
    except OSError:
        return "unknown"


def run_workload(workload, args, names):
    cmd = [str(BUILD / "vbench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.inject_digest_mismatch:
        cmd.append("--inject-digest-mismatch")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: benchmark program exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not a JSON result")
    measured = report["per_layer" if args.trace else "end_to_end"]
    missing = [n for n in names if n not in measured]
    if missing:
        fail(f"{workload}: program did not report {', '.join(missing)}", 3)
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: measured[n] for n in names},
    }
    return result, proc.returncode


def selftest():
    """Unit tests of the benchmark's arithmetic, then a forced digest
    mismatch that must fail a real run."""
    build()
    if subprocess.run([str(BUILD / "vbench_test")]).returncode:
        fail("unit tests failed", 1)
    proc = subprocess.run(
        [str(BUILD / "vbench"), "--workload", "lossy_3g", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--inject-digest-mismatch"],
        stdout=subprocess.PIPE, text=True)
    last = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 1 or last["correct"] or "digest" not in proc.stdout:
        fail("a forced digest mismatch did not fail the run", 1)
    print("selftest ok: unit tests pass; a forced digest mismatch fails the run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-digest-mismatch", action="store_true",
                        help="corrupt the traced digest; the run must fail")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        result, rc = run_workload(workload, args, names)
        code = max(code, rc)
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
