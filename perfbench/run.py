#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run in a checkout configures and builds perfbench (and the
program's library from src/) in Release under $CARGO_TARGET_DIR
(default .bench_build)/perfbench; later runs only re-check the build.
The workload runs in a process of its own. Its last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("contact_storm", "durable_pull", "paper_epidemic")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build; returns the perfbench binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                configure = ["cmake", "-S", HERE, "-B", out,
                             "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                subprocess.run(configure, check=True, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
            jobs = str(min(4, os.cpu_count() or 1))
            subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as error:
            fail(f"build failed: {error}")
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    """Problems with a result line, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct"):
        return problems
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, wrong unit {wrong}")
    return problems


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans",
                    os.path.join(traces, f"{workload}-seed{seed}.csv")]
        if workload == "durable_pull":
            command += ["--disk-dir", os.path.join(build_dir(), "disk-state")]
    command += list(extra)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    if not lines:
        fail(f"{args.workload} printed nothing (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload}: last line is not JSON: {lines[-1]!r}")
    problems = validate(result, args.trace == 1)
    if problems or (code != 0) == bool(result.get("correct")):
        fail(f"{args.workload} (exit {code}): " +
             "; ".join(problems or ["exit code disagrees with result"]))
    print("\n".join(lines), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
