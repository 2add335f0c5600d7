#!/usr/bin/env python3
"""Build saga's benchmark program from this checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pisa_chains --seed 1 --seconds 24 --trace 0

The program (perfbench/src, built against the checkout's libsaga and saga
CLI in Release mode) is started as FORKS fresh processes one after the
other, each measuring for an equal share of --seconds on the same inputs.
Every printed metric is the median of the forks' values, so one process
that happens to run slow or fast does not carry the figure. A traced run
(--trace 1) is a single process. The last line of standard output is one
JSON object; build output and the program's own messages go to standard
error. Build products and results files (one directory per fork) live
under the directory named by CARGO_TARGET_DIR, or .bench_build.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("pisa_chains", "pisa_workflows", "bench_grid", "serve_mixed")
# Untraced processes per run.
FORKS = 3


def build(build_dir: pathlib.Path) -> pathlib.Path:
    """Configures (once) and builds the program; returns its path."""
    out = build_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def commit() -> str:
    """The checkout's git commit, or "unknown" when it is not a repository."""
    # Stop git at the checkout: a repository further up is not this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(pathlib.Path.cwd().parent))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, env=env).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(command: list) -> dict:
    """Runs one process of the program and returns its result line."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    sys.stderr.writelines(line + "\n" for line in lines[:-1])
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with code {done.returncode}")
    return json.loads(lines[-1])


def combine(results: list) -> dict:
    """One result line from the forks': counts summed, each metric's median."""
    names = list(results[0]["metrics"])
    if any(list(r["metrics"]) != names for r in results):
        raise RuntimeError("the forks printed different metrics")
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                   "unit": results[0]["metrics"][name]["unit"]}
            for name in names
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills the running fork (whose
    # daemon, if any, follows it) instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    forks = FORKS if args.trace == "0" else 1
    sha = commit()
    results = []
    try:
        for k in range(forks):
            results_dir = build_dir / "results" / (f"fork{k}" if forks > 1 else "")
            results.append(run_once([
                str(program), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds / forks), "--trace", args.trace,
                "--results", str(results_dir), "--commit", sha,
            ]))
        line = combine(results)
    except (OSError, RuntimeError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
