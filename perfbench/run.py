#!/usr/bin/env python3
"""Build and run the class-fetch-path benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fetch-cold, farm-churn or app-run. The driver is built from
source with dune first (build output goes to standard error), then run
from the repository root. The last line of standard output is one JSON
object with correct, attempted, failed and metrics: the end-to-end
metrics untraced, the per-layer metrics traced. The exit code is
non-zero when the build fails or an op fails or serves a wrong output.

    python3 perfbench/run.py --workload all --seed N --seconds S

runs the three workloads one after another and prints every end-to-end
metric of every workload by name and unit.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["fetch-cold", "farm-churn", "app-run"]


def build():
    """Build the driver; True when it built."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run dune: {err}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_all(args):
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([EXE, "--workload", name] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: failed (exit {done.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} {m['value']} {m['unit']}")
    return status


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if argv[:2] == ["--workload", "all"]:
        return run_all(argv[2:])
    return subprocess.run([EXE] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
