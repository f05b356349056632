#!/usr/bin/env python3
"""The benchmark's own test.

For each workload, two runs with the same seed at a short length must
agree exactly on every deterministic output: untraced, the virtual-clock
latencies, the served ratio and the peak heap; traced, every per-layer
count and every ratio of counts. A run with another seed must draw
different inputs. Exits non-zero on any difference.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

DETERMINISTIC_E2E = {"virt_p50_us", "virt_p99_us", "served_ratio", "peak_heap_mb"}


def deterministic_layer(name, unit):
    """Counts and ratios of counts; host-time metrics vary run to run."""
    return (unit == "count" or name.endswith("_ratio")
            or name == "control.commit_virt_p50_us")


def once(workload, seed, trace):
    done = subprocess.run(
        [bench.EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines
                  if line.startswith("input_digest "))
    return json.loads(lines[-1]), digest


def main():
    if not bench.build():
        return 2
    failures = []
    for workload in bench.WORKLOADS:
        digest = None
        for trace in (0, 1):
            (a, digest), (b, again) = once(workload, 1, trace), once(workload, 1, trace)
            if digest != again:
                failures.append(f"{workload}: seed 1 drew different inputs twice")
            for name, m in a["metrics"].items():
                keep = (name in DETERMINISTIC_E2E if trace == 0
                        else deterministic_layer(name, m["unit"]))
                other = b["metrics"][name]["value"]
                if keep and m["value"] != other:
                    failures.append(f"{workload} --trace {trace}: {name} "
                                    f"{m['value']} then {other}")
        _, other_seed = once(workload, 2, 0)
        if other_seed == digest:
            failures.append(f"{workload}: seeds 1 and 2 drew the same inputs")
        print(f"{workload}: checked")
    for failure in failures:
        print(failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
