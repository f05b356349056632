#!/usr/bin/env python3
"""Paired benchmark comparison of the working tree against a base commit.

    python3 tools/perf_pairs.py [--base REV] [--pairs N] [--workload NAME]
                                [--seed N] [--seconds S]

Builds perfbench/main.exe in this checkout and at REV (default HEAD,
extracted with git archive into a temporary directory under $TMPDIR),
then runs the two binaries for N alternating pairs of one workload and
seed: the base first in even pairs, the working tree first in odd ones,
so drift in the machine's load falls on both sides. Every run is
untraced. NAME "all" runs N pairs of each workload BENCHMARK.json
lists, one workload after another, from the same two builds.

For each end-to-end metric in BENCHMARK.json it prints, per workload,
the median and quartiles of both sides, each side's spread (the
interquartile range over the median), the ratio of the medians, the
pairs the working tree won, tied and lost, whether the medians differ
by more than the base's interquartile range, and WORSE when the working
tree's median is worse than the base's by more than the metric's bound.
UNRESOLVED marks a metric whose base spread exceeds its bound, unless
every working-tree run beats every base run: its runs are too spread to
tell a change within the bound from noise.

Every run's metrics are written, one JSON line per run as it finishes,
to _build/perf-pairs/<workload>-seed<N>.jsonl in this checkout.

Both binaries run with the same argv[0]: perfbench's peak_heap_mb moves
with the length of argv[0], and the two checkouts' paths differ.

Exit status: 0 when no metric on any workload is worse than its bound,
1 when one is, 2 when a build fails or a run fails, errs or serves a
wrong output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


class Failed(Exception):
    pass


def build(root):
    done = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise Failed(f"build failed in {root}")


def run(root, args):
    """One untraced run; its metrics as {name: value}."""
    done = subprocess.run(["perfbench"] + args,
                          executable=os.path.join(root, EXE), cwd=root,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or not result["correct"] \
            or result["failed"] != 0:
        raise Failed(f"incorrect run in {root} (exit {done.returncode}): "
                     f"{lines[-1] if lines else 'no output'}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def spread(q1, med, q3):
    """The interquartile range as a fraction of the median."""
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(metric, base, new):
    """How much worse [new] is than [base], as a fraction of [base]."""
    if base == new:
        return 0.0
    if base == 0:
        return float("inf")
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def report(metrics, base_runs, new_runs):
    flagged = []
    print(f"{'metric':<14}{'base median [q1, q3]':>32}"
          f"{'new median [q1, q3]':>32}{'spread b/n':>14}{'new/base':>10}"
          f"{'won/tied/lost':>15}{'> base IQR':>12}")
    for metric in metrics:
        name = metric["name"]
        b = [r[name] for r in base_runs]
        n = [r[name] for r in new_runs]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        won = tied = lost = 0
        for x, y in zip(b, n):
            d = worse_by(metric, x, y)
            if d < 0:
                won += 1
            elif d == 0:
                tied += 1
            else:
                lost += 1
        ratio = f"{nmed / bmed:.3f}" if bmed else "-"
        beyond = "yes" if abs(nmed - bmed) > bq3 - bq1 else "no"
        worse = worse_by(metric, bmed, nmed) > metric["bound"]
        bspread, nspread = spread(bq1, bmed, bq3), spread(nq1, nmed, nq3)
        # Every working-tree run better than every base run.
        clear = all(worse_by(metric, x, y) < 0 for x in b for y in n)
        unresolved = bspread > metric["bound"] and not clear
        print(f"{name:<14}"
              f"{f'{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]':>32}"
              f"{f'{fmt(nmed)} [{fmt(nq1)}, {fmt(nq3)}]':>32}"
              f"{f'{bspread:.3f}/{nspread:.3f}':>14}"
              f"{ratio:>10}{f'{won}/{tied}/{lost}':>15}{beyond:>12}"
              + (f"  WORSE (bound {metric['bound']})" if worse else "")
              + (f"  UNRESOLVED (base spread > bound {metric['bound']})"
                 if unresolved else ""))
        if worse:
            flagged.append(name)
    return flagged


def extract(rev, dest):
    """The tree at [rev], written to [dest] with git archive."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise Failed(f"cannot extract {rev}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", default="fetch-cold",
                   help='a workload of BENCHMARK.json, or "all"')
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    a = p.parse_args()
    if a.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = ([w["name"] for w in bench["workloads"]]
                 if a.workload == "all" else [a.workload])
    tmp = tempfile.mkdtemp(prefix="perf-pairs-")
    base_root = os.path.join(tmp, "base")
    flagged = []
    try:
        extract(a.base, base_root)
        build(base_root)
        build(ROOT)
        log_dir = os.path.join(ROOT, "_build", "perf-pairs")
        os.makedirs(log_dir, exist_ok=True)
        for workload in workloads:
            args = ["--workload", workload, "--seed", a.seed,
                    "--seconds", a.seconds, "--trace", "0"]
            base_runs, new_runs = [], []
            log = open(os.path.join(log_dir, f"{workload}-seed{a.seed}.jsonl"),
                       "w")
            for i in range(a.pairs):
                order = [(base_root, base_runs, "base"),
                         (ROOT, new_runs, "new")]
                for root, runs, side in (order if i % 2 == 0
                                         else reversed(order)):
                    runs.append(run(root, args))
                    log.write(json.dumps({"pair": i, "side": side,
                                          "metrics": runs[-1]}) + "\n")
                    log.flush()
                print(f"{workload}: pair {i + 1}/{a.pairs} done",
                      file=sys.stderr)
            print(f"{workload}, seed {a.seed}, {a.seconds} s, {a.pairs} "
                  f"alternating pairs: base {a.base} vs the working tree")
            log.close()
            flagged += [f"{workload} {name}"
                        for name in report(metrics, base_runs, new_runs)]
            sys.stdout.flush()
    except (Failed, subprocess.CalledProcessError) as e:
        print(f"perf-pairs: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if flagged:
        print(f"perf-pairs: worse than the bound: {', '.join(flagged)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
