#!/usr/bin/env python3
"""Sampling profile of one perfbench workload.

    python3 tools/profile/profile.py --workload NAME [--seed N] [--seconds S]

Builds tools/profile/sampler.c into an LD_PRELOAD library and
perfbench/main.exe with dune, runs the workload untraced under the
sampler in _build/profile/, and reads back what the sampler wrote at
exit: every sample's interrupted program counter and backtrace
(samples.<pid>) and the process's memory map (maps.<pid>). Addresses
are symbolized with nm against the executable and the shared libraries
the map names.

The report counts only samples taken under the workload's `run` (the
timed window; set-up is outside it) and drops those whose call chain
matches the workload's correctness check (CHECKS below), which the
benchmark times but the system does not do. It prints, as shares of
the samples kept:

  exclusive  the function the sample interrupted;
  inclusive  every function on the chain from `run` inward, once each;
  callers    for the top exclusive entries, who called them.

OCaml names are shown without the `caml` prefix, dune's `Dune__exe__`
and the numeric suffix: `Bytecode__Io.u2`, `Fetch_cold.run`. A caller
frame is symbolized at its return address minus one.

The sampler fires on a CLOCK_MONOTONIC timer every 300 us of wall time
rather than on CPU time: in some virtual machines ITIMER_PROF delivers
only a fraction of its ticks. The workloads are single-threaded and do
not block, so wall time there is CPU time. Not part of `make check`.
"""

import argparse
import bisect
import collections
import json
import os
import re
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUT = os.path.join(ROOT, "_build", "profile")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SAMPLER_C = os.path.join(ROOT, "tools", "profile", "sampler.c")
SAMPLER_SO = os.path.join(OUT, "sampler.so")
TOP = 25

MODULES = {"fetch-cold": "Fetch_cold", "farm-churn": "Farm_churn",
           "app-run": "App_run"}
# Each workload's correctness check, as a pattern over the call chain
# (outermost first, names joined by " > "): fetch-cold decodes, checks
# the signature of and verifies every served class (`valid`);
# farm-churn digests every served class; app-run compares the output.
CHECKS = {
    "fetch-cold": r"Fetch_cold\.valid\b",
    "farm-churn": r"Farm_churn\.fun > Dsig__Md5\.digest\b",
    "app-run": r"App_run\.(run|fun) > caml_string_equal\b",
}


def build():
    os.makedirs(OUT, exist_ok=True)
    subprocess.run(["gcc", "-O2", "-fPIC", "-shared", "-o", SAMPLER_SO,
                    SAMPLER_C, "-lrt"], check=True)
    subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                   cwd=ROOT, check=True, stdout=sys.stderr)


def run(workload, seed, seconds):
    env = dict(os.environ, LD_PRELOAD=SAMPLER_SO)
    proc = subprocess.Popen(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=OUT, env=env, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        sys.exit(f"profile: {workload} exited {proc.returncode}")
    return proc.pid, out.strip().splitlines()[-1]


def read_samples(path):
    with open(path, "rb") as f:
        data = f.read()
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    i, samples = 0, []
    while i < len(words):
        n, pc = words[i], words[i + 1]
        samples.append((pc, words[i + 2:i + 2 + n]))
        i += 2 + n
    return samples


class Symbols:
    """Address -> name over the executable and shared libraries mapped."""

    def __init__(self, maps_path):
        self.ranges = []  # (start, end, base, table)
        tables = {}
        bases = {}
        regions = []
        with open(maps_path) as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                path, offset = parts[5], int(parts[2], 16)
                if offset == 0 and path not in bases:
                    bases[path] = lo
                if "x" in parts[1]:
                    regions.append((lo, hi, path))
        for lo, hi, path in regions:
            if path not in tables:
                tables[path] = self.load(path, path == EXE)
            self.ranges.append((lo, hi, bases.get(path, 0), tables[path]))
        self.ranges.sort()

    @staticmethod
    def load(path, main):
        """A stripped shared library has only its exported symbols, so
        a name from one is the nearest export below the address and is
        shown with the library's name."""
        syms = {}
        for flags in (["--defined-only"], ["-D", "--defined-only"]):
            done = subprocess.run(["nm", "-n"] + flags + [path],
                                  capture_output=True, text=True)
            for line in done.stdout.splitlines():
                parts = line.split()
                if len(parts) != 3 or parts[1] not in "tTwWiI":
                    continue
                name = parts[2].split("@")[0]
                if name.endswith((".code_begin", ".code_end")):
                    continue
                if not main:
                    name += f" ({os.path.basename(path)})"
                syms.setdefault(int(parts[0], 16), name)
        addrs = sorted(syms)
        return addrs, [syms[a] for a in addrs]

    def name(self, addr):
        i = bisect.bisect_right(self.ranges, (addr, float("inf"))) - 1
        if i < 0 or not self.ranges[i][0] <= addr < self.ranges[i][1]:
            return "?"
        _, _, base, (addrs, names) = self.ranges[i]
        j = bisect.bisect_right(addrs, addr - base) - 1
        return demangle(names[j]) if j >= 0 else "?"


def demangle(name):
    if re.match(r"caml[A-Z]", name):
        name = name[4:].replace("Dune__exe__", "")
        name = re.sub(r"_\d+$", "", name)
    return name


def chains(samples, syms):
    """Each sample as its call chain, innermost first: the interrupted
    function, then the callers the backtrace found above it. A sample
    whose backtrace does not hold its own pc (the unwinder lost it)
    keeps the pc alone."""
    cache = {}

    def sym(addr):
        if addr not in cache:
            cache[addr] = syms.name(addr)
        return cache[addr]

    for pc, frames in samples:
        try:
            k = frames.index(pc)
            callers = frames[k + 1:]
        except ValueError:
            callers = ()
        yield [sym(pc)] + [sym(a - 1) for a in callers]


def share(n, total):
    return f"{100.0 * n / total:5.1f}%" if total else "    -"


def report(workload, samples, syms):
    run_re = re.compile(rf"^{MODULES[workload]}\.run$")
    check_re = re.compile(CHECKS[workload])
    kept, checked, outside = [], 0, 0
    for chain in chains(samples, syms):
        depth = next((i for i, f in enumerate(chain) if run_re.match(f)), None)
        if depth is None:
            outside += 1
            continue
        chain = chain[:depth + 1]
        if check_re.search(" > ".join(reversed(chain))):
            checked += 1
            continue
        kept.append(chain)
    total = len(kept)
    print(f"{len(samples)} samples at 300 us; {total} under "
          f"{MODULES[workload]}.run kept, {checked} in its correctness "
          f"check dropped, {outside} outside run (set-up, exit) dropped")
    if not total:
        return
    excl = collections.Counter(c[0] for c in kept)
    incl = collections.Counter(f for c in kept for f in set(c))
    callers = collections.defaultdict(collections.Counter)
    for c in kept:
        callers[c[0]][c[1] if len(c) > 1 else "-"] += 1
    print(f"\nexclusive (top {TOP})")
    for f, n in excl.most_common(TOP):
        print(f"  {share(n, total)}  {f}")
    print(f"\ninclusive (top {TOP})")
    for f, n in incl.most_common(TOP):
        print(f"  {share(n, total)}  {f}")
    print("\ncallers of the top 10 exclusive entries "
          "(share of all kept samples)")
    for f, _ in excl.most_common(10):
        print(f"  {f}")
        for caller, n in callers[f].most_common(4):
            print(f"    {share(n, total)}  from {caller}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    args = p.parse_args()
    build()
    pid, result = run(args.workload, args.seed, args.seconds)
    samples_path = os.path.join(OUT, f"samples.{pid}")
    maps_path = os.path.join(OUT, f"maps.{pid}")
    samples = read_samples(samples_path)
    syms = Symbols(maps_path)
    print(f"{args.workload} seed {args.seed}, --seconds {args.seconds}; "
          f"samples in {os.path.relpath(samples_path, ROOT)}")
    report(args.workload, samples, syms)
    metrics = json.loads(result)["metrics"]
    print(f"\nops_per_s {metrics['ops_per_s']['value']:.0f} "
          "(under the sampler, not comparable with unprofiled runs)")


if __name__ == "__main__":
    main()
