.PHONY: all build test lint exports-check loc certify-smoke farm-smoke chaos-smoke control-smoke trace-smoke examples-smoke perf-compare perfbench-selftest perf-pairs profile check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static-analysis self-check: run the dataflow analyzer over every
# bundled workload class. Fails on solver non-convergence or a CFG
# that changes across an encode/decode round trip.
lint:
	dune exec bin/dvmctl.exe -- lint
	dune exec bin/dvmctl.exe -- certify --small

# Library surface check: every val in lib/**/*.mli must be named by
# some other .ml under lib/, bin/, bench/, perfbench/, examples/ or
# test/; the script names each export nothing uses.
exports-check:
	python3 tools/exports_check.py

# Code lines in lib/, per directory: .ml plus .mli, comments and blank
# lines excluded, strings kept — the count the simplicity criteria use.
loc:
	python3 tools/loc.py

# Certified-rewriting smoke: rewrite the full bundled workloads with
# certificate emission on and translation-validate every class from its
# wire image (must be 0 failures), then run the seeded mutation harness
# over the small builds — corrupted rewriter output / tampered
# certificates must be killed by the verifier or the certifier at a
# kill rate of at least 0.9. dvmctl exits nonzero on either front.
certify-smoke:
	dune exec bin/dvmctl.exe -- certify --mutate --seed 20260808 --count 3 --min-kill 0.9

# Smoke-scale run of the proxy-farm experiment: a quick shard sweep
# with caching off (the scaling curve) and one cached run exercising
# single-flight coalescing and the shared L2. The last line checks that
# a zero count is a usage error (Cmdliner's exit code 124), not a crash.
farm-smoke:
	dune exec bin/dvmctl.exe -- farm --clients 24 --shards 1,2 --duration 5 --applets 8
	dune exec bin/dvmctl.exe -- farm --clients 24 --shards 2 --duration 5 --applets 4 --cache 16 --l2 32
	dune exec bin/dvmctl.exe -- farm --applets 0 2>/dev/null; test $$? -eq 124

# Smoke-scale chaos run: a short seeded schedule (one crash window,
# LAN loss, a flash-crowd spike) against the overload controls.
# dvmctl exits nonzero if any of the three invariants — digest
# integrity, zero late serves, post-fault recovery — fails.
chaos-smoke:
	dune exec bin/dvmctl.exe -- chaos --clients 12 --duration 12 \
	  --spike-start 3 --spike-len 5 --crashes 1 --loss 1.0 --trace

# Control-plane smoke: a short seeded run replicating a policy bump
# across the farm while control links partition (split brain), one
# shard crash/restarts, the leased leader is killed mid-commit (the
# new leader must re-drive the uncommitted suffix) and later wakes
# with a stale term. dvmctl exits nonzero if any control-plane
# invariant fails: a client served under the revoked policy version,
# two valid leadership leases at one sampled instant (or a term
# regression), snapshot catch-up state that differs from a full-log
# replay, a shard that never converges, or digest drift on applets
# the bump does not touch. The second line is the election smoke:
# leader crash + leader partition forced on, checked via --json.
control-smoke:
	dune exec bin/dvmctl.exe -- control --clients 12 --duration 18 \
	  --applets 6 --bump-at 7 --partitions 1 --partition-len 2 --trace
	dune exec bin/dvmctl.exe -- control --clients 12 --duration 18 \
	  --applets 6 --bump-at 7 --partitions 1 --partition-len 2 --json

# Trace smoke: a seeded chaos run must yield, for at least one shed and
# one serve-stale brownout request, a single cross-node trace with the
# client span, the edge routing span and the explaining reason event.
# dvmctl exits nonzero if either trace is missing; the exports (Chrome
# trace + JSON + flight-recorder dump) land under _build/trace-smoke/.
# The last four lines run the telemetry registry's readers on jlex —
# the Chrome trace and the metrics snapshot — and parse both as JSON.
trace-smoke:
	mkdir -p _build/trace-smoke
	dune exec bin/dvmctl.exe -- flight --out _build/trace-smoke/flight
	dune exec bin/dvmctl.exe -- slo --json
	dune exec bin/dvmctl.exe -- trace jlex --out _build/trace-smoke/jlex.trace.json
	python3 -m json.tool _build/trace-smoke/jlex.trace.json > /dev/null
	dune exec bin/dvmctl.exe -- metrics jlex --json > _build/trace-smoke/jlex.metrics.json
	python3 -m json.tool _build/trace-smoke/jlex.metrics.json > /dev/null

# Examples smoke: run every program under examples/. Each is a short
# deterministic end-to-end drive of the public API and exits nonzero
# (an uncaught exception or a failwith) when what it shows stops
# working.
EXAMPLES = quickstart secure_intranet mobile_code fleet_admin trace_service

examples-smoke:
	for e in $(EXAMPLES); do dune exec examples/$$e.exe > /dev/null || exit 1; done

# Perf trajectory pin: the bench perf phase re-runs the seeded phases
# that write BENCH_<phase>.json, exits non-zero if any served byte,
# digest or metric drifts from the committed baselines, and prints
# baseline-vs-now wall-clock per phase (the speed trajectory the
# wall_ms field records). Every number in those files except wall_ms
# is a function of the virtual clock and the pinned seeds, so a diff
# is either a real behaviour change (recommit the baseline and say
# why) or nondeterminism leaking in (a bug). The trailing git
# diff is a second, independent net over the same files.
BENCH_PINS = BENCH_faults.json BENCH_farm.json BENCH_chaos.json BENCH_control.json BENCH_elide.json BENCH_certify.json BENCH_paper.json

perf-compare:
	dune exec bench/main.exe -- perf
	git diff -I '"wall_ms"' --exit-code $(BENCH_PINS)
	git checkout -- $(BENCH_PINS)

# Benchmark determinism: two runs of each perfbench workload with one
# seed must agree exactly on virtual latencies, the served ratio, the
# heap peak and every per-layer count, and another seed must draw other
# inputs. Nondeterminism leaking into the system (a cache keyed on
# something a run does not fix, say) fails here, not at the benchmark.
perfbench-selftest:
	python3 perfbench/selftest.py

# Paired benchmark comparison, kept out of [check]: builds BASE (extracted
# with git archive into a temporary directory) and runs PAIRS alternating
# pairs of one perfbench workload against the working tree, then prints
# each end-to-end metric's medians, quartiles and wins, and flags any
# metric worse than its bound in BENCHMARK.json. WORKLOAD=all runs every
# workload BENCHMARK.json lists from the same two builds, one table each.
# Exits 2 on an incorrect run, 1 when a metric is worse than its bound.
BASE ?= HEAD
PAIRS ?= 10
WORKLOAD ?= fetch-cold
SEED ?= 1
SECS ?= 10

perf-pairs:
	python3 tools/perf_pairs.py --base $(BASE) --pairs $(PAIRS) \
	  --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECS)

# Sampling profile of one perfbench workload, kept out of [check]:
# builds tools/profile/sampler.c as an LD_PRELOAD library (SIGPROF every
# 300 us on a CLOCK_MONOTONIC timer; each sample is the interrupted pc
# and its backtrace), runs WORKLOAD untraced at SEED for SECS, and prints
# the exclusive, inclusive and caller shares of the samples under the
# workload's run, its correctness check left out. The samples and the
# process's memory map land in _build/profile/.
profile:
	python3 tools/profile/profile.py --workload $(WORKLOAD) --seed $(SEED) \
	  --seconds $(SECS)

# The gate a PR must pass: everything builds, every test is green, and
# no build artifacts are tracked or dirtying the tree.
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	$(MAKE) exports-check
	$(MAKE) certify-smoke
	$(MAKE) farm-smoke
	$(MAKE) chaos-smoke
	$(MAKE) control-smoke
	$(MAKE) trace-smoke
	$(MAKE) examples-smoke
	$(MAKE) perf-compare
	$(MAKE) perfbench-selftest
	@if git ls-files | grep -q '^_build/'; then \
	  echo "check: _build/ files are tracked in git" >&2; exit 1; fi
	@if git status --porcelain | grep -q '_build'; then \
	  echo "check: _build/ appears in git status (gitignore broken?)" >&2; exit 1; fi
	@echo "check: OK"

clean:
	dune clean
