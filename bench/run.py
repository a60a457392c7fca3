"""Benchmark runner for wordsource: one workload, one seed, one mode.

    python3 bench/run.py --workload aep-scan --seed 1 --seconds 20 --trace 0

Single process, single thread, closed loop on one client: each call into the
package starts when the previous one returns. The run generates rounds of
items from the seed (see workloads.py) and runs whole rounds until
``--seconds`` have passed. Every call's result goes through the exact checks
in checks.py; after the timed phase the seeded-path references are checked.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs every round twice, untraced and traced in alternating order, and prints
the per-layer metrics of the traced passes, each averaged per round. The last
line of standard output is the result object; the line before it carries the
run's details (environment, tail percentile, call count, statistical misses).
"""

from __future__ import annotations

import os

# single-threaded runner: fix BLAS threads before numpy is imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # calls beyond the reported tail percentile
MAX_REPORTED_FAILURES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


class Tally:
    """Attempted and failed checks, plus statistical misses per label."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.misses = Counter()

    def add(self, label, outcome):
        self.attempted += 1
        self.failed += bool(outcome.failures)
        self.messages += [f"{label}: {f}" for f in outcome.failures]
        self.misses[label] += outcome.misses


def _check(item, result):
    if item.kind == "aep":
        return checks.check_aep(item.spec, result)
    if item.kind == "ams":
        return checks.check_ams(result)
    return checks.check_run(checks.summary_of(result))


def run_round(items, calls, tally):
    """Run one round; return its wall time and the wall time of each call."""
    call_s = []
    start = time.perf_counter()
    for item, call in zip(items, calls):
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising call is a failed call; go on
            call_s.append(time.perf_counter() - t0)
            tally.add(item.label, checks.Outcome(failures=[f"raised {exc!r}"]))
            continue
        call_s.append(time.perf_counter() - t0)
        try:
            outcome = _check(item, result)
        except (KeyError, OSError, ValueError, AttributeError) as exc:
            outcome = checks.Outcome(failures=[f"unreadable result: {exc!r}"])
        tally.add(item.label, outcome)
    return time.perf_counter() - start, call_s


def timed_phase(ws, args, out_dir, tally):
    """Closed loop over whole rounds for ``args.seconds``.

    Returns untraced round walls, call walls, and for --trace 1 the traced
    round walls and their span totals.
    """
    tracer = spans.Tracer(ws) if args.trace else None
    untraced, traced, call_s, totals = [], [], [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < args.seconds:
        items = workloads.round_items(args.workload, args.seed, r)
        calls = [workloads.prepare(item, ws, out_dir) for item in items]
        if tracer is None:
            wall, per_call = run_round(items, calls, tally)
            untraced.append(wall)
            call_s += per_call
        else:
            for use_tracer in ((False, True) if r % 2 == 0 else (True, False)):
                if use_tracer:
                    with tracer.installed():
                        wall, _ = run_round(items, calls, tally)
                    traced.append(wall)
                    totals.append(tracer.drain())
                else:
                    wall, _ = run_round(items, calls, tally)
                    untraced.append(wall)
        r += 1
    return untraced, call_s, traced, totals


def setup_probes(args):
    """Cold set-up times of fresh interpreters (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def end_to_end_metrics(setup_times, round_walls, call_s, rss_mb):
    calls = sorted(call_s)
    tail_index = max(len(calls) - 1 - TAIL_BEYOND, 0)
    values = {
        "setup_s": statistics.median(setup_times),
        # first call to last verdict, per round: noise from other tenants of
        # the machine comes in phases, and the mean over the run's rounds
        # was steadier across runs than their median
        "verdict_s": statistics.fmean(round_walls),
        "call_s_p50": statistics.median(calls),
        "call_s_tail": calls[tail_index],
        "peak_rss_mb": rss_mb,
    }
    details = {"calls": len(calls), "rounds": len(round_walls),
               "round_walls": [round(w, 4) for w in round_walls],
               "setup_probes": [round(t, 4) for t in setup_times],
               "tail_percentile": 100.0 * (tail_index + 1) / len(calls),
               "calls_beyond_tail": len(calls) - 1 - tail_index}
    return values, details


def _target_ns(workload, t):
    """Time in the layer each workload was built to stress."""
    if workload == "aep-scan":
        return t.self_ns["entropy.aep_experiment"] + t.self_ns["entropy.cylinder_log_probability"]
    if workload == "stream-ergodic":
        return t.self_ns["sources.sample_path"] + t.self_ns["wordcode.encode_stream"]
    return (t.inclusive_ns["oracles.brute_force_induced_log_table"]
            + t.self_ns["entropy.block_log_probability_table"]
            + t.self_ns["entropy.shifted_cylinder_probability"])


def per_layer_metrics(workload, totals, untraced, traced):
    """Per-round averages of span times and work counters over traced rounds."""
    t = spans.Totals()
    for part in totals:
        t.add(part)
    rounds = len(totals)
    sn, inc, calls, counts = t.self_ns, t.inclusive_ns, t.calls, t.counts

    def s(ns):
        return ns / 1e9 / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    scan_ns = sn["entropy.aep_experiment"] + sn["entropy.cylinder_log_probability"]
    table_ns = sn["entropy.block_log_probability_table"]
    oracle_ns = inc["oracles.brute_force_induced_log_table"]
    encode_ns = sn["wordcode.encode_stream"]
    sample_ns = sn["sources.sample_path"]
    experiments_ns = sum(v for k, v in sn.items() if k.startswith("experiments."))
    return {
        "sources.sample_s": s(sample_ns),
        "sources.sample_symbols": counts["sources.sample_symbols"] / rounds,
        "sources.sample_ns_per_symbol": ratio(sample_ns, counts["sources.sample_symbols"]),
        "sources.cylinder_s": s(sn["sources.cylinder_log_probability"]),
        "sources.cylinder_calls": calls["sources.cylinder_log_probability"] / rounds,
        "wordcode.encode_s": s(encode_ns),
        "wordcode.encode_calls": calls["wordcode.encode_stream"] / rounds,
        "wordcode.encode_symbols": counts["wordcode.encode_symbols"] / rounds,
        "wordcode.encode_ns_per_symbol": ratio(encode_ns, counts["wordcode.encode_symbols"]),
        "wordcode.encode_us_per_call": ratio(encode_ns / 1e3, calls["wordcode.encode_stream"]),
        "entropy.scan_s": s(scan_ns),
        "entropy.scan_steps": counts["entropy.scan_steps"] / rounds,
        "entropy.scan_ns_per_step": ratio(scan_ns, counts["entropy.scan_steps"]),
        "entropy.table_s": s(table_ns),
        "entropy.table_cells": counts["entropy.table_cells"] / rounds,
        "entropy.table_live_frac": ratio(counts["entropy.table_live"],
                                         counts["entropy.table_cells"]),
        "entropy.table_ns_per_cell": ratio(table_ns, counts["entropy.table_cells"]),
        "entropy.shifted_s": s(inc["entropy.shifted_cylinder_probability"]),
        "entropy.shifted_calls": calls["entropy.shifted_cylinder_probability"] / rounds,
        "oracles.enum_s": s(oracle_ns),
        "oracles.enum_self_s": s(sn["oracles.brute_force_induced_log_table"]),
        "oracles.tuples": counts["oracles.tuples"] / rounds,
        "oracles.ns_per_tuple": ratio(oracle_ns, counts["oracles.tuples"]),
        "ergodic.time_average_s": s(sn["ergodic.time_average"]),
        "ergodic.windows": counts["ergodic.windows"] / rounds,
        "ergodic.spread_self_s": s(sn["ergodic.ergodicity_spread"]),
        "ergodic.ams_self_s": s(sn["ergodic.ams_diagnostic"]),
        "shifts.orbit_s": s(sn["shifts.variable_length_orbit"]),
        "shifts.orbit_steps": counts["shifts.orbit_steps"] / rounds,
        "shifts.coder_s": s(sn["shifts.finite_state_orbit_coder"]),
        "shifts.bellow_s": s(sn["shifts.bellow_check"]),
        "experiments.self_s": s(experiments_ns),
        "harness.resolve_s": s(inc["harness.resolve_config"]),
        "harness.emit_s": s(inc["harness.run_experiment"] - counts["harness.experiment_ns"]),
        "harness.result_bytes": counts["harness.result_bytes"] / rounds,
        "trace.spans": t.spans / rounds,
        "trace.overhead_frac": statistics.median(
            tr / un - 1.0 for tr, un in zip(traced, untraced)),
        "trace.target_share": _target_ns(workload, t) / 1e9 / sum(traced),
    }


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    args = parse_args(argv)
    ws = workloads.import_package()
    declared = declared_metrics(args.trace)
    out_dir = ROOT / ".bench_run" / str(os.getpid())
    tally = Tally()
    try:
        setup_times = setup_probes(args) if not args.trace else None
        untraced, call_s, traced, totals = timed_phase(ws, args, out_dir, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for case in checks.load_references():
            tally.add(f"reference:{case['name']}", checks.check_reference(ws, case))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.is_dir() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": environment(),
               "statistical_misses": dict(tally.misses),
               "failed_frac": tally.failed / tally.attempted,
               "failures": tally.messages[:MAX_REPORTED_FAILURES]}
    if args.trace:
        values = per_layer_metrics(args.workload, totals, untraced, traced)
        details.update(rounds=len(traced), traced_verdict_s=statistics.median(traced))
    else:
        values, more = end_to_end_metrics(setup_times, untraced, call_s, rss_mb)
        details.update(more)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
