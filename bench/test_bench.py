"""Self-tests of the benchmark itself: ``python3 -m pytest bench -q``.

They check that inputs are a pure function of the seed, that the exact
checks reject planted bad results, that span self times never go negative,
and that the runner keeps the output format BENCHMARK.json declares.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

ws = workloads.import_package()
ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fingerprint(workload, seed, r):
    items = workloads.round_items(workload, seed, r)
    return json.dumps([[i.kind, i.label, i.spec] for i in items], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_are_a_pure_function_of_seed_and_round(workload):
    first = _fingerprint(workload, 7, 3)
    assert first == _fingerprint(workload, 7, 3)
    assert first != _fingerprint(workload, 8, 3)
    assert first != _fingerprint(workload, 7, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_shape_does_not_depend_on_the_seed(workload):
    labels = [item.label for item in workloads.round_items(workload, 1, 0)]
    for seed, r in ((2, 0), (3, 5), (2**31, 9)):
        assert [item.label for item in workloads.round_items(workload, seed, r)] == labels


def _run(tmp_path, raw):
    manifest = ws.harness.run_experiment(
        ws.harness.resolve_config({**raw, "output_dir": str(tmp_path)}))
    return manifest, checks.summary_of(manifest)


def test_screened_dp_oracle_seed_gives_the_requested_alphabets(tmp_path):
    seed = workloads.dp_oracle_seed(np.random.default_rng(0), (3, 2))
    _run(tmp_path, {"experiment": "dp-oracle", "seed": seed,
                    "params": {"pairs": 1, "max_block": 2}})
    row = (tmp_path / "dp-oracle.pairs.csv").read_text().splitlines()[1].split(",")
    assert (int(row[2]), int(row[3])) == (3, 2)


def _aep(code):
    spec = {"codebook": {"input_alphabet": 2, "output_alphabet": 2, "code": code}}
    wf = ws.word_function_from_config(spec["codebook"])
    return spec, ws.aep_experiment(ws.IIDSource([0.5, 0.5]), wf, horizon=200,
                                   paths=2, seed=1)


def test_aep_check_rejects_a_broken_prefix_free_identity():
    spec, reports = _aep(["0", "10"])
    assert checks.check_aep(spec, reports).failures == []
    bad = dataclasses.replace(
        reports[0], scaled_output_sample_entropy=reports[0].source_sample_entropy + 1e-6)
    assert len(checks.check_aep(spec, [bad, *reports[1:]]).failures) == 1


def test_aep_check_rejects_nonzero_entropy_for_zero_zero_code():
    spec, reports = _aep(["0", "00"])
    assert checks.check_aep(spec, reports).failures == []
    bad = dataclasses.replace(reports[1], empirical_h=5e-324)
    assert len(checks.check_aep(spec, [reports[0], bad]).failures) == 1


TINY_RUNS = {
    "dp-oracle": {"params": {"pairs": 2, "max_block": 3}},
    "coder-equivalence": {"horizon": 200, "params": {"trials": 3, "full_horizon_trials": 1}},
    "log-identity": {"params": {"max_tuple_length": 3}},
}


@pytest.mark.parametrize("experiment, field, value", [
    ("dp-oracle", "mask_mismatches", 1),
    ("dp-oracle", "spot_failures", 2),
    ("dp-oracle", "max_abs_log_error", 2e-10),
    ("coder-equivalence", "mismatches", 1),
])
def test_run_check_rejects_a_planted_bad_summary(tmp_path, experiment, field, value):
    _, doc = _run(tmp_path, {"experiment": experiment, "seed": 3, **TINY_RUNS[experiment]})
    assert checks.check_run(doc).failures == []
    doc["summary"][field] = value
    assert len(checks.check_run(doc).failures) == 1


def test_run_check_rejects_a_failed_log_identity(tmp_path):
    _, doc = _run(tmp_path, {"experiment": "log-identity", "seed": 0,
                             **TINY_RUNS["log-identity"]})
    assert checks.check_run(doc).failures == []
    doc["passed"] = False
    assert len(checks.check_run(doc).failures) == 1


def test_statistical_verdicts_count_as_misses_not_failures(tmp_path):
    _, doc = _run(tmp_path, {"experiment": "ams-markov", "seed": 0})
    doc["passed"] = False
    outcome = checks.check_run(doc)
    assert outcome.failures == [] and outcome.misses == 1


def test_reference_check_flags_a_changed_path():
    case = {"name": "t", "model": workloads.APERIODIC_MARKOV,
            "codebook": workloads.CODE_PREFIX_FREE, "seed": 5, "length": 1000}
    case.update(checks.path_digests(ws, case))
    assert checks.check_reference(ws, case).failures == []
    assert len(checks.check_reference(ws, {**case, "seed": 6}).failures) == 2


def test_committed_references_match_this_code():
    for case in checks.load_references():
        assert checks.check_reference(ws, case).failures == [], case["name"]


def test_fold_of_nested_spans():
    recorded = [("a", 0, 100, -1), ("b", 10, 40, 0), ("a", 15, 25, 1), ("c", 50, 60, 0)]
    assert spans.self_ns(recorded) == [60, 20, 10, 10]
    totals = spans.fold(recorded)
    assert totals.self_ns == {"a": 70, "b": 20, "c": 10}
    assert totals.inclusive_ns == {"a": 100, "b": 30, "c": 10}
    assert totals.calls == {"a": 2, "b": 1, "c": 1}


def _traced_round(tmp_path):
    items = [
        workloads.Item("run", "run:dp-oracle", {"experiment": "dp-oracle", "seed": 1,
                                                "params": {"pairs": 2, "max_block": 4}}),
        workloads.Item("ams", "ams:iid", {"model": workloads.FAIR_COIN, "horizon": 100,
                                          "codebook": workloads.CODE_PREFIX_FREE}),
        workloads.Item("aep", "aep:mixture", {"model": workloads.MIXTURE_HALF,
                                              "codebook": workloads.CODE_PREFIX_FREE,
                                              "horizon": 50, "paths": 2, "seed": 1}),
    ]
    calls = [workloads.prepare(item, ws, tmp_path) for item in items]
    tracer = spans.Tracer(ws)
    tally = run.Tally()
    with tracer.installed():
        wall, _ = run.run_round(items, calls, tally)
    assert tally.failed == 0
    return tracer, wall


def test_traced_self_times_are_never_negative(tmp_path):
    tracer, _ = _traced_round(tmp_path)
    assert len(tracer.spans) > 100
    assert min(spans.self_ns(tracer.spans)) >= 0
    totals = tracer.drain()
    for name in ("oracles.brute_force_induced_log_table", "entropy.aep_experiment",
                 "entropy.shifted_cylinder_probability", "sources.sample_path",
                 "wordcode.encode_stream", "experiments.dp-oracle"):
        assert totals.calls[name] > 0, name
    assert totals.counts["oracles.tuples"] > 0


def test_tracer_restores_every_target(tmp_path):
    originals = [spans._get(owner, attr) for _, owner, attr, _ in spans.targets(ws)]
    with spans.Tracer(ws).installed():
        wrapped = [spans._get(owner, attr) for _, owner, attr, _ in spans.targets(ws)]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [spans._get(owner, attr) for _, owner, attr, _ in spans.targets(ws)] == originals


def test_emitted_metrics_are_the_declared_ones(tmp_path):
    tracer, wall = _traced_round(tmp_path)
    layer_values = run.per_layer_metrics("exact-enumeration", [tracer.drain()], [wall], [wall])
    assert set(layer_values) == {m["name"] for m in BENCH_JSON["per_layer"]}
    e2e_values, _ = run.end_to_end_metrics([0.1], [1.0, 2.0], [0.1] * 20, 40.0)
    assert set(e2e_values) == {m["name"] for m in BENCH_JSON["end_to_end"]}
    layer_map = json.loads((ROOT / "bench" / "layers.json").read_text(encoding="utf-8"))
    assert set(layer_map["per_layer"]) == set(layer_values)


def test_tail_has_ten_calls_beyond_it():
    values, details = run.end_to_end_metrics([0.1], [1.0], [float(i) for i in range(40)], 40.0)
    assert values["call_s_tail"] == 29.0
    assert details["calls_beyond_tail"] == 10
    assert details["tail_percentile"] == 75.0


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload, trace", [("aep-scan", 0), ("exact-enumeration", 1)])
def test_runner_prints_the_result_object_last(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH_JSON["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert not (ROOT / ".bench_run").exists()


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "aep-scan", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
