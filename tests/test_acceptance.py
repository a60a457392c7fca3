"""Acceptance suite: every criterion as one named, config-driven experiment.

Each test resolves the shipped config from configs/, runs the experiment
through the same code path as the CLI, asserts the stated tolerances, and
prints one pass/fail line (visible with ``pytest -s`` or in captured output).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wordsource.harness import run_experiment, validate_config
from wordsource.experiments import REGISTRY

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def run_config(name, tmp_path):
    cfg = validate_config(CONFIG_DIR / name)
    cfg.output_dir = str(tmp_path)
    manifest = run_experiment(cfg)
    summary = json.loads(
        (tmp_path / f"{cfg.experiment}.summary.json").read_text()
    )["summary"]
    return manifest, summary


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_01_dp_matches_oracle(tmp_path):
    start = time.perf_counter()
    manifest, summary = run_config("dp_oracle.json", tmp_path)
    elapsed = time.perf_counter() - start
    ok = (
        manifest.passed
        and summary["pairs"] == 50
        and summary["max_block"] == 8
        and summary["mask_mismatches"] == 0
        and summary["max_abs_log_error"] <= 1e-10
        and elapsed < 120.0
    )
    report(1, ok,
           f"50 randomized pairs, all blocks n<=8, max log error "
           f"{summary['max_abs_log_error']:.2e}, {elapsed:.1f}s")


def test_criterion_02_prefix_free_equality(tmp_path):
    manifest, summary = run_config("aep_prefix_free.json", tmp_path)
    ok = (
        manifest.passed
        and abs(summary["bound"] - 2 / 3) < 1e-12
        and summary["paths"] == 100
        and abs(summary["conditional_block_entropy"] - 2 / 3) <= 0.01
        and summary["verdicts"]["equality"] == 100
    )
    report(2, ok,
           f"bound 2/3, {summary['verdicts']['equality']}/100 paths within 0.02, "
           f"H14-H13 = {summary['conditional_block_entropy']:.5f}")


def test_criterion_03_non_prefix_free_strict_inequality(tmp_path):
    manifest, summary = run_config("aep_non_prefix_free.json", tmp_path)
    ok = (
        manifest.passed
        and summary["all_sample_entropies_zero"]
        and abs(summary["bound"] - 2 / 3) < 1e-12
        and summary["verdicts"]["strict_inequality"] == summary["paths"]
    )
    report(3, ok,
           f"all {summary['paths']} sample entropies exactly 0, bound 2/3, "
           f"all verdicts strict_inequality")


def test_criterion_04_mixture_per_component_clusters(tmp_path):
    manifest, summary = run_config("aep_mixture.json", tmp_path)
    expected = [2 / 3, binary_entropy(0.9) / 1.1]
    bounds = summary["component_bounds"]
    ok = (
        manifest.passed
        and summary["paths"] == 200
        and all(abs(b - e) < 1e-12 for b, e in zip(bounds, expected))
        and summary["verdicts"]["equality"] == 200
        and all(abs(s - 0.5) <= 0.1 for s in summary["cluster_shares"])
    )
    report(4, ok,
           f"clusters at {bounds[0]:.4f} and {bounds[1]:.4f} (tol 0.03), "
           f"shares {summary['cluster_shares']}")


def test_criterion_05_conservation_integral(tmp_path):
    manifest, summary = run_config("conservation_mixture.json", tmp_path)
    target = 0.5 * (2 / 3) + 0.5 * (binary_entropy(0.9) / 1.1)
    ok = (
        manifest.passed
        and abs(summary["integral_bound"] - target) < 1e-12
        and abs(summary["empirical_entropy_rate"] - target) <= 0.05
    )
    report(5, ok,
           f"H14-H13 = {summary['empirical_entropy_rate']:.4f} vs integral "
           f"{target:.4f} (tol 0.05)")


def test_criterion_06_ams_not_stationary(tmp_path):
    manifest, summary = run_config("ams_markov.json", tmp_path)
    ok = (
        manifest.passed
        and summary["periodic_alternates"]
        and summary["periodic_cesaro_within_1_over_n"]
        and abs(summary["aperiodic_cesaro_final"] - 5 / 6) <= 1e-3
    )
    report(6, ok,
           f"periodic chain alternates with Cesaro -> 0.5 within 1/n; "
           f"aperiodic Cesaro {summary['aperiodic_cesaro_final']:.6f} vs 5/6")


def test_criterion_07_output_side_ergodicity(tmp_path):
    manifest, summary = run_config("output_ergodicity.json", tmp_path)
    ok = (
        manifest.passed
        and summary["battery_converged"]
        and summary["spreads_ok"]
        and summary["mixture_spread"] > 0.1
        and summary["mixture_ams_converged"]
    )
    report(7, ok,
           f"order<=3 battery converged, encoded-side spreads < 0.02, "
           f"mixture control spread {summary['mixture_spread']:.3f} > 0.1")


def test_criterion_08_coder_equivalence(tmp_path):
    manifest, summary = run_config("coder_equivalence.json", tmp_path)
    ok = (
        manifest.passed
        and summary["trials"] == 1000
        and summary["mismatches"] == 0
        and summary["max_horizon"] == 10_000
        and summary["full_horizon_trials"] >= 50
    )
    report(8, ok, "1000 randomized specs, coder output equals orbit weights")


def test_criterion_09_bellow_partial_sums(tmp_path):
    manifest, summary = run_config("bellow.json", tmp_path)
    ok = (
        manifest.passed
        and summary["cases"] == 100
        and summary["horizon"] == 100_000
        and summary["max_limit_error"] < 0.01
        and summary["max_pair_gap"] < 0.01
        and abs(summary["special_lhs"] - 0.5) <= 1e-3
        and abs(summary["special_rhs"] - 0.5) <= 1e-3
    )
    report(9, ok,
           f"100 cases at n=1e5, max closed-form error "
           f"{summary['max_limit_error']:.2e}; even/alternating at 0.5")


def test_criterion_10_log_probability_identity(tmp_path):
    manifest, summary = run_config("log_identity.json", tmp_path)
    ok = (
        manifest.passed
        and summary["tuples_checked"] == sum(2**n for n in range(1, 9))
        and summary["max_equality_gap"] <= 1e-12
        and summary["inequality_failures"] == 0
    )
    report(10, ok,
           f"exhaustive |x|<=8: max equality gap {summary['max_equality_gap']:.2e}, "
           f"0 inequality failures")


def test_criterion_11_run_determinism(tmp_path):
    manifest, summary = run_config("determinism.json", tmp_path)
    ok = manifest.passed and summary["byte_identical"]

    # independent double run of a second shipped config
    blobs = []
    for tag in ("x", "y"):
        cfg = validate_config(CONFIG_DIR / "ams_markov.json")
        cfg.output_dir = str(tmp_path / tag)
        run_experiment(cfg)
        blobs.append({
            p.name: p.read_bytes() for p in sorted((tmp_path / tag).glob("*"))
        })
    ok = ok and blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(11, ok, "repeated runs produce byte-identical result files")


def test_every_criterion_has_a_shipped_config():
    by_experiment = {validate_config(p).experiment for p in CONFIG_DIR.glob("*.json")}
    assert by_experiment == set(REGISTRY)
