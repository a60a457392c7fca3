"""Correctness gate of the benchmark: exact checks and seeded-path references.

Only exceptions, exact checks and reference mismatches count as failed
calls. Finite-horizon statistical verdicts (the AEP equality band, spreads,
the convergence battery, cluster shares, the induced Cesaro estimate) are
counted as misses and reported, never failed. No tolerance here is looser
than the package's own.

Run as a script to print the reference digests the current code produces:
``python3 bench/checks.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Prefix-free codes make the output sample entropy, rescaled to the input
# horizon, equal the source sample entropy; measured <= 1.6e-13 at the
# baseline.
PREFIX_FREE_IDENTITY_TOL = 1e-9
# The dp-oracle experiment's own acceptance tolerance.
DP_ORACLE_LOG_TOL = 1e-10
ZERO_ZERO_CODE = ["0", "00"]


@dataclass
class Outcome:
    """Exact-check failures and statistical misses of one call."""

    failures: list = field(default_factory=list)
    misses: int = 0


def check_aep(spec, reports):
    """Exact checks on the AepReports of one ``aep_experiment`` call."""
    out = Outcome()
    zero_zero = spec["codebook"]["code"] == ZERO_ZERO_CODE
    for r in reports:
        if r.prefix_free:
            gap = abs(r.source_sample_entropy - r.scaled_output_sample_entropy)
            if not gap <= PREFIX_FREE_IDENTITY_TOL:
                out.failures.append(
                    f"path {r.path_index}: prefix-free identity gap {gap!r}")
        if zero_zero and r.empirical_h != 0.0:
            out.failures.append(
                f"path {r.path_index}: {{0,00}} empirical_h {r.empirical_h!r} != 0")
        expected = "equality" if r.prefix_free else "strict_inequality"
        out.misses += r.verdict != expected
    return out


def check_run(summary_doc):
    """Exact checks on the summary document one ``run_experiment`` wrote."""
    out = Outcome()
    name = summary_doc["experiment"]
    s = summary_doc["summary"]
    if name == "dp-oracle":
        if s["mask_mismatches"] != 0:
            out.failures.append(f"dp-oracle: {s['mask_mismatches']} support mismatches")
        if s["spot_failures"] != 0:
            out.failures.append(f"dp-oracle: {s['spot_failures']} spot-check failures")
        if not s["max_abs_log_error"] <= DP_ORACLE_LOG_TOL:
            out.failures.append(f"dp-oracle: log error {s['max_abs_log_error']!r}")
    elif name == "log-identity":
        if summary_doc["passed"] is not True:
            out.failures.append(
                f"log-identity: gap {s['max_equality_gap']!r}, "
                f"{s['inequality_failures']} inequality failures")
    elif name == "coder-equivalence":
        if s["mismatches"] != 0:
            out.failures.append(f"coder-equivalence: {s['mismatches']} mismatches")
    else:
        out.misses += summary_doc["passed"] is not True
    return out


def check_ams(verdicts):
    """The induced Cesaro estimate is statistical: count, never fail."""
    return Outcome(misses=sum(not v.converged for v in verdicts))


def summary_of(manifest):
    """The summary document of a RunManifest (always its first output file)."""
    return json.loads(Path(manifest.output_files[0]).read_text(encoding="utf-8"))


def _digest(arr):
    return hashlib.sha256(np.asarray(arr, dtype="<i8").tobytes()).hexdigest()


def path_digests(ws, case):
    """sha256 of the sampled path and of its encoding, as little-endian int64."""
    model = ws.sources.model_from_config(case["model"])
    wf = ws.wordcode.word_function_from_config(case["codebook"])
    symbols = model.sample_path(case["length"], case["seed"]).symbols
    return {"path_sha256": _digest(symbols),
            "output_sha256": _digest(ws.wordcode.encode_stream(wf, symbols).output)}


def check_reference(ws, case):
    """A failure for each digest of a seeded reference path that changed."""
    return Outcome(failures=[f"{key} changed" for key, value in path_digests(ws, case).items()
                             if case[key] != value])


def load_references():
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["cases"]


def _print_references():
    from workloads import (APERIODIC_MARKOV, BIASED_IID, CODE_PREFIX_FREE,
                           MIXTURE_HALF, import_package)

    ws = import_package()
    cases = []
    for name, model, seed in (("biased-iid", BIASED_IID, 101),
                              ("aperiodic-markov", APERIODIC_MARKOV, 202),
                              ("mixture-fair-component", MIXTURE_HALF, 303),
                              ("mixture-biased-component", MIXTURE_HALF, 304)):
        case = {"name": name, "model": model, "codebook": CODE_PREFIX_FREE,
                "seed": seed, "length": 100_000}
        cases.append({**case, **path_digests(ws, case)})
    print(json.dumps({"cases": cases}, indent=2))


if __name__ == "__main__":
    _print_references()
