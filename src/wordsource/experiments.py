"""Named experiments, one per acceptance check, all seeded and config-driven.

Each experiment function takes a resolved ExperimentConfig and returns an
ExperimentResult holding a pass/fail verdict, a JSON-ready summary, and CSV
tables. Experiments never read the clock for anything that lands in a result
file, so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    DEFAULT_ENUMERATION_CELLS,
    InducedMeasure,
    _scan,
    aep_experiment,
    block_log_probability_table,  # unused here; bench/spans.py traces it under this module
    block_log_probability_tables,
    conservation_report,
)
from .ergodic import (
    CylinderFunction,
    ams_diagnostic,
    check_order,
    default_checkpoints,
    ergodicity_spread,
    time_average,
)
from .errors import ConfigError, DomainError, RangeError, ResourceError, UnsupportedModelError
from .oracles import brute_force_induced_log_table
from .shifts import (
    TimeSubsequence,
    VariableLengthShiftSpec,
    _periodic,
    alternating_trace,
    bellow_check,
    finite_state_orbit_coder,
    variable_length_orbit,
    weight_sequence,
)
from .sources import (NEG_INF, MarkovSource, check_shift_steps, model_from_config,
                      stationary_distribution)
from .wordcode import WordFunction, encode_stream, is_prefix_free, word_function_from_config


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    tables: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# randomized model / codebook generators (used by dp-oracle and the tests)
# ---------------------------------------------------------------------------

def random_model_config(rng, alphabet_size, kind):
    """A random model config of the given kind over the given alphabet."""
    if kind == "iid":
        return {"type": "iid", "dist": rng.dirichlet(np.ones(alphabet_size)).tolist()}
    if kind == "markov":
        mat = [rng.dirichlet(np.ones(alphabet_size)).tolist() for _ in range(alphabet_size)]
        init = rng.dirichlet(np.ones(alphabet_size)).tolist()
        return {"type": "markov", "P": mat, "init": init}
    if kind == "mixture":
        comps = [random_model_config(rng, alphabet_size, "iid") for _ in range(2)]
        w = float(rng.uniform(0.2, 0.8))
        return {"type": "mixture", "weights": [w, 1.0 - w], "components": comps}
    raise ConfigError(f"unknown random model kind {kind!r}")


def random_codebook(rng, input_size, output_size, max_len):
    """Unconstrained random codebook (usually not prefix-free)."""
    codewords = []
    for _ in range(input_size):
        length = int(rng.integers(1, max_len + 1))
        codewords.append(tuple(int(s) for s in rng.integers(0, output_size, size=length)))
    return WordFunction(input_size, output_size, tuple(codewords))


def random_prefix_free_codebook(rng, input_size, output_size, max_len):
    """Random prefix-free codebook via a canonical assignment of random lengths."""
    if input_size > output_size**max_len:
        # even all-max_len lengths break Kraft's inequality, so no draw would fit
        raise DomainError(f"{input_size} codewords of length <= {max_len} over {output_size} "
                          f"symbols cannot satisfy Kraft's inequality")
    while True:
        lengths = rng.integers(1, max_len + 1, size=input_size)
        if sum(output_size ** -int(l) for l in lengths) <= 1.0 + 1e-12:
            break
    order = np.argsort(lengths, kind="stable")
    code = 0
    prev_len = None
    codewords = [None] * input_size
    for sym in order:
        length = int(lengths[sym])
        if prev_len is not None:
            code = (code + 1) * output_size ** (length - prev_len)
        codewords[int(sym)] = tuple(map(int, np.unravel_index(code, (output_size,) * length)))
        prev_len = length
    return WordFunction(input_size, output_size, tuple(codewords))


# ---------------------------------------------------------------------------
# experiment 1: DP vs brute-force oracle
# ---------------------------------------------------------------------------

def run_dp_oracle(cfg):
    p = cfg.params
    pairs, max_block = int(p["pairs"]), int(p["max_block"])
    tol = float(cfg.tolerances["log_abs"])
    rng = np.random.default_rng(cfg.seed)
    kinds = ["iid", "markov", "mixture"]
    rows = []
    max_err = 0.0
    mask_mismatches = 0
    spot_failures = 0
    prefix_free_count = 0
    for pair in range(pairs):
        A = int(rng.integers(2, 4))
        B = int(rng.integers(2, 4))
        model = model_from_config(random_model_config(rng, A, kinds[pair % 3]))
        if pair % 2 == 0:
            wf = random_prefix_free_codebook(rng, A, B, max_len=3)
        else:
            wf = random_codebook(rng, A, B, max_len=3)
        pf = bool(is_prefix_free(wf))
        prefix_free_count += pf
        induced = InducedMeasure(model, wf)
        pair_err = 0.0
        for n, dp in enumerate(block_log_probability_tables(induced, max_block), 1):
            oracle = brute_force_induced_log_table(model, wf, n)
            dp_mask = dp > NEG_INF
            or_mask = oracle > NEG_INF
            if not np.array_equal(dp_mask, or_mask):
                mask_mismatches += 1
                continue
            if dp_mask.any():
                pair_err = max(pair_err, float(np.abs(dp[dp_mask] - oracle[or_mask]).max()))
            # spot-check the per-tuple entry point against the shared table, on a
            # fresh measure whose chain the table walk never touched
            for _ in range(3):
                code = int(rng.integers(0, B**n))
                tup = [(code // B**i) % B for i in range(n - 1, -1, -1)]
                direct = InducedMeasure(model, wf).cylinder_log_probability(tup)
                ref = float(dp[code])
                if direct == NEG_INF or ref == NEG_INF:
                    spot_failures += direct != ref
                elif abs(direct - ref) > tol:
                    spot_failures += 1
        max_err = max(max_err, pair_err)
        rows.append((pair, kinds[pair % 3], A, B,
                     "|".join("".join(map(str, c)) for c in wf.codewords),
                     int(pf), repr(pair_err)))
    passed = mask_mismatches == 0 and spot_failures == 0 and max_err <= tol
    summary = {
        "pairs": pairs,
        "max_block": max_block,
        "max_abs_log_error": max_err,
        "mask_mismatches": mask_mismatches,
        "spot_failures": spot_failures,
        "prefix_free_pairs": prefix_free_count,
        "tolerance": tol,
    }
    table = (["pair", "model_kind", "input_alphabet", "output_alphabet",
              "code", "prefix_free", "max_abs_log_error"], rows)
    return ExperimentResult("dp-oracle", passed, summary, {"pairs": table})


# ---------------------------------------------------------------------------
# experiments 2-5: AEP runs and conservation of entropy
# ---------------------------------------------------------------------------

def _rate_gap(report, tol):
    """(measured block entropy rate minus the integral bound, whether it holds):
    ``|gap| <= tol`` for a prefix-free code, ``gap <= tol`` for any other."""
    gap = report.empirical_entropy_rate - report.integral_bound
    return gap, abs(gap) <= tol if report.prefix_free else gap <= tol


def run_aep(cfg):
    """Per-path AEP, one runner for aep-prefix-free, aep-non-prefix-free and aep-mixture.

    ``aep_experiment`` judges each path against its own component's bound.
    Every path must be ``equality`` for a prefix-free code, and none a
    ``violation`` for any other; codewords over one output symbol give a
    constant stream, whose sample entropies must all be exactly 0. Where the
    config has them, ``tolerances.cluster_weight`` checks each component's
    share of the paths against its weight, and ``params.block_cap`` checks the
    conditional block entropy against the integral bound by conservation's rule.
    """
    model = model_from_config(cfg.model)
    wf = word_function_from_config(cfg.codebook)
    tols = cfg.tolerances
    # built first, so a cap the tables refuse is refused before any path is drawn
    cons = (conservation_report(model, wf, block_cap=int(cfg.params["block_cap"]))
            if "block_cap" in cfg.params else None)
    tol = float(tols["equality"])
    reports = aep_experiment(model, wf, cfg.horizon, cfg.paths, cfg.seed, tol=tol)
    verdicts = {"equality": 0, "strict_inequality": 0, "violation": 0}
    for r in reports:
        verdicts[r.verdict] += 1
    components = reports[0].per_component
    prefix_free = reports[0].prefix_free
    all_zero = all(r.empirical_h == 0.0 for r in reports)
    constant_output = len({s for word in wf.codewords for s in word}) == 1
    shares = [sum(r.component_index == c for r in reports) / len(reports)
              for c in range(len(components))]
    weights = [cb.weight for cb in components]
    passed = ((verdicts["equality"] == len(reports) if prefix_free else verdicts["violation"] == 0)
              and (all_zero or not constant_output))
    summary = {
        "paths": cfg.paths,
        "verdicts": verdicts,
        "bound": math.fsum(cb.weight * cb.bound for cb in components),
        "prefix_free": prefix_free,
        "all_sample_entropies_zero": all_zero,
        "equality_tolerance": tol,
        "component_bounds": [cb.bound for cb in components],
        "component_weights": weights,
        "cluster_shares": shares,
    }
    if "cluster_weight" in tols:
        summary["weight_tolerance"] = weight_tol = float(tols["cluster_weight"])
        passed = passed and all(abs(s - w) <= weight_tol for s, w in zip(shares, weights))
    if cons is not None:
        summary["conditional_tolerance"] = cond_tol = float(tols["conditional_entropy"])
        summary["conditional_block_entropy"] = cons.empirical_entropy_rate
        summary["block_cap"] = cons.block_cap
        passed = passed and _rate_gap(cons, cond_tol)[1]
    columns = ["path", "component", "input_horizon", "output_horizon",
               "empirical_h", "bound", "verdict",
               "source_sample_entropy", "scaled_output_sample_entropy"]
    rows = [
        (r.path_index, r.component_index, r.input_horizon, r.output_horizon,
         repr(r.empirical_h), repr(r.bound), r.verdict,
         repr(r.source_sample_entropy), repr(r.scaled_output_sample_entropy))
        for r in reports
    ]
    return ExperimentResult(cfg.experiment, passed, summary, {"paths": (columns, rows)})


def run_conservation(cfg):
    model = model_from_config(cfg.model)
    wf = word_function_from_config(cfg.codebook)
    cap = int(cfg.params["block_cap"])
    tol = float(cfg.tolerances["conservation"])
    report = conservation_report(model, wf, block_cap=cap)
    rows = []
    prev = None
    for n, h in enumerate(report.block_entropies, start=1):
        rows.append((n, repr(h), repr(h - prev) if prev is not None else ""))
        prev = h
    gap, passed = _rate_gap(report, tol)
    summary = {
        "integral_bound": report.integral_bound,
        "empirical_entropy_rate": report.empirical_entropy_rate,
        "gap": gap,
        "block_cap": cap,
        "tolerance": tol,
        "prefix_free": report.prefix_free,
        "per_component": [cb._asdict() for cb in report.per_component],
    }
    return ExperimentResult("conservation", passed, summary,
                            {"block_entropy": (["n", "H_n", "H_n_minus_H_prev"], rows)})


# ---------------------------------------------------------------------------
# experiment 6: AMS but not stationary
# ---------------------------------------------------------------------------

def run_ams_markov(cfg):
    p = cfg.params
    periodic = model_from_config(p["periodic_model"])
    aperiodic = model_from_config(p["aperiodic_model"])
    if not (isinstance(periodic, MarkovSource) and np.isin(periodic.matrix, (0, 1)).all()
            and periodic.is_irreducible() and periodic.period() > 1):
        raise UnsupportedModelError("params.periodic_model: needs a periodic irreducible 0/1 chain")
    horizon = cfg.horizon
    cyl = [0]
    step_count = int(p["per_step_count"])
    check_shift_steps(max(step_count, horizon) - 1)  # the per-step and Cesaro shifts
    per_step = periodic.shifted_cylinder_probability(cyl, np.arange(step_count)).tolist()
    # a 0/1 chain's powers are 0/1 matrices, so these products are exact
    alternates = per_step == [(periodic.initial @ np.linalg.matrix_power(periodic.matrix, i))[0]
                              for i in range(step_count)]
    periodic_trace = ams_diagnostic(periodic, [cyl], horizon)[0]
    cps, cesaro_periodic = periodic_trace.checkpoints, periodic_trace.partial_averages
    periodic_target = stationary_distribution(periodic.matrix)[0]  # the Cesaro limit of [0]
    periodic_ok = bool(np.all(np.abs(cesaro_periodic - periodic_target) <= 1.0 / cps))
    if not isinstance(aperiodic, MarkovSource) or aperiodic.period() != 1:  # raises if reducible
        raise UnsupportedModelError("params.aperiodic_model: needs an irreducible aperiodic chain")
    aper_target = float(stationary_distribution(aperiodic.matrix)[0])  # Cesaro limit of [0]
    aper_final = ams_diagnostic(aperiodic, [cyl], horizon)[0].final
    aper_tol = float(cfg.tolerances["cesaro"])
    aper_ok = abs(aper_final - aper_target) <= aper_tol
    rows_step = [(i, repr(v)) for i, v in enumerate(per_step)]
    rows_ces = [(int(n), repr(float(v))) for n, v in zip(cps, cesaro_periodic)]
    passed = alternates and periodic_ok and aper_ok
    summary = {
        "periodic_alternates": bool(alternates),
        "periodic_cesaro_within_1_over_n": periodic_ok,
        "aperiodic_cesaro_final": aper_final,
        "aperiodic_target": aper_target,
        "aperiodic_tolerance": aper_tol,
        "horizon": horizon,
    }
    return ExperimentResult("ams-markov", passed, summary, {
        "per_step": (["i", "shifted_probability"], rows_step),
        "cesaro": (["n", "cesaro_average"], rows_ces),
    })


# ---------------------------------------------------------------------------
# experiment 7: output-side ergodic theorem instances
# ---------------------------------------------------------------------------

def _indicator_battery(alphabet_size, max_order):
    battery = []
    for order in range(1, max_order + 1):
        for pattern in itertools.product(range(alphabet_size), repeat=order):
            battery.append(CylinderFunction.indicator(alphabet_size, pattern))
    return battery


def run_output_ergodicity(cfg):
    p = cfg.params
    wf = word_function_from_config(cfg.codebook)
    horizon = cfg.horizon
    spread_tol = float(cfg.tolerances["spread"])
    conv_tol = float(cfg.tolerances["convergence"])
    control_min = float(cfg.tolerances["control_min_spread"])
    named_models = [(name, model_from_config(mconf)) for name, mconf in p["models"].items()]
    mixture = model_from_config(p["mixture_model"])
    for path, model in [*((f"models.{name}", m) for name, m in named_models),
                        ("mixture_model", mixture)]:
        if model.alphabet_size != wf.input_alphabet_size:
            raise ConfigError(f"params.{path}: a model over {model.alphabet_size} "
                              f"symbols, but the codebook reads {wf.input_alphabet_size}")
    max_order = int(p["max_order"])
    check_order(max_order)
    # the larger alphabet's battery holds A**k tables of A**k cells per order k
    A = max(wf.input_alphabet_size, wf.output_alphabet_size)
    cells = sum(A ** (2 * k) for k in range(1, max_order + 1))
    if cells > DEFAULT_ENUMERATION_CELLS:
        raise ResourceError(f"params.max_order: {max_order} needs {cells} indicator table cells "
                            f"over {A} symbols, over the cap of {DEFAULT_ENUMERATION_CELLS}")
    for key in ("battery_paths", "spread_paths", "control_paths"):
        if p[key] > DEFAULT_ENUMERATION_CELLS:
            raise ResourceError(f"params.{key}: {p[key]} paths, over the cap of "
                                f"{DEFAULT_ENUMERATION_CELLS}")
    check_shift_steps(horizon - 1)  # the mixture's Cesaro trace
    battery_in = _indicator_battery(wf.input_alphabet_size, max_order)
    battery_out = _indicator_battery(wf.output_alphabet_size, max_order)
    cps = default_checkpoints(horizon)
    rows = []
    all_ok = True
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(len(named_models) + 1)
    for (name, model), child in zip(named_models, children):
        for path_idx in range(int(p["battery_paths"])):
            need = horizon + max_order
            ps = model.sample_path(need, child.spawn(1)[0])
            enc = encode_stream(wf, ps.symbols)
            source_conv = all(
                time_average(ps.symbols, g, cps, tol=conv_tol).converged
                for g in battery_in
            )
            out_syms = enc.output[: horizon + max_order]
            output_conv = all(
                time_average(out_syms, g, cps, tol=conv_tol).converged
                for g in battery_out
            )
            all_ok = all_ok and source_conv and output_conv
            rows.append((name, path_idx, int(source_conv), int(output_conv)))
    # cross-path spread on the encoded side; the deterministic periodic chain
    # gives identical paths, so it sits at spread 0
    spread_rows = []
    g0 = CylinderFunction.indicator(wf.output_alphabet_size, [0])
    spreads_ok = True
    for (name, model), child in zip(named_models, children):
        induced = InducedMeasure(model, wf)
        sr = ergodicity_spread(induced, g0, int(p["spread_paths"]), horizon,
                               child.spawn(1)[0])
        spread_rows.append((name, repr(sr.spread)))
        spreads_ok = spreads_ok and sr.spread < spread_tol
    induced_mix = InducedMeasure(mixture, wf)
    sr_mix = ergodicity_spread(induced_mix, g0, int(p["control_paths"]), horizon,
                               children[-1])
    spread_rows.append(("mixture", repr(sr_mix.spread)))
    control_ok = sr_mix.spread > control_min
    mix_ams = ams_diagnostic(mixture, [[0]], horizon, tol=conv_tol)[0].converged
    passed = all_ok and spreads_ok and control_ok and mix_ams
    summary = {
        "battery_indicators": len(battery_out),
        "battery_paths": int(p["battery_paths"]),
        "battery_converged": all_ok,
        "spread_tolerance": spread_tol,
        "spreads_ok": spreads_ok,
        "mixture_spread": sr_mix.spread,
        "control_min_spread": control_min,
        "mixture_fails_threshold": control_ok,
        "mixture_ams_converged": bool(mix_ams),
        "horizon": horizon,
    }
    return ExperimentResult("output-ergodicity", passed, summary, {
        "battery": (["model", "path", "source_converged", "output_converged"], rows),
        "spreads": (["model", "spread"], spread_rows),
    })


# ---------------------------------------------------------------------------
# experiment 8: orbit coder equivalence
# ---------------------------------------------------------------------------

def run_coder_equivalence(cfg):
    p = cfg.params
    trials = int(p["trials"])
    max_horizon = cfg.horizon
    if max_horizon < 100:  # trial horizons are drawn log-uniformly from [100, horizon]
        raise ConfigError(f"horizon: must be >= 100 for coder-equivalence, got {max_horizon}")
    full_trials = int(p["full_horizon_trials"])
    rng = np.random.default_rng(cfg.seed)
    mismatches = 0
    rows = []
    for trial in range(trials):
        A = int(rng.integers(2, 4))
        M = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        table = rng.integers(1, N + 1, size=A**M)
        spec = VariableLengthShiftSpec(alphabet_size=A, lookahead=M,
                                       max_shift=N, table=table)
        if trial < full_trials:
            horizon = max_horizon
        else:
            horizon = int(np.exp(rng.uniform(np.log(100), np.log(max_horizon))))
        w = rng.integers(0, A, size=horizon + M + N + 1)
        z = finite_state_orbit_coder(spec.shift_values(w[:horizon + M]), horizon + 1, max_shift=N)
        try:
            # the coder's marks over [0, horizon] are the orbit steps that pass the horizon
            orbit = variable_length_orbit(spec, w, int(z.sum()))
            xi, density = weight_sequence(orbit, horizon)
            equal = bool(np.array_equal(xi, z[:horizon]))
        except RangeError:  # the orbit cannot take those steps or falls short: a mismatch
            equal, density = False, math.nan
        mismatches += not equal
        if trial < 50 or not equal:
            rows.append((trial, A, M, N, horizon, repr(float(density)), int(equal)))
    passed = mismatches == 0
    summary = {
        "trials": trials,
        "full_horizon_trials": full_trials,
        "max_horizon": max_horizon,
        "mismatches": mismatches,
    }
    return ExperimentResult("coder-equivalence", passed, summary, {
        "trials": (["trial", "alphabet", "lookahead", "max_shift", "horizon",
                    "partial_density", "coder_matches_orbit"], rows),
    })


# ---------------------------------------------------------------------------
# experiment 9: density lemma partial sums
# ---------------------------------------------------------------------------

def _periodic_case_limit(gaps, r_values):
    """Exact limit of (1/n) sum xi_i r_i for a periodic gap cycle and periodic r.

    Both sequences repeat with period lcm(sum(gaps), len(r_values)), so the
    limit is the average over one combined period.
    """
    span = int(sum(gaps))
    q = len(r_values)
    period = span * q // math.gcd(span, q)
    cycle = np.zeros(span)
    cycle[np.cumsum([0, *gaps[:-1]])] = 1.0  # orbit positions in one gap cycle
    xi = _periodic(cycle, period)
    r = _periodic(r_values, period)
    return float((xi * r).sum() / period)


def run_bellow(cfg):
    p = cfg.params
    cases = int(p["cases"])
    horizon = cfg.horizon
    tol = float(cfg.tolerances["limit"])
    special_tol = float(cfg.tolerances["special"])
    # the even / alternating case, drawn first so its arrays are freed before the cases'
    tens = [10**e for e in range(1, len(str(horizon - 1)))]  # 10, 100, ... below the horizon
    trace = alternating_trace(horizon, 2, tens + [horizon])
    _, special_lhs, special_rhs = trace[-1]
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_limit = 0.0
    worst_pair = 0.0
    for case in range(cases):
        n_gaps = int(rng.integers(1, 5))
        gaps = [int(g) for g in rng.integers(1, 7, size=n_gaps)]
        q = int(rng.integers(1, 9))
        r_vals = [float(v) for v in rng.uniform(-1.0, 1.0, size=q)]
        reps = horizon // sum(gaps) + 2
        zeta = np.concatenate([[0], np.cumsum(np.tile(gaps, reps))])
        ts = TimeSubsequence(zeta=zeta)
        r = _periodic(r_vals, horizon)
        partials = bellow_check(r, ts, horizon)
        limit = _periodic_case_limit(gaps, r_vals)
        err_limit = abs(partials.lhs - limit)
        err_pair = abs(partials.lhs - partials.rhs)
        worst_limit = max(worst_limit, err_limit)
        worst_pair = max(worst_pair, err_pair)
        rows.append((case, "".join(map(str, gaps)), q, repr(partials.lhs),
                     repr(partials.rhs), repr(limit)))
    special_ok = abs(special_lhs - 0.5) <= special_tol and abs(special_rhs - 0.5) <= special_tol
    passed = worst_limit < tol and worst_pair < tol and special_ok
    summary = {
        "cases": cases,
        "horizon": horizon,
        "max_limit_error": worst_limit,
        "max_pair_gap": worst_pair,
        "tolerance": tol,
        "special_lhs": special_lhs,
        "special_rhs": special_rhs,
        "special_tolerance": special_tol,
    }
    return ExperimentResult("bellow", passed, summary, {
        "cases": (["case", "gap_cycle", "r_period", "lhs", "rhs", "closed_form"], rows),
        "even_alternating": (["n", "lhs_partial", "rhs_partial"],
                             [(n, repr(lhs), repr(rhs)) for n, lhs, rhs in trace]),
    })


# ---------------------------------------------------------------------------
# experiment 10: prefix-free log-probability identity
# ---------------------------------------------------------------------------

def run_log_identity(cfg):
    p = cfg.params
    model = model_from_config(cfg.model)
    wf_pf = word_function_from_config(cfg.codebook)
    wf_npf = word_function_from_config(p["non_prefix_free_codebook"])
    max_len = int(p["max_tuple_length"])
    tuples_at_max = model.alphabet_size**max_len
    if tuples_at_max > DEFAULT_ENUMERATION_CELLS:
        raise ResourceError(
            f"log-identity enumerates {tuples_at_max} tuples of length {max_len}, "
            f"over the cap of {DEFAULT_ENUMERATION_CELLS}"
        )
    tol = float(cfg.tolerances["log_abs"])
    induced_pf = InducedMeasure(model, wf_pf)
    induced_npf = InducedMeasure(model, wf_npf)
    worst_eq = 0.0
    inequality_failures = 0
    checked = 0
    tuples = list(itertools.product(range(model.alphabet_size), repeat=max_len))
    # one encode per codebook; tuple t's prefix of length n ends at boundaries[t max_len + n]
    encs = [encode_stream(wf, np.array(tuples).ravel()) for wf in (wf_pf, wf_npf)]
    outs, cuts = [e.output.tolist() for e in encs], [e.boundaries.tolist() for e in encs]
    for t, tup in enumerate(tuples):
        # each tuple of length 1 .. max_len is checked once: as a prefix of itself padded with 0s
        lengths = range(max((i + 1 for i, s in enumerate(tup) if s), default=1), max_len + 1)
        out_lps = []
        for induced, out, cut in zip((induced_pf, induced_npf), outs, cuts):
            lo = cut[t * max_len]
            marks = [cut[t * max_len + n] - lo for n in lengths]
            out_lps.append(_scan(induced, out[lo:lo + marks[-1]], marks)[0])
        for n, out_lp, out_lp2 in zip(lengths, *out_lps):
            checked += 1
            source_lp = model.cylinder_log_probability(tup[:n])
            worst_eq = max(worst_eq, abs(source_lp - out_lp))
            if source_lp > out_lp2 + tol:
                inequality_failures += 1
    passed = worst_eq <= tol and inequality_failures == 0
    summary = {
        "tuples_checked": checked,
        "max_tuple_length": max_len,
        "max_equality_gap": worst_eq,
        "inequality_failures": inequality_failures,
        "tolerance": tol,
    }
    return ExperimentResult("log-identity", passed, summary)


# ---------------------------------------------------------------------------
# experiment 11: byte-level determinism of a full run
# ---------------------------------------------------------------------------

def run_determinism(cfg):
    # imported here: harness imports this module
    from .harness import resolve_config, run_experiment

    import tempfile
    from pathlib import Path

    inner = dict(cfg.params["inner"])
    digests = []
    listings = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("a", "b"):
            inner_cfg = resolve_config({**inner, "output_dir": str(Path(tmp) / tag)})
            run_experiment(inner_cfg)
            files = sorted(Path(tmp, tag).glob("*"))
            listings.append([f.name for f in files])
            digests.append({f.name: f.read_bytes() for f in files})
    identical = listings[0] == listings[1] and digests[0] == digests[1]
    summary = {
        "inner_experiment": inner.get("experiment"),
        "files": listings[0],
        "byte_identical": identical,
    }
    return ExperimentResult("determinism", identical, summary)


REGISTRY = {
    "dp-oracle": run_dp_oracle,
    "aep-prefix-free": run_aep,
    "aep-non-prefix-free": run_aep,
    "aep-mixture": run_aep,
    "conservation": run_conservation,
    "ams-markov": run_ams_markov,
    "output-ergodicity": run_output_ergodicity,
    "coder-equivalence": run_coder_equivalence,
    "bellow": run_bellow,
    "log-identity": run_log_identity,
    "determinism": run_determinism,
}
