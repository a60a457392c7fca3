"""Induced measures: DP vs enumeration, block entropies, traces, AEP runs."""

import ast
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsource import (
    DomainError,
    IIDSource,
    InducedMeasure,
    MarkovSource,
    MixtureSource,
    ResourceError,
    WordFunction,
    aep_experiment,
    block_log_probability_table,
    component_bounds,
    conservation_report,
    encode_stream,
    entropy,
    is_prefix_free,
    joint_entropy_exact,
    sample_entropy_trace,
)
from wordsource.entropy import _scan
from wordsource.experiments import (
    random_codebook,
    random_model_config,
    random_prefix_free_codebook,
)
from wordsource import experiments, oracles
from wordsource.harness import resolve_config
from wordsource.oracles import brute_force_induced_log_table
from wordsource.sources import log_mixture, model_from_config

NEG_INF = float("-inf")
FAIR = IIDSource([0.5, 0.5])
WF = WordFunction(2, 2, ((0,), (1, 0)))
WF_ALL_ZERO = WordFunction(2, 2, ((0,), (0, 0)))
MIX = MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


# -- induced cylinder probabilities ------------------------------------------

def test_induced_single_symbol():
    assert InducedMeasure(FAIR, WF).cylinder_log_probability([0]) == pytest.approx(
        math.log(0.5), abs=1e-15
    )


def test_induced_two_symbols():
    assert InducedMeasure(FAIR, WF).cylinder_log_probability([1, 0]) == pytest.approx(
        math.log(0.5), abs=1e-15
    )


def test_induced_no_preimage():
    assert InducedMeasure(FAIR, WF).cylinder_log_probability([1, 1]) == NEG_INF


def test_induced_non_prefix_free_all_zeros():
    assert InducedMeasure(FAIR, WF_ALL_ZERO).cylinder_log_probability([0, 0]) == 0.0


def test_induced_alphabet_mismatch():
    with pytest.raises(DomainError):
        InducedMeasure(IIDSource([0.4, 0.3, 0.3]), WF)


def test_dp_matches_brute_force_randomized():
    rng = np.random.default_rng(1812)
    kinds = ["iid", "markov", "mixture"]
    for trial in range(12):
        A = int(rng.integers(2, 4))
        B = int(rng.integers(2, 4))
        model = model_from_config(random_model_config(rng, A, kinds[trial % 3]))
        if trial % 2 == 0:
            wf = random_prefix_free_codebook(rng, A, B, 3)
        else:
            wf = random_codebook(rng, A, B, 3)
        induced = InducedMeasure(model, wf)
        for n in range(1, 9):
            dp = block_log_probability_table(induced, n)
            oracle = brute_force_induced_log_table(model, wf, n)
            dp_mask = dp > NEG_INF
            assert np.array_equal(dp_mask, oracle > NEG_INF)
            if dp_mask.any():
                assert np.abs(dp[dp_mask] - oracle[dp_mask]).max() < 1e-10


def test_induced_normalization():
    for model, wf in [(FAIR, WF), (FAIR, WF_ALL_ZERO), (MIX, WF)]:
        induced = InducedMeasure(model, wf)
        for n in (1, 5, 10):
            table = block_log_probability_table(induced, n)
            total = np.exp(table[table > NEG_INF]).sum()
            assert abs(total - 1.0) < 1e-9


def test_induced_consistency():
    induced = InducedMeasure(MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0]), WF)
    for n in range(1, 9):
        parent = block_log_probability_table(induced, n)
        child = block_log_probability_table(induced, n + 1).reshape(-1, 2)
        child_lin = np.where(child > NEG_INF, np.exp(child), 0.0).sum(axis=1)
        parent_lin = np.where(parent > NEG_INF, np.exp(parent), 0.0)
        assert np.abs(parent_lin - child_lin).max() < 1e-10


def test_monotone_cylinder_probabilities():
    rng = np.random.default_rng(5)
    induced = InducedMeasure(FAIR, WF)
    for _ in range(10):
        y = InducedMeasure(FAIR, WF).sample_path(60, int(rng.integers(1 << 30))).symbols
        lps, _ = _scan(induced, y.tolist(), list(range(1, len(y) + 1)))
        prev = 0.0
        for lp in lps:
            assert lp <= prev + 1e-12
            prev = lp


def test_induced_shifted_probability():
    induced = InducedMeasure(FAIR, WF)
    # output marginal after one step: q(00) + q(10) = 0.25 + 0.5
    assert induced.shifted_cylinder_probability([0], 1) == pytest.approx(0.75, abs=1e-12)
    assert induced.shifted_cylinder_probability([0], 0) == pytest.approx(0.5, abs=1e-15)


def test_shifted_probability_stays_in_unit_interval():
    # under {0, 00} every output symbol is 0; summing this chain's forward
    # vector lifts the Markov source's value to 1.0000000000000004 unclamped
    chain = MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])
    for model in (chain, FAIR):
        induced = InducedMeasure(model, WF_ALL_ZERO)
        assert induced.shifted_cylinder_probability([0], np.arange(21)).tolist() == [1.0] * 21
    # a chain whose mass exceeds 1 beyond rounding is an accounting bug
    matrix, matrix_t, start, emits = induced._chain.dense
    induced._chain.__dict__["dense"] = (matrix, matrix_t, 2.0 * start, emits)
    with pytest.raises(ArithmeticError):
        induced.shifted_cylinder_probability([0], 3)


# -- block entropies -----------------------------------------------------------

def test_joint_entropy_fair_coin():
    assert joint_entropy_exact(FAIR, 3) == pytest.approx(3.0, abs=1e-12)


def test_joint_entropy_induced_single_symbol():
    assert joint_entropy_exact(InducedMeasure(FAIR, WF), 1) == pytest.approx(1.0, abs=1e-12)


def test_joint_entropy_deterministic_measure():
    point = IIDSource([1.0, 0.0])
    h = joint_entropy_exact(point, 6)
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_joint_entropy_enumeration_cap():
    with pytest.raises(ResourceError):
        joint_entropy_exact(FAIR, 25)


# -- sample entropy traces -------------------------------------------------------

def test_trace_fair_coin_one_bit_at_every_checkpoint():
    path = FAIR.sample_path(2000, seed=1)
    trace = sample_entropy_trace(FAIR, path.symbols, [10, 50, 500, 2000])
    assert np.allclose(trace.values, 1.0, atol=1e-12)
    assert trace.converged


def test_trace_biased_iid_matches_loglikelihood_average():
    model = IIDSource([0.9, 0.1])
    path = model.sample_path(10**4, seed=2)
    trace = sample_entropy_trace(model, path.symbols, [10**4])
    # independent oracle: average per-symbol log likelihood
    probs = np.where(path.symbols == 0, 0.9, 0.1)
    oracle = -np.log2(probs).mean()
    assert trace.values[-1] == pytest.approx(oracle, abs=1e-12)
    assert abs(trace.values[-1] - binary_entropy(0.9)) < 0.03


def test_trace_mixture_path_concentrates_on_component():
    path = None
    for seed in range(20):
        candidate = MIX.sample_path(10**4, seed)
        if candidate.component_index == 1:
            path = candidate
            break
    assert path is not None
    checkpoints = [10, 100, 1000, 10**4]
    trace = sample_entropy_trace(MIX, path.symbols, checkpoints)
    # the scan agrees with the mixture's vectorised cylinder sum
    for n, value in zip(checkpoints, trace.values):
        lp = MIX.cylinder_log_probability(path.symbols[:n])
        assert value == pytest.approx(-lp / (n * math.log(2.0)), abs=1e-12)
    assert abs(trace.values[-1] - binary_entropy(0.9)) < 0.03
    mixture_average = 0.5 * 1.0 + 0.5 * binary_entropy(0.9)
    assert abs(trace.values[-1] - mixture_average) > 0.2


def test_trace_truncates_outside_support():
    point = IIDSource([1.0, 0.0])
    trace = sample_entropy_trace(point, [0, 0, 1, 0], [1, 2, 3, 4])
    assert trace.left_support_at == 3
    assert list(trace.horizons) == [1, 2]
    assert not trace.converged


def test_trace_checkpoint_guards():
    with pytest.raises(DomainError):
        sample_entropy_trace(FAIR, [0, 1], [3])
    with pytest.raises(DomainError):
        sample_entropy_trace(FAIR, [0, 1], [])
    # a repeated checkpoint is read once, and the later ones are still reached
    y = [0, 1, 1, 0, 1]
    trace = sample_entropy_trace(FAIR, y, [2, 2, 3, 5])
    assert trace.horizons.tolist() == [2, 3, 5]
    assert np.array_equal(trace.values, sample_entropy_trace(FAIR, y, [2, 3, 5]).values)


# -- AEP experiment ---------------------------------------------------------------

def test_aep_prefix_free_equality():
    reports = aep_experiment(FAIR, WF, horizon=10**4, paths=5, seed=99)
    for r in reports:
        assert r.prefix_free
        assert r.bound == pytest.approx(2 / 3, abs=1e-15)
        assert r.verdict == "equality"
        assert abs(r.empirical_h - 2 / 3) <= 0.02
        # prefix-free: scaled output entropy equals the source sample entropy
        assert r.scaled_output_sample_entropy == pytest.approx(
            r.source_sample_entropy, abs=1e-9
        )


def test_aep_non_prefix_free_strict_inequality():
    reports = aep_experiment(FAIR, WF_ALL_ZERO, horizon=2000, paths=5, seed=99)
    for r in reports:
        assert not r.prefix_free
        assert r.empirical_h == 0.0
        assert math.copysign(1.0, r.empirical_h) == 1.0
        assert r.verdict == "strict_inequality"
        assert r.bound == pytest.approx(2 / 3, abs=1e-15)


def test_aep_mixture_per_component_bounds():
    reports = aep_experiment(MIX, WF, horizon=10**4, paths=20, seed=7, tol=0.03)
    expected = {0: 2 / 3, 1: binary_entropy(0.9) / 1.1}
    seen = set()
    for r in reports:
        seen.add(r.component_index)
        assert abs(r.empirical_h - expected[r.component_index]) <= 0.03
        assert r.verdict == "equality"
    assert seen == {0, 1}


def test_component_bounds_table():
    bounds = component_bounds(MIX, WF)
    assert bounds[0].weight == 0.5
    assert bounds[0].bound == pytest.approx(2 / 3, abs=1e-15)
    assert bounds[1].expected_length == pytest.approx(1.1, abs=1e-12)
    assert bounds[1].bound == pytest.approx(binary_entropy(0.9) / 1.1, abs=1e-12)


# -- conservation -------------------------------------------------------------------

def test_conservation_prefix_free_fair_coin():
    report = conservation_report(FAIR, WF, block_cap=14)
    assert report.integral_bound == pytest.approx(2 / 3, abs=1e-15)
    assert abs(report.empirical_entropy_rate - 2 / 3) < 0.01
    assert report.prefix_free


def test_conservation_non_prefix_free_zero_rate():
    report = conservation_report(FAIR, WF_ALL_ZERO, block_cap=14)
    assert report.integral_bound == pytest.approx(2 / 3, abs=1e-15)
    assert report.empirical_entropy_rate == 0.0
    assert not report.prefix_free


def test_conservation_mixture():
    report = conservation_report(MIX, WF, block_cap=14)
    target = 0.5 * (2 / 3) + 0.5 * (binary_entropy(0.9) / 1.1)
    assert report.integral_bound == pytest.approx(target, abs=1e-12)
    assert abs(report.empirical_entropy_rate - target) < 0.05


def test_conservation_over_the_cell_cap_fails_before_any_step(monkeypatch):
    # H_21 needs 2^21 cells: refused up front, not after computing H_1 .. H_20
    def step(*args):
        raise AssertionError("a forward step was taken")

    monkeypatch.setattr(entropy._Chain, "step", step)
    with pytest.raises(ResourceError):
        conservation_report(FAIR, WordFunction(2, 2, ((0,), (1,))), block_cap=21)


# -- per-tuple log-probability identity ----------------------------------------------

def test_prefix_free_log_identity_small():
    induced = InducedMeasure(FAIR, WF)
    for n in range(1, 6):
        for x in itertools.product(range(2), repeat=n):
            y = encode_stream(WF, x).output
            lhs = FAIR.cylinder_log_probability(x)
            rhs = induced.cylinder_log_probability(y)
            assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("model_config", [
    {"type": "iid", "dist": [0.3, 0.7]},
    # the second row never repeats symbol 1, so some tuples lie outside the support
    {"type": "markov", "P": [[0.6, 0.4], [1.0, 0.0]], "init": [0.25, 0.75]},
    {"type": "mixture", "weights": [0.35, 0.65],
     "components": [{"type": "iid", "dist": [0.5, 0.5]}, {"type": "iid", "dist": [0.9, 0.1]}]},
], ids=["iid", "markov", "mixture"])
def test_log_identity_checkpoints_are_each_prefix_bitwise(monkeypatch, model_config):
    # log-identity scans each full-length tuple once and reads the shorter tuples at
    # checkpoints; each read must be the prefix's own cylinder probability, bit for
    # bit, and under {0, 10} (injective) every tuple of length 1..5 is read once
    reads = []

    def recording_scan(measure, symbols, checkpoints):
        lps, left_at = _scan(measure, symbols, checkpoints)
        reads.append((measure, symbols, checkpoints, lps))
        return lps, left_at

    monkeypatch.setattr(experiments, "_scan", recording_scan)
    cfg = resolve_config({"experiment": "log-identity", "seed": 0, "model": model_config,
                          "params": {"max_tuple_length": 5}})
    result = experiments.run_log_identity(cfg)
    assert result.passed and result.summary["tuples_checked"] == sum(2**n for n in range(1, 6))
    read_outputs = {WF.codewords: [], WF_ALL_ZERO.codewords: []}
    for measure, symbols, checkpoints, lps in reads:
        fresh = InducedMeasure(measure.model, measure.word_function)
        lps = lps + [NEG_INF] * (len(checkpoints) - len(lps))
        for cp, lp in zip(checkpoints, lps):
            assert lp.hex() == fresh.cylinder_log_probability(symbols[:cp]).hex()
            read_outputs[measure.word_function.codewords].append(tuple(symbols[:cp]))
    expected = sorted(tuple(encode_stream(WF, x).output.tolist())
                      for n in range(1, 6) for x in itertools.product(range(2), repeat=n))
    assert sorted(read_outputs[WF.codewords]) == expected
    assert len(read_outputs[WF_ALL_ZERO.codewords]) == len(expected)


def test_non_prefix_free_log_inequality_small():
    induced = InducedMeasure(FAIR, WF_ALL_ZERO)
    for n in range(1, 6):
        for x in itertools.product(range(2), repeat=n):
            y = encode_stream(WF_ALL_ZERO, x).output
            lhs = FAIR.cylinder_log_probability(x)
            rhs = induced.cylinder_log_probability(y)
            assert lhs <= rhs + 1e-12


def test_induced_sample_path_reproducible_and_truncated():
    induced = InducedMeasure(FAIR, WF)
    a = induced.sample_path(500, seed=4)
    b = induced.sample_path(500, seed=4)
    assert np.array_equal(a.symbols, b.symbols)
    assert a.symbols.size == 500


def test_induced_law_matches_derived_output_chain():
    # For {0 -> "0", 1 -> "10"} the output stream is itself first-order
    # Markov: a 1 is always followed by 0, and after any 0 the next symbol
    # restarts a codeword. For source marginal (p, 1-p) the output chain has
    # init (p, 1-p) and rows [[p, 1-p], [1, 0]]. The DP must reproduce that
    # law exactly. The reference is the chain's vectorised cylinder sum, not
    # a scan: source tables run on the same kernel, so the chain's own table
    # (a Markov source with a zero transition) is checked against it too, as
    # is a mixture's.
    cases = [(MIX, MIX)]
    for p in (0.5, 0.9, 0.3):
        chain = MarkovSource([[p, 1 - p], [1.0, 0.0]], [p, 1 - p])
        cases += [(InducedMeasure(IIDSource([p, 1 - p]), WF), chain), (chain, chain)]
    for measure, reference in cases:
        for n in (1, 4, 8, 10):
            dp = block_log_probability_table(measure, n)
            ref = np.array([reference.cylinder_log_probability(t)
                            for t in itertools.product(range(2), repeat=n)])
            mask = dp > NEG_INF
            assert np.array_equal(mask, ref > NEG_INF)
            assert np.abs(dp[mask] - ref[mask]).max() < 1e-10


def test_induced_consistency_mixture():
    induced = InducedMeasure(MIX, WF)
    for n in range(1, 7):
        parent = block_log_probability_table(induced, n)
        child = block_log_probability_table(induced, n + 1).reshape(-1, 2)
        child_lin = np.where(child > NEG_INF, np.exp(child), 0.0).sum(axis=1)
        parent_lin = np.where(parent > NEG_INF, np.exp(parent), 0.0)
        assert np.abs(parent_lin - child_lin).max() < 1e-10


def test_decode_empty_input():
    from wordsource import decode_prefix_free

    decoded, consumed = decode_prefix_free(WF, [])
    assert decoded.size == 0 and consumed == 0


def test_output_chain_entropy_rate_equals_bound():
    # The derived output chain of IID(p) + {0, 10} has stationary entropy
    # rate h2(p) / (2 - p), which is exactly the conservation bound
    # H(source) / E[codeword length] since E[l] = 2 - p.
    for p in (0.5, 0.9, 0.25):
        chain = MarkovSource([[p, 1 - p], [1.0, 0.0]], [1 / (2 - p), (1 - p) / (2 - p)])
        source = IIDSource([p, 1 - p])
        bound = source.entropy_rate_exact() / (2 - p)
        assert chain.entropy_rate_exact() == pytest.approx(bound, abs=1e-12)


# -- chain kernel guards ---------------------------------------------------------
# Prefix-free codes satisfy q(f(a^n)) = mu(a^n) exactly, so the source's own
# cylinder probability is an independent reference for the induced scan.

def _assert_prefix_free_identity(model, wf, x):
    mu = model.cylinder_log_probability(x)
    q = InducedMeasure(model, wf).cylinder_log_probability(encode_stream(wf, x).output)
    assert abs(q - mu) <= 1e-9 * abs(mu)


def test_kernel_mixture_swing_between_components():
    # the path moves from one component's typical set to the other's; a log
    # scale shared across the components is off here by ln 2
    swing = MixtureSource([0.5, 0.5], [IIDSource([0.99, 0.01]), IIDSource([0.01, 0.99])])
    _assert_prefix_free_identity(swing, WF, [0] * 2000 + [1] * 2000)


def test_kernel_tiny_transition_taken_repeatedly():
    tiny = MarkovSource([[1.0, 1e-300], [0.5, 0.5]], [1.0, 0.0])
    x = [0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1] * 3
    assert tiny.cylinder_log_probability(x) < 9 * math.log(1e-300)
    _assert_prefix_free_identity(tiny, WF, x)


def test_kernel_zero_weight_mixture_component():
    mix = MixtureSource([1.0, 0.0], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])
    for seed in range(3):
        _assert_prefix_free_identity(mix, WF, FAIR.sample_path(500, seed).symbols)


def test_kernel_floats_pinned():
    # sha256 of the float64 bytes of long path scans, the block tables and the
    # shift path: a change to the chain's layout or forward step must not move a bit
    three = MarkovSource([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
                         [0.2, 0.5, 0.3])
    # {0, 01, 210} is not prefix-free
    wf3 = WordFunction(3, 3, ((0,), (0, 1), (2, 1, 0)))
    path = InducedMeasure(MIX, WF).sample_path(10**4, seed=17).symbols
    markov_mix = MixtureSource([0.3, 0.7], [MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0]),
                                            FAIR])
    # edge cases of the step: zero transitions and a zero initial entry, a
    # zero-weight component, and duplicate codewords (0 and 2 both give 02);
    # four states emit 0, so the order of the kept sum shows in the trace
    zeros = MarkovSource([[0.0, 0.7, 0.3], [0.4, 0.0, 0.6], [0.5, 0.5, 0.0]], [0.0, 1.0, 0.0])
    edge = InducedMeasure(
        MixtureSource([0.45, 0.0, 0.55],
                      [zeros, IIDSource([0.2, 0.3, 0.5]),
                       MarkovSource([[0.6, 0.4, 0.0], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7]],
                                    [0.2, 0.3, 0.5])]),
        WordFunction(3, 3, ((0, 2), (0, 1, 0), (0, 2))))
    edge_path = edge.sample_path(2000, seed=29).symbols
    outputs = [
        (block_log_probability_table(InducedMeasure(MIX, WF), 10),
         "a8dd984092f145d376ef0969725777eb7a69ff2a1daad7aafef2905a0e7bfaf2"),
        (block_log_probability_table(InducedMeasure(three, wf3), 6),
         "e5f150809b3af91da73755d05cd1e0d31932e36c944cafb8b86e32364ddd4754"),
        (InducedMeasure(markov_mix, WF).shifted_cylinder_probability([0, 1, 0], np.arange(500)),
         "6d53c8bcc0d5fcfe9e3a6df1f340596fbb5827dcdd1217009b5af1a971dd0b9e"),
        (sample_entropy_trace(InducedMeasure(MIX, WF), path, range(1, 10**4 + 1)).values,
         "44b3da4ea557a6e3f7e3425ce67083b44a1d2957b0546f26d94a66c4eb028741"),
        (np.array([r.empirical_h for r in aep_experiment(three, wf3, 2000, 4, seed=7)]),
         "062918c82435644c07a7212653a0dabdfde513f7207b61f8a169c9c672ad61b7"),
        (block_log_probability_table(edge, 6),
         "8c4a337c2addc0249f34f3101ca944c80109acda5dd6741d9ba6ce3d565f5ba8"),
        (sample_entropy_trace(edge, edge_path, range(1, 2001)).values,
         "3698713089a4d3e8e98bb5f44953543a6346303b9dcab0a68eb379f032081366"),
    ]
    for values, digest in outputs:
        assert hashlib.sha256(values.astype("<f8").tobytes()).hexdigest() == digest


def _interned(measure):
    return sum(map(len, measure._chain.nodes))


def _under_each_cap(run):
    """run(cap) with the interning cap at 0, at 4 and at its default."""
    results = []
    for cap in (0, 4, entropy.MAX_INTERNED_NODES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entropy, "MAX_INTERNED_NODES", cap)
            results.append(run(cap))
    return results


def _assert_bitwise_equal(results):
    first, *rest = [np.array(r, dtype=float).tobytes() for r in results]
    assert all(r == first for r in rest)


def test_interned_nodes_stay_few():
    # with a prefix-free code the output fixes the codeword boundaries, so each
    # component's forward vector takes a handful of values; a key that never
    # hits (one carrying the scale, say) would intern a node per symbol
    induced = InducedMeasure(MIX, WF)
    path = induced.sample_path(10**5, seed=23).symbols
    assert induced.cylinder_log_probability(path) > NEG_INF
    assert all(len(nodes) <= 16 for nodes in induced._chain.nodes)


def _reference_scan(measure, symbols, checkpoints):
    """A plain per-symbol walk: each component tests every position for a
    checkpoint and reads every step, computing it on a miss."""
    chain = measure._chain
    symbols = symbols[:checkpoints[-1]]
    marks, deaths = [], []
    for c, node in enumerate(chain.roots):
        scale, seen, cps = 0.0, [], iter(checkpoints)
        cp = next(cps)
        for pos, s in enumerate(symbols, 1):
            out = node[1][s]
            if out is None:
                out = chain.step(c, node, s)
            if not out:
                deaths.append(pos)
                break
            node, inc = out
            scale += inc
            if pos == cp:
                seen.append(scale)
                cp = next(cps, 0)
        marks.append(seen + [NEG_INF] * (len(checkpoints) - len(seen)))
    lps = [log_mixture(chain.log_weights, scales)
           for scales in zip(*marks) if max(scales) > NEG_INF]
    return lps, max(deaths) if len(deaths) == len(marks) else None


@pytest.mark.parametrize("cap", [0, 4, entropy.MAX_INTERNED_NODES])
def test_scan_segment_edges_match_a_per_symbol_walk(monkeypatch, cap):
    # the scan walks whole segments between checkpoints, or, over SAMPLE_CHUNK
    # symbols or more, each component whose closure holds as a block
    # automaton; a path that dies at position 1, on a checkpoint, just after
    # one, inside the last segment or after it (unreported) gives the
    # per-symbol walk's floats and death position, bit for bit
    monkeypatch.setattr(entropy, "MAX_INTERNED_NODES", cap)
    n, sparse = 40, [5, 17, 30, 40]
    first_only = MixtureSource([0.25, 0.75], [IIDSource([1.0, 0.0]), IIDSource([0.4, 0.6])])
    markov = MarkovSource([[0.7, 0.3], [0.6, 0.4]], [0.2, 0.8])
    zeros = [0] * n

    def with_ones(*positions):
        path = list(zeros)
        for p in positions:
            path[p - 1] = 1
        return path

    cases = [
        # {0, 00} emits only 0: a 1 kills every component where it stands
        (FAIR, WF_ALL_ZERO, [with_ones(p) for p in (1, 17, 18, 37)]),
        # {0, 10} never emits 11: the second 1 kills
        (FAIR, WF, [with_ones(p - 1, p) for p in (17, 18, 37)] + [with_ones(3, 9, 22)]),
        (markov, WF, [with_ones(4, 5), with_ones(29, 30), with_ones(1, 2, 7)]),
        # the all-zero component dies at the first 1; the other lives on,
        # unless an 11 kills it too
        (first_only, WF, [with_ones(p) for p in (1, 5, 6, 39)]
         + [with_ones(3, 17, 18), zeros]),
    ]
    seen_deaths = set()
    for chunk in (16, entropy.SAMPLE_CHUNK):
        monkeypatch.setattr(entropy, "SAMPLE_CHUNK", chunk)
        routes = set()
        for model, wf, paths in cases:
            for path in paths:
                for cps in (sparse, list(range(1, n + 1)), [n], sparse[:-1]):
                    induced = InducedMeasure(model, wf)
                    got = _scan(induced, np.array(path), cps)
                    want = _reference_scan(InducedMeasure(model, wf), path, cps)
                    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
                    assert got[1] == want[1]
                    seen_deaths.add(got[1])
                    routes |= {(wf is WF, closure is not None)
                               for closure in induced._chain.automata.values()}
        # a closure is built only over 16 symbols or more; {0, 10}'s closures
        # take a few steps and nodes, so every cap but 0 holds them; {0, 00}'s
        # 57 nodes take over 40 steps, so it always walks
        assert routes == ({(False, False), (True, cap > 0)} if chunk == 16 else set())
    assert {None, 1, 17, 18, 37} <= seen_deaths


def test_block_automaton_scan_matches_a_per_symbol_walk():
    # about 100 random pairs on paths of SAMPLE_CHUNK symbols or more, half of
    # them pushed off the support, some checkpoint sets ending before the
    # path does: the floats and death positions are the per-symbol walk's
    rng = np.random.default_rng(29)
    n = entropy.SAMPLE_CHUNK + 300
    closures = []
    for i in range(100):
        model, wf = _random_pair(rng)
        induced = InducedMeasure(model, wf)
        path = induced.sample_path(n, seed=i).symbols
        if i % 2:
            path[rng.integers(n, size=3)] = rng.integers(wf.output_alphabet_size, size=3)
        marks = sorted(set(rng.integers(entropy.SAMPLE_CHUNK, n + 1, size=20).tolist()))
        cps = ([n], marks, list(range(1, n + 1)))[i % 3]
        got = _scan(induced, path, cps)
        want = _reference_scan(InducedMeasure(model, wf), path.tolist(), cps)
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        assert got[1] == want[1]
        closures += induced._chain.automata.values()
    assert sum(c is not None for c in closures) > 0.9 * len(closures)
    # this non-prefix-free code's closure runs past SAMPLE_CHUNK steps, so it
    # gives up, remembers that, and its scans take the per-symbol walk
    odd = InducedMeasure(IIDSource([0.2, 0.3, 0.5]), WordFunction(3, 2, ((0,), (0, 1), (1, 0))))
    path = odd.sample_path(n, seed=1).symbols
    path[n - 8:n - 4] = [0, 1, 1, 1]  # no concatenation of 0, 01, 10 holds 111
    got = _scan(odd, path, [10, entropy.SAMPLE_CHUNK, n])
    assert odd._chain.automata == {0: None} and odd._chain.automaton(0, 10 * n) is None
    want = _reference_scan(InducedMeasure(odd.model, odd.word_function), path.tolist(),
                           [10, entropy.SAMPLE_CHUNK, n])
    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
    assert got[1] == want[1] and n - 6 <= got[1] <= n - 4
    # under {0, 00} the all-zero path has probability 1: every increment is
    # log1p(-0.0) = -0.0, and log q reads +0.0, as the walk's does
    induced = InducedMeasure(FAIR, WF_ALL_ZERO)
    lps, left_at = _scan(induced, np.zeros(n, np.int64), [n])
    assert induced._chain.automata[0] is not None and left_at is None
    assert lps == [0.0] and math.copysign(1.0, lps[0]) == 1.0


def test_short_scans_build_no_automaton():
    # a scan under SAMPLE_CHUNK symbols walks, so exact enumeration's many
    # short cylinders, each on its own measure, build no table
    induced = InducedMeasure(MIX, WF)
    assert induced.cylinder_log_probability([0, 1, 0, 0, 1, 0, 1, 0]) > NEG_INF
    assert induced._chain.automata == {}


def test_interning_cap_never_moves_a_bit_on_long_paths(monkeypatch):
    path = InducedMeasure(MIX, WF).sample_path(10**4, seed=17).symbols
    three = MarkovSource([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
                         [0.2, 0.5, 0.3])
    wf3 = WordFunction(3, 3, ((0,), (0, 1), (2, 1, 0)))
    automaton, routes = entropy._Chain.automaton, set()

    def spy(chain, c, n):
        closure = automaton(chain, c, n)
        routes.add((entropy.MAX_INTERNED_NODES, closure is not None))
        return closure

    monkeypatch.setattr(entropy._Chain, "automaton", spy)

    def trace(cap):
        induced = InducedMeasure(MIX, WF)
        values = sample_entropy_trace(induced, path, range(1, 10**4 + 1)).values
        assert cap != 4 or _interned(induced) <= 4
        return values

    def aep(cap):
        return [r.empirical_h for r in aep_experiment(three, wf3, 10**4, 2, seed=7)]

    # the default cap holds every closure, so these scans walk block automata;
    # cap 0 holds none, so they take the per-symbol walk; cap 4 holds MIX's
    # first closure but not its second, so one component walks beside the other
    _assert_bitwise_equal(_under_each_cap(trace))
    assert routes == {(0, False), (4, True), (4, False), (entropy.MAX_INTERNED_NODES, True)}
    routes.clear()
    _assert_bitwise_equal(_under_each_cap(aep))
    assert routes == {(0, False), (4, False), (entropy.MAX_INTERNED_NODES, True)}


# -- one walk for every block length ---------------------------------------------

def _reference_table(measure, n):
    """The length-n table as one walk per length builds it: every component's
    tree walked again from its root to depth n, and each cell combined by its
    own ``log_mixture`` call."""
    chain = measure._chain
    B = measure.alphabet_size
    scales = np.full((len(chain.roots), B**n), NEG_INF)
    for c, root in enumerate(chain.roots):
        stack = [(root, 0.0, 0, 0)]
        while stack:
            node, scale, depth, index = stack.pop()
            for b, out in enumerate(node[1]):
                if out is None:
                    out = chain.step(c, node, b)
                if not out:
                    continue
                child, inc = out
                if depth + 1 < n:
                    stack.append((child, scale + inc, depth + 1, index * B + b))
                else:
                    scales[c, index * B + b] = scale + inc
    return np.array([log_mixture(chain.log_weights, cell) for cell in scales.T.tolist()])


def _random_dist(rng, size, zeros):
    dist = rng.dirichlet(np.ones(size))
    if zeros and rng.random() < 0.5:
        dist[rng.integers(size)] = 0.0
        dist /= dist.sum()
    return dist.tolist()


def _random_pair(rng):
    """A random model with zero entries or a zero weight, and a random code."""
    A, B = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    kind = rng.integers(3)
    if kind == 0:
        model = IIDSource(_random_dist(rng, A, zeros=True))
    elif kind == 1:
        model = MarkovSource([_random_dist(rng, A, zeros=True) for _ in range(A)],
                             _random_dist(rng, A, zeros=True))
    else:
        # mixture components must be ergodic: IID, or Markov with full support
        comps = [IIDSource(_random_dist(rng, A, zeros=True)) if rng.random() < 0.5
                 else MarkovSource([_random_dist(rng, A, zeros=False) for _ in range(A)],
                                   _random_dist(rng, A, zeros=True))
                 for _ in range(int(rng.integers(2, 4)))]
        model = MixtureSource(_random_dist(rng, len(comps), zeros=True), comps)
    if rng.random() < 0.5:
        wf = random_prefix_free_codebook(rng, A, B, max_len=3)
    else:
        wf = random_codebook(rng, A, B, max_len=3)
    return model, wf


@pytest.mark.parametrize("chunk", [7, entropy.COMBINE_CHUNK])
def test_block_tables_equal_one_walk_per_length(monkeypatch, chunk):
    # one walk fills every length's columns and the chunked combine is
    # log_mixture per cell: each table is bitwise the per-length table
    monkeypatch.setattr(entropy, "COMBINE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    seen = set()
    for _ in range(150):
        model, wf = _random_pair(rng)
        B = wf.output_alphabet_size
        n = 8 if B == 2 else 5
        tables = entropy.block_log_probability_tables(InducedMeasure(model, wf), n)
        assert len(tables) == n
        for length, table in enumerate(tables, 1):
            want = _reference_table(InducedMeasure(model, wf), length)
            assert table.tobytes() == want.tobytes()
        seen.add((type(model).__name__, B, bool(is_prefix_free(wf))))
    assert len(seen) == 12


def test_block_table_of_more_than_one_chunk_equals_one_walk():
    # {0, 10} never emits 11, so both chunks of the 2^17 cells hold live ones
    n = 17
    assert 2**n > entropy.COMBINE_CHUNK
    table = block_log_probability_table(InducedMeasure(MIX, WF), n)
    assert table.tobytes() == _reference_table(InducedMeasure(MIX, WF), n).tobytes()
    assert all(np.isfinite(half).any() for half in np.split(table, 2))


def test_block_table_numbers_nodes_by_key(monkeypatch):
    # at cap 0 every step returns a fresh node object; numbered by key, a
    # Markov chain under the identity code has the dead state, the root and
    # one point mass per symbol, where a numbering by object would hold one
    # row per cell
    monkeypatch.setattr(entropy, "MAX_INTERNED_NODES", 0)
    model = MarkovSource([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
    identity = WordFunction(2, 2, ((0,), (1,)))
    induced = InducedMeasure(model, identity)
    nxt, inc = induced._chain.numbered(0, math.inf, 16)
    assert nxt.shape == inc.shape == (4, 2) and nxt.dtype == np.uint8
    assert _interned(induced) == 0
    table = block_log_probability_table(induced, 16)
    assert table.tobytes() == _reference_table(InducedMeasure(model, identity), 16).tobytes()


def test_block_tables_leave_the_scan_nothing():
    # a table's numbering stops at its depth, so it must not become a scan's
    # closure: the scan that follows builds its own and reads the walk's bits;
    # at depth 1 a kept numbering would kill the scan at its second symbol
    n = entropy.SAMPLE_CHUNK + 300
    path = InducedMeasure(MIX, WF).sample_path(n, seed=3).symbols
    cps = [1, 17, entropy.SAMPLE_CHUNK, n]
    want = _reference_scan(InducedMeasure(MIX, WF), path.tolist(), cps)
    for depth in (1, 8):
        induced = InducedMeasure(MIX, WF)
        entropy.block_log_probability_tables(induced, depth)
        assert induced._chain.automata == {}
        got = _scan(induced, path, cps)
        assert all(induced._chain.automata.values())
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes() and got[1] == want[1]


def test_combine_is_log_mixture_per_cell(monkeypatch):
    monkeypatch.setattr(entropy, "COMBINE_CHUNK", 2)
    log_weights = (math.log(0.2), math.log(0.3), math.log(0.5))
    cells = [
        (NEG_INF, NEG_INF, NEG_INF),   # dead
        (NEG_INF, -1.5, NEG_INF),      # one live term
        (-0.7, -0.7, -0.7),            # equal terms
        (-2.0, NEG_INF, -0.25),
        (-1e-300, -800.0, -3.0),       # a term whose exp underflows
    ]
    # within the slack above 0 gives 0.0
    cells.append(tuple(-lw + 5e-10 for lw in log_weights[:1]) + (NEG_INF, NEG_INF))
    got = entropy._combine_columns(log_weights, [np.array(col) for col in zip(*cells)])
    want = np.array([log_mixture(log_weights, cell) for cell in cells])
    assert got.tobytes() == want.tobytes()
    assert got[-1] == 0.0 and got[0] == NEG_INF
    # beyond the slack raises, as log_mixture does
    beyond = (-log_weights[0] + 1e-6, NEG_INF, NEG_INF)
    with pytest.raises(ArithmeticError):
        log_mixture(log_weights, beyond)
    with pytest.raises(ArithmeticError):
        entropy._combine_columns(log_weights, [np.array(col) for col in zip(*cells, beyond)])


# -- property test: chain kernel against the brute-force oracle -----------------

MODEL_CLASSES = {"IIDSource", "MarkovSource", "MixtureSource"}


def _imported_and_used(module):
    """The names a package module imports, and those it reads or calls."""
    source = Path(__file__).resolve().parent.parent / "src" / "wordsource" / f"{module}.py"
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_oracle_never_imports_the_kernel():
    # the cross-check is independent only while the oracle shares no code
    # with the chain kernel
    imported, used = _imported_and_used("oracles")
    # nor does it read tuples through the encoder or the sources' own cylinder sums
    assert not imported & {"entropy", "InducedMeasure", "encode_stream"}
    assert "cylinder_log_probability" not in used
    # and it reads a model's law from its parts, never by model family
    assert not (imported | used) & MODEL_CLASSES


def test_kernel_names_no_model_class():
    # the chain kernel builds every model's chain from its parts alone
    imported, used = _imported_and_used("entropy")
    assert not (imported | used) & MODEL_CLASSES


@pytest.mark.parametrize("model", [
    IIDSource([0.0, 0.3, 0.7]),
    MarkovSource([[0.5, 0.5, 0.0], [0.2, 0.0, 0.8], [0.0, 0.6, 0.4]], [0.0, 0.5, 0.5]),
    MixtureSource([0.0, 0.4, 0.6], [
        IIDSource([0.1, 0.2, 0.7]), IIDSource([0.5, 0.0, 0.5]),
        MarkovSource([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.3, 0.6, 0.1]], [0.0, 0.0, 1.0])]),
], ids=["iid-zero-entry", "markov-zero-transition", "mixture-zero-weight"])
def test_oracle_identity_table_equals_source_cylinders(model):
    # the oracle reads a model's parts, each family's vectorised sum its own
    # fields: under the identity codebook the two must agree on every tuple
    A = model.alphabet_size
    identity = WordFunction(A, A, tuple((a,) for a in range(A)))
    for n in range(1, 5):
        table = brute_force_induced_log_table(model, identity, n)
        cells = np.array([model.cylinder_log_probability(t)
                          for t in itertools.product(range(A), repeat=n)])
        mask = cells > NEG_INF
        assert np.array_equal(table > NEG_INF, mask)
        assert not mask.all()
        assert np.abs(table[mask] - cells[mask]).max() <= 1e-12


PINNED_MODELS = {
    "iid": IIDSource([0.3, 0.7]),
    "markov": MarkovSource([[0.9, 0.1], [0.35, 0.65]], [0.2, 0.8]),
    "mixture": MixtureSource([0.4, 0.6], [IIDSource([0.15, 0.85]),
                                          MarkovSource([[0.7, 0.3], [0.45, 0.55]], [0.5, 0.5])]),
}
# sha256 prefixes of the oracle table and the block table at n = 6, under
# {0, 10} and {0, 00}, and of the first-symbol law: a change to how a model's
# law is read that moves any bit shows here
PINNED_DIGESTS = {
    ("iid", "marginal"): "f2e88390f06a48e7",
    ("iid", "0,10"): ("ea93ee91dfa107bc", "0c26dc6965280880"),
    ("iid", "0,00"): ("2df7a6b00421c1c8", "587048a5464d6596"),
    ("markov", "marginal"): "00eb41ad719227ee",
    ("markov", "0,10"): ("67192b7b360b93a9", "26f3f8fc34bc4aba"),
    ("markov", "0,00"): ("104a04470595c301", "587048a5464d6596"),
    ("mixture", "marginal"): "2de19e69ab35c1fa",
    ("mixture", "0,10"): ("0fb4d90da40184a6", "ee62241020bdcab2"),
    ("mixture", "0,00"): ("c18e700970250251", "587048a5464d6596"),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_oracle_block_table_and_marginal_digests_pinned(name):
    def digest(array):
        return hashlib.sha256(array.tobytes()).hexdigest()[:16]

    model = PINNED_MODELS[name]
    assert digest(model.marginal_distribution()) == PINNED_DIGESTS[name, "marginal"]
    for code, wf in (("0,10", WF), ("0,00", WF_ALL_ZERO)):
        got = (digest(brute_force_induced_log_table(model, wf, 6)),
               digest(block_log_probability_table(InducedMeasure(model, wf), 6)))
        assert got == PINNED_DIGESTS[name, code]


def test_oracle_exact_values():
    # fair coin, {0, 10} at n = 2: 00 <- (0, 0), 01 <- (0, 1), 10 <- (1, *)
    table = brute_force_induced_log_table(FAIR, WF, 2)
    assert table.tolist() == [math.log(0.25), math.log(0.25), math.log(0.5), NEG_INF]


def test_oracle_rejects_bad_input():
    with pytest.raises(DomainError):
        brute_force_induced_log_table(IIDSource([0.4, 0.3, 0.3]), WF, 2)
    with pytest.raises(DomainError):
        brute_force_induced_log_table(FAIR, WF, 0)
    with pytest.raises(ResourceError):
        brute_force_induced_log_table(FAIR, WF, 23)


@pytest.mark.parametrize("chunk", [1, 7])
def test_oracle_chunking_moves_no_cell(monkeypatch, chunk):
    rng = np.random.default_rng(5)
    models = [model_from_config(random_model_config(rng, 3, kind))
              for kind in ("iid", "markov", "mixture")]
    models.append(MixtureSource([0.3, 0.7], [IIDSource([0.2, 0.8]),
                                             MarkovSource([[0.9, 0.1], [0.4, 0.6]], [1.0, 0.0])]))
    models.append(MarkovSource([[0.0, 1.0], [0.5, 0.5]], [0.5, 0.5]))
    cases = [(model, random_codebook(rng, model.alphabet_size, B, 3), n)
             for model in models for B in (2, 3) for n in range(1, 6)]
    whole = [brute_force_induced_log_table(*case) for case in cases]
    monkeypatch.setattr(oracles, "ORACLE_CHUNK", chunk)
    for case, ref in zip(cases, whole):
        table = brute_force_induced_log_table(*case)
        mask = ref > NEG_INF
        assert np.array_equal(table > NEG_INF, mask)
        assert np.abs(table[mask] - ref[mask]).max() <= 1e-14


def _weights(size, positive=False):
    # small integer weights, normalised; zeros give zero-probability symbols
    low = 1 if positive else 0
    return st.lists(st.integers(low, 4), min_size=size, max_size=size).map(
        lambda w: [v / sum(w) for v in w] if any(w) else [1.0] + [0.0] * (size - 1)
    )


@st.composite
def _model_and_codebook(draw):
    A = draw(st.integers(2, 3))
    B = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["iid", "markov", "mixture"]))
    if kind == "iid":
        model = IIDSource(draw(_weights(A)))
    elif kind == "markov":
        model = MarkovSource([draw(_weights(A)) for _ in range(A)], draw(_weights(A)))
    else:
        # mixture components must be ergodic: IID, or Markov with full support
        comps = [
            IIDSource(draw(_weights(A))) if draw(st.booleans())
            else MarkovSource([draw(_weights(A, positive=True)) for _ in range(A)],
                              draw(_weights(A)))
            for _ in range(2)
        ]
        model = MixtureSource(draw(_weights(2)), comps)
    # codewords drawn independently, so duplicates and prefixes occur
    words = st.lists(st.integers(0, B - 1), min_size=1, max_size=3)
    wf = WordFunction(A, B, tuple(tuple(draw(words)) for _ in range(A)))
    return model, wf


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_model_and_codebook())
def test_kernel_matches_oracle_property(pair):
    model, wf = pair
    induced = InducedMeasure(model, wf)
    oracles = {}
    for n in range(1, 7):
        dp = block_log_probability_table(induced, n)
        oracle = oracles[n] = brute_force_induced_log_table(model, wf, n)
        mask = dp > NEG_INF
        assert np.array_equal(mask, oracle > NEG_INF)
        if mask.any():
            assert np.abs(dp[mask] - oracle[mask]).max() <= 1e-10
    # q(T^-i [b]) is the oracle's mass on the length-(i + n) cells ending in b
    B = wf.output_alphabet_size
    for n in (1, 2):
        for code in range(B**n):
            b = [(code // B**k) % B for k in range(n - 1, -1, -1)]
            shifted = induced.shifted_cylinder_probability(b, np.arange(5))
            summed = [math.fsum(np.exp(oracles[i + n].reshape(B**i, B**n)[:, code]))
                      for i in range(5)]
            assert np.abs(shifted - summed).max() <= 1e-12


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_model_and_codebook())
def test_block_table_cells_equal_cylinder_scans(pair):
    # the table's walk and the path scan share steps and the combine, so each
    # cell is bitwise the cylinder probability of its own tuple
    model, wf = pair
    induced = InducedMeasure(model, wf)
    B = wf.output_alphabet_size
    for n in range(1, 6):
        table = block_log_probability_table(induced, n)
        tuples = itertools.product(range(B), repeat=n)
        cells = [induced.cylinder_log_probability(t) for t in tuples]
        assert table.tobytes() == np.array(cells).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_model_and_codebook())
def test_interning_cap_never_moves_a_bit(pair):
    # a stored step returns the floats a recomputation gives, so scans and
    # block tables are bitwise equal whether nothing, 4 nodes or all are kept
    model, wf = pair
    noise = np.random.default_rng(1).integers(wf.output_alphabet_size, size=300).tolist()

    def run(cap):
        induced = InducedMeasure(model, wf)
        out = []
        for n in range(1, 7):
            out += block_log_probability_table(induced, n).tolist()
            assert cap != 4 or _interned(induced) <= 4
        path = induced.sample_path(1000, seed=3).symbols.tolist()
        for symbols in (path, noise):
            lps, left_at = _scan(induced, symbols, list(range(1, len(symbols) + 1)))
            out += lps + [-1.0 if left_at is None else left_at]
            assert cap != 4 or _interned(induced) <= 4
        return out

    _assert_bitwise_equal(_under_each_cap(run))
