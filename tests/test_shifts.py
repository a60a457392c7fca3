"""Variable-length shift orbits, weights, the orbit coder, density partial sums."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from wordsource import sources
from wordsource import (
    DomainError,
    RangeError,
    ResourceError,
    TimeSubsequence,
    VariableLengthShiftSpec,
    WordFunction,
    bellow_check,
    encoded_shift_commutes,
    finite_state_orbit_coder,
    variable_length_orbit,
    weight_sequence,
)
from wordsource.experiments import _periodic_case_limit, random_prefix_free_codebook
from wordsource.shifts import _countdown, _window_codes


def test_constant_one_is_left_shift():
    spec = VariableLengthShiftSpec.constant(2, 1)
    orbit = variable_length_orbit(spec, [0, 1, 0, 1, 0, 1], 5)
    assert list(orbit.zeta) == [0, 1, 2, 3, 4, 5]


def test_constant_three_is_block_shift():
    spec = VariableLengthShiftSpec.constant(2, 3)
    orbit = variable_length_orbit(spec, [0] * 20, 5)
    assert list(orbit.zeta) == [0, 3, 6, 9, 12, 15]


def test_window_driven_orbit_hand_trace():
    # gamma reads one symbol: step 1 after a 0, step 2 after a 1.
    # On 1,0,0,1,0,... the visited positions are 0 -> 2 -> 3 -> 5.
    spec = VariableLengthShiftSpec.from_function(2, 1, lambda w: 1 if w[0] == 0 else 2)
    orbit = variable_length_orbit(spec, [1, 0, 0, 1, 0, 0, 0], 3)
    assert list(orbit.zeta) == [0, 2, 3, 5]


def test_orbit_insufficient_input_reports_needed_length():
    spec = VariableLengthShiftSpec.constant(2, 3)
    with pytest.raises(RangeError) as exc:
        variable_length_orbit(spec, [0, 1, 0], 4)
    assert str(exc.value) == ("input of length 3 is too short: step 1 reads the "
                              "window at position 3, needing length >= 4")


def _window_codes_by_matmul(symbols, alphabet_size, order):
    """Reference: every window times the base-|A| place values."""
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size < order:
        return np.empty(0, dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(arr, order)
    powers = alphabet_size ** np.arange(order - 1, -1, -1, dtype=np.int64)
    return win @ powers


@pytest.mark.parametrize("alphabet", [2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_window_codes_match_the_matmul_reference(alphabet, order):
    rng = np.random.default_rng(100 * alphabet + order)
    for length in (0, order - 1, order, order + 1, 257):
        symbols = rng.integers(0, alphabet, size=length)
        before = symbols.copy()
        codes = _window_codes(symbols, alphabet, order)
        expected = _window_codes_by_matmul(symbols, alphabet, order)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, expected)
        # the caller's array is read, never written, and never handed back
        assert np.array_equal(symbols, before)
        assert not np.shares_memory(codes, symbols)


def test_orbit_shift_identity_against_suffix_materialization():
    # iterating the shift on materialized suffixes must visit the same points
    rng = np.random.default_rng(6)
    spec = VariableLengthShiftSpec.from_function(2, 2, lambda w: 1 + w[0] + w[1])
    w = rng.integers(0, 2, size=400)
    orbit = variable_length_orbit(spec, w, 40)
    suffix = list(w)
    positions = [0]
    for _ in range(40):
        step = spec.shift_at(suffix[: spec.lookahead])
        suffix = suffix[step:]
        positions.append(positions[-1] + step)
    assert positions == list(orbit.zeta)
    for n, z in enumerate(orbit.zeta):
        assert list(w[z:z + 6]) == list(w[int(z):int(z) + 6])


def test_weight_sequence_even_positions():
    ts = TimeSubsequence(zeta=np.arange(0, 12, 2))
    xi, density = weight_sequence(ts, 10)
    assert list(xi) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert density == 0.5


def test_weight_sequence_hand_example():
    ts = TimeSubsequence(zeta=np.array([0, 2, 3, 5]))
    xi, density = weight_sequence(ts, 6)
    assert list(xi) == [1, 0, 1, 1, 0, 1]
    assert density == pytest.approx(4 / 6)


def test_weight_sequence_identity_orbit():
    ts = TimeSubsequence(zeta=np.arange(0, 30))
    xi, density = weight_sequence(ts, 30)
    assert xi.sum() == 30
    assert density == 1.0


def test_weight_sequence_horizon_guard():
    ts = TimeSubsequence(zeta=np.array([0, 2, 4]))
    with pytest.raises(RangeError):
        weight_sequence(ts, 6)


def test_time_subsequence_validation():
    with pytest.raises(DomainError):
        TimeSubsequence(zeta=np.array([1, 2]))
    with pytest.raises(DomainError):
        TimeSubsequence(zeta=np.array([0, 2, 2]))


def test_orbit_coder_hand_trace():
    z = finite_state_orbit_coder([2, 9, 1, 3, 7, 8], 6)
    assert z.dtype == np.int64
    assert list(z) == [1, 0, 1, 1, 0, 0]


def test_orbit_coder_all_ones_and_period_two():
    assert list(finite_state_orbit_coder([1] * 6, 6)) == [1] * 6
    assert list(finite_state_orbit_coder([2] * 6, 6)) == [1, 0, 1, 0, 1, 0]


def test_orbit_coder_domain_errors():
    with pytest.raises(DomainError):
        finite_state_orbit_coder([2, 0, 1], 3)
    with pytest.raises(DomainError):
        finite_state_orbit_coder([5], 1, max_shift=4)
    with pytest.raises(RangeError):
        finite_state_orbit_coder([1, 1], 3)
    with pytest.raises(DomainError):
        finite_state_orbit_coder([], 0, max_shift=0)



def _reference_coder(lengths, horizon):
    """The one-position-at-a-time countdown that the block automaton replaced."""
    z = np.zeros(horizon, dtype=np.int64)
    state = 0
    for i in range(horizon):
        if state == 0:
            z[i] = 1
            state = int(lengths[i]) - 1
        else:
            state -= 1
    return z


@pytest.mark.parametrize("chunk", [5, sources.SAMPLE_CHUNK])
def test_orbit_coder_equals_the_countdown_loop(chunk, monkeypatch):
    monkeypatch.setattr(sources, "SAMPLE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for N in (1, 2, 3, 4):
        # the walk reads horizon - 1 inputs, k per block, in chunks of whole blocks
        k = _countdown(N).powers.size
        span = max(sources.SAMPLE_CHUNK // k, 1) * k
        horizons = {0, 1, 2, k - 1, k, k + 1, k + 2, span, span + 1, span + 2,
                    sources.SAMPLE_CHUNK - 1, sources.SAMPLE_CHUNK,
                    sources.SAMPLE_CHUNK + 1, 10**4}
        for horizon in sorted(h for h in horizons if h >= 0):
            for _ in range(3):
                u = rng.integers(1, N + 1, size=horizon + 2)
                ref = _reference_coder(u, horizon)
                for max_shift in (N, None, N + 2):
                    z = finite_state_orbit_coder(u, horizon, max_shift=max_shift)
                    assert z.dtype == np.int64 and np.array_equal(z, ref), (N, horizon)


def test_orbit_coder_refuses_a_table_over_the_cap():
    # N states by N input classes: 10**6 would ask for 10**12 table entries
    with pytest.raises(ResourceError, match="cap 1048576"):
        finite_state_orbit_coder([10**6], 1)
    with pytest.raises(ResourceError):
        finite_state_orbit_coder([1, 1], 2, max_shift=1025)


def test_coder_equals_orbit_weights_randomized():
    rng = np.random.default_rng(77)
    for _ in range(60):
        A = int(rng.integers(2, 4))
        M = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        spec = VariableLengthShiftSpec(
            alphabet_size=A, lookahead=M, max_shift=N,
            table=rng.integers(1, N + 1, size=A**M),
        )
        horizon = int(rng.integers(100, 4000))
        w = rng.integers(0, A, size=horizon + M + N + 1)
        u = spec.shift_values(w)
        pos, steps = 0, 0
        while pos <= horizon:
            pos += int(u[pos])
            steps += 1
        orbit = variable_length_orbit(spec, w, steps)
        xi, density = weight_sequence(orbit, horizon)
        z = finite_state_orbit_coder(u[:horizon], horizon, max_shift=N)
        assert np.array_equal(xi, z)
        assert 1 / N - 1e-12 <= density <= 1.0


def test_partial_density_bounds_along_checkpoints():
    rng = np.random.default_rng(8)
    N = 4
    spec = VariableLengthShiftSpec(
        alphabet_size=2, lookahead=2, max_shift=N,
        table=rng.integers(1, N + 1, size=4),
    )
    w = rng.integers(0, 2, size=5000)
    orbit = variable_length_orbit(spec, w, 900)
    for n in range(1, int(orbit.zeta[-1]) + 1, 37):
        _, density = weight_sequence(orbit, n)
        assert 1 / N <= density <= 1.0


# -- density lemma partial sums -------------------------------------------------

def test_bellow_constant_values():
    ts = TimeSubsequence(zeta=np.array([0, 3, 5, 9, 12]))
    r = np.full(12, 2.5)
    partials = bellow_check(r, ts, 12)
    k = 4  # orbit points below 12: 0, 3, 5, 9
    assert partials.lhs == pytest.approx((k / 12) * 2.5, abs=1e-15)
    assert partials.rhs == pytest.approx((k / 12) * 2.5, abs=1e-15)


def test_bellow_even_alternating_exact_half():
    n = 1000
    ts = TimeSubsequence(zeta=np.arange(0, n + 2, 2))
    r = np.array([(-1.0) ** i for i in range(n)])
    partials = bellow_check(r, ts, n)
    assert partials.lhs == pytest.approx(0.5, abs=1e-12)
    assert partials.rhs == pytest.approx(0.5, abs=1e-12)


def test_bellow_indicator_of_orbit():
    ts = TimeSubsequence(zeta=np.array([0, 2, 3, 5, 8]))
    n = 8
    xi, density = weight_sequence(ts, n)
    partials = bellow_check(xi.astype(float), ts, n)
    assert partials.lhs == pytest.approx(density)
    assert partials.rhs == pytest.approx(density)


def test_bellow_randomized_periodic_cases_converge():
    rng = np.random.default_rng(15)
    n = 10**5
    for _ in range(10):
        gaps = [int(g) for g in rng.integers(1, 6, size=int(rng.integers(1, 4)))]
        q = int(rng.integers(1, 7))
        r_vals = [float(v) for v in rng.uniform(-1, 1, size=q)]
        reps = n // sum(gaps) + 2
        ts = TimeSubsequence(zeta=np.concatenate([[0], np.cumsum(np.tile(gaps, reps))]))
        r = np.array([r_vals[i % q] for i in range(n)])
        partials = bellow_check(r, ts, n)
        limit = _periodic_case_limit(gaps, r_vals)
        assert abs(partials.lhs - partials.rhs) < 10 / math.sqrt(n)
        assert abs(partials.rhs - limit) < 10 / math.sqrt(n)


def test_bellow_argument_guards():
    ts = TimeSubsequence(zeta=np.array([0, 2]))
    with pytest.raises(RangeError):
        bellow_check(np.ones(1), ts, 2)
    with pytest.raises(DomainError):
        bellow_check(np.ones(3), ts, 0)


# -- gamma specs ----------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DomainError):
        VariableLengthShiftSpec(alphabet_size=2, lookahead=1, max_shift=2,
                                table=np.array([1, 3]))
    with pytest.raises(DomainError):
        VariableLengthShiftSpec(alphabet_size=2, lookahead=2, max_shift=2,
                                table=np.array([1, 2]))
    with pytest.raises(DomainError):
        VariableLengthShiftSpec.from_function(2, 20, lambda w: 1)


def test_codebook_driven_gamma():
    wf = WordFunction(2, 2, ((0,), (1, 0)))
    spec = VariableLengthShiftSpec.from_codebook(wf)
    assert spec.lookahead == 2
    assert spec.shift_at([0, 0]) == 1
    assert spec.shift_at([0, 1]) == 1
    assert spec.shift_at([1, 0]) == 2
    # no codeword prefixes 11, so the shift defaults to a single step
    assert spec.shift_at([1, 1]) == 1


def test_encoded_shift_commutes_prefix_free():
    codebooks = [
        WordFunction(2, 2, ((0,), (1, 0))),
        WordFunction(3, 2, ((0,), (1, 0), (1, 1))),
    ]
    rng = np.random.default_rng(21)
    codebooks.append(random_prefix_free_codebook(rng, 3, 3, 3))
    for wf in codebooks:
        A = wf.input_alphabet_size
        for n in range(1, 9):
            for x in itertools.product(range(A), repeat=n):
                assert encoded_shift_commutes(wf, x)


def test_codeword_boundary_density_matches_expected_length():
    # On an encoded stream, the codeword-driven shift visits boundaries; the
    # boundary density converges to 1 / E[codeword length] (a renewal rate).
    from wordsource import IIDSource, encode_stream

    coin = IIDSource([0.5, 0.5])
    wf = WordFunction(2, 2, ((0,), (1, 0)))
    spec = VariableLengthShiftSpec.from_codebook(wf)
    horizon = 10**4
    x = coin.sample_path(horizon + 10, seed=17).symbols
    y = encode_stream(wf, x).output
    u = spec.shift_values(y)
    pos, steps = 0, 0
    while pos <= horizon:
        pos += int(u[pos])
        steps += 1
    orbit = variable_length_orbit(spec, y, steps)
    _, density = weight_sequence(orbit, horizon)
    assert abs(density - 1 / 1.5) < 0.02


def test_orbit_coder_shares_no_code_with_the_orbit():
    # criterion 08 checks that the orbit and the finite-state coder agree bit
    # for bit; that is an identity only while the coder reads none of the
    # orbit's machinery
    source = Path(__file__).resolve().parent.parent / "src" / "wordsource" / "shifts.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    coder, = (node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "finite_state_orbit_coder")
    used = set()
    for node in ast.walk(coder):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & {"variable_length_orbit", "shift_values", "_window_codes",
                       "TimeSubsequence"}
