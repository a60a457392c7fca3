"""Time averages and cylinder frequencies, spread diagnostics, AMS traces."""

import math

import numpy as np
import pytest

from wordsource import (
    CylinderFunction,
    DomainError,
    IIDSource,
    InducedMeasure,
    MarkovSource,
    MixtureSource,
    RangeError,
    WordFunction,
    ams_diagnostic,
    bellow_check,
    default_checkpoints,
    encode_stream,
    ergodicity_spread,
    time_average,
    variable_length_orbit,
    VariableLengthShiftSpec,
)

FAIR = IIDSource([0.5, 0.5])
CHAIN = MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])
PERIODIC = MarkovSource([[0, 1], [1, 0]], [1, 0])
MIX = MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])
WF = WordFunction(2, 2, ((0,), (1, 0)))
IND_ZERO = CylinderFunction.indicator(2, [0])


def test_cylinder_function_validation():
    with pytest.raises(DomainError):
        CylinderFunction(alphabet_size=2, order=13, table=np.zeros(2**13))
    with pytest.raises(DomainError):
        CylinderFunction(alphabet_size=2, order=2, table=np.zeros(3))
    g = CylinderFunction.indicator(2, [1, 0])
    assert g.bound == 1.0
    assert list(g.values_along([1, 0, 0, 1, 0])) == [1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("pattern", [[2], [0, -1]])
def test_indicator_rejects_symbols_outside_the_alphabet(pattern):
    with pytest.raises(DomainError, match="outside the alphabet"):
        CylinderFunction.indicator(2, pattern)


def test_time_average_periodic_sequence():
    w = np.tile([0, 1], 600)
    verdict = time_average(w, IND_ZERO, [10, 100, 1000])
    assert np.array_equal(verdict.partial_averages, [0.5, 0.5, 0.5])
    assert verdict.converged


def test_time_average_encoded_alternating_path():
    x = np.tile([0, 1], 700)
    y = encode_stream(WF, x).output
    verdict = time_average(y, IND_ZERO, [300, 600, 900, 1200])
    assert abs(verdict.final - 2 / 3) < 2e-3
    assert verdict.converged


def test_time_average_constant_function():
    g = CylinderFunction.constant(2, 3.25)
    w = FAIR.sample_path(500, seed=0).symbols
    verdict = time_average(w, g, [1, 10, 500])
    assert np.array_equal(verdict.partial_averages, [3.25, 3.25, 3.25])
    assert verdict.spread == 0.0


def test_time_average_window_overrun():
    g = CylinderFunction.indicator(2, [0, 1, 1])
    with pytest.raises(RangeError):
        time_average([0, 1, 0, 1], g, [3])


def test_ergodicity_spread_iid_small():
    sr = ergodicity_spread(FAIR, IND_ZERO, paths=100, horizon=10**4, seed=3)
    assert sr.spread < 0.02


def test_ergodicity_spread_mixture_bimodal():
    sr = ergodicity_spread(MIX, IND_ZERO, paths=100, horizon=10**4, seed=3)
    assert 0.15 < sr.spread < 0.25
    # finals cluster at the two component marginals
    near0 = np.abs(sr.finals - 0.5) < 0.05
    near1 = np.abs(sr.finals - 0.9) < 0.05
    assert np.all(near0 | near1)


def test_ergodicity_spread_deterministic_source():
    sr = ergodicity_spread(PERIODIC, IND_ZERO, paths=10, horizon=1000, seed=1)
    assert sr.spread == 0.0


def test_ams_diagnostic_periodic_vs_stationary():
    verdicts = ams_diagnostic(PERIODIC, [[0]], 1000)
    assert abs(verdicts[0].final - 0.5) <= 1e-3
    assert verdicts[0].converged
    # the per-step probabilities oscillate even though the Cesaro trace settles
    steps = [PERIODIC.shifted_cylinder_probability([0], i) for i in range(6)]
    assert steps == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    stationary = MarkovSource([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
    verdicts = ams_diagnostic(stationary, [[0]], 500)
    assert np.array_equal(verdicts[0].partial_averages,
                          np.full(verdicts[0].partial_averages.size, 0.5))


def test_cesaro_markov_horizon():
    verdict = ams_diagnostic(CHAIN, [[0]], 10**4)[0]
    assert abs(verdict.final - 5 / 6) < 1e-3


def test_ams_diagnostic_induced_exact():
    induced = InducedMeasure(FAIR, WF)
    verdict = ams_diagnostic(induced, [[0]], 1000)[0]
    assert abs(verdict.final - 2 / 3) <= 1 / 1000


def test_ams_periodic_codebook_alternates_exactly():
    # {00, 10} over a fair coin: every even output position holds a codeword's
    # first symbol (0 with probability 1/2), every odd one a 0; the output is
    # AMS with Cesaro limit 3/4 but not stationary
    induced = InducedMeasure(FAIR, WordFunction(2, 2, ((0, 0), (1, 0))))
    steps = induced.shifted_cylinder_probability([0], np.arange(50))
    assert steps.tolist() == [0.5, 1.0] * 25
    cps = default_checkpoints(10**5)
    verdict = ams_diagnostic(induced, [[0]], 10**5, checkpoints=cps)[0]
    assert np.all(np.abs(verdict.partial_averages - 0.75) <= 1.0 / cps)


def test_ams_diagnostic_horizon_guard():
    with pytest.raises(DomainError):
        ams_diagnostic(FAIR, [[0]], 50)


@pytest.mark.parametrize("checkpoints", [[0, 100], [], [100, 101]])
def test_ams_diagnostic_checkpoint_guard(checkpoints):
    # checkpoint 0 would divide by zero, and one past the horizon would
    # silently lengthen the trace
    with pytest.raises(DomainError):
        ams_diagnostic(FAIR, [[0]], 100, checkpoints=checkpoints)


def _frequency(symbols, pattern, horizon):
    """Relative frequency of [pattern] among the first ``horizon`` windows."""
    g = CylinderFunction.indicator(2, pattern)
    return time_average(symbols, g, [horizon]).final


def test_cylinder_frequency_fair_coin_pairs():
    path = FAIR.sample_path(10**5 + 1, seed=5)
    for pattern in ([0, 0], [0, 1], [1, 0], [1, 1]):
        assert abs(_frequency(path.symbols, pattern, 10**5) - 0.25) < 0.01


def test_cylinder_frequency_mixture_path():
    path = None
    for seed in range(20):
        candidate = MIX.sample_path(10**4 + 1, seed)
        if candidate.component_index == 1:
            path = candidate
            break
    assert abs(_frequency(path.symbols, [0], 10**4) - 0.9) < 0.01


def test_cylinder_frequency_deterministic_alternation():
    w = np.tile([0, 1], 501)
    assert _frequency(w, [0], 1000) == 0.5
    assert _frequency(w, [1], 1000) == 0.5


def test_cylinder_frequency_marginal_consistency_exact():
    # every order shares the same window range, so the integer counts add up
    path = FAIR.sample_path(10**4 + 3, seed=9)

    def freq(pattern):
        return _frequency(path.symbols, pattern, 10**4)

    for a in range(2):
        for b in range(2):
            assert freq([a, b]) == freq([a, b, 0]) + freq([a, b, 1])
        assert freq([a]) == freq([a, 0]) + freq([a, 1])


def test_negative_control_mixture_fails_spread_passes_ams():
    sr = ergodicity_spread(MIX, IND_ZERO, paths=100, horizon=10**4, seed=13)
    assert sr.spread > 0.1
    verdict = ams_diagnostic(MIX, [[0]], 10**4)[0]
    assert verdict.converged


def test_source_convergence_implies_output_convergence():
    # order <= 3 indicator battery on three paths per model
    cps = default_checkpoints(10**4)
    battery = [CylinderFunction.indicator(2, p) for p in
               ([0], [1], [0, 0], [1, 0], [0, 1, 1], [1, 1, 1])]
    for model in (FAIR, CHAIN):
        for seed in range(3):
            path = model.sample_path(10**4 + 3, seed)
            source_ok = all(
                time_average(path.symbols, g, cps, tol=0.02).converged for g in battery
            )
            y = encode_stream(WF, path.symbols).output[: 10**4 + 3]
            output_ok = all(
                time_average(y, g, cps, tol=0.02).converged for g in battery
            )
            assert source_ok
            assert output_ok


def test_orbit_averages_tie_to_weighted_full_averages():
    # Sampling an ergodic path along a variable-length orbit still converges,
    # and the density-weighted identity holds at the horizon. The sampled
    # positions are window-biased: for gamma(w) = 1 + w0 + w1 on a fair coin,
    # the stationary window chain gives pi(00) = pi(01) = 1/3 and
    # pi(10) = pi(11) = 1/6, so the orbit frequency of a leading 0 is 2/3 and
    # the orbit density is 1 / E[step] = 6/11.
    horizon = 10**4
    path = FAIR.sample_path(horizon + 10, seed=21).symbols
    spec = VariableLengthShiftSpec.from_function(2, 2, lambda w: 1 + w[0] + w[1])
    values = IND_ZERO.values_along(path)

    pos, steps = 0, 0
    while True:
        nxt = pos + spec.shift_at(path[pos:pos + 2])
        if nxt > horizon:
            break
        pos, steps = nxt, steps + 1
    orbit = variable_length_orbit(spec, path, steps)
    partials = bellow_check(values, orbit, horizon)
    assert abs(partials.lhs - partials.rhs) < 1e-12
    k = int(np.searchsorted(orbit.zeta, horizon))
    assert abs(k / horizon - 6 / 11) < 0.02
    sub_avg = values[orbit.zeta[:k]].mean()
    assert abs(sub_avg - 2 / 3) < 0.02
    a = max(2, k // 4)
    tail = [values[orbit.zeta[:m]].mean() for m in range(k - a, k)]
    assert max(tail) - min(tail) < 0.02
