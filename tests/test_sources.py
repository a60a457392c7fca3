"""Source models: exact probabilities, sampling, stationarity diagnostics."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from wordsource import (
    ConfigError,
    DomainError,
    IIDSource,
    MarkovSource,
    MixtureSource,
    RangeError,
    UnsupportedModelError,
    model_from_config,
    stationary_distribution,
)

FAIR = IIDSource([0.5, 0.5])
BIASED = IIDSource([0.9, 0.1])
CHAIN = MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])
PERIODIC = MarkovSource([[0, 1], [1, 0]], [1, 0])
MIX = MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


# -- cylinder probabilities ---------------------------------------------------

def test_iid_cylinder_product_of_marginals():
    assert FAIR.cylinder_log_probability([0, 1, 0]) == pytest.approx(math.log(0.125), abs=1e-15)


def test_markov_cylinder_chain_rule():
    assert CHAIN.cylinder_log_probability([0, 0, 1]) == pytest.approx(math.log(0.9 * 0.1), abs=1e-14)


def test_mixture_cylinder_weighted_sum():
    expected = math.log(0.5 * 0.25 + 0.5 * 0.81)
    assert MIX.cylinder_log_probability([0, 0]) == pytest.approx(expected, abs=1e-14)


def test_cylinder_zero_probability_is_neg_inf():
    assert PERIODIC.cylinder_log_probability([0, 0]) == float("-inf")
    assert PERIODIC.cylinder_log_probability([1]) == float("-inf")


def test_cylinder_rejects_out_of_alphabet():
    with pytest.raises(DomainError):
        FAIR.cylinder_log_probability([0, 2])
    with pytest.raises(DomainError):
        FAIR.cylinder_log_probability([])


def _all_models():
    rng = np.random.default_rng(1234)
    models = [FAIR, BIASED, CHAIN, PERIODIC, MIX]
    models.append(IIDSource(rng.dirichlet(np.ones(3))))
    models.append(MarkovSource(
        [rng.dirichlet(np.ones(3)) for _ in range(3)], rng.dirichlet(np.ones(3))
    ))
    return models


@pytest.mark.parametrize("model_idx", range(7))
def test_normalization_over_all_tuples(model_idx):
    model = _all_models()[model_idx]
    A = model.alphabet_size
    max_n = 8 if A == 2 else 5
    for n in (1, max_n // 2, max_n):
        total = math.fsum(
            math.exp(model.cylinder_log_probability(t))
            for t in itertools.product(range(A), repeat=n)
            if model.cylinder_log_probability(t) > float("-inf")
        )
        assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("model_idx", range(7))
def test_consistency_condition(model_idx):
    model = _all_models()[model_idx]
    A = model.alphabet_size
    rng = np.random.default_rng(model_idx)
    for n in range(1, 7):
        tup = tuple(int(s) for s in rng.integers(0, A, size=n))
        parent = model.cylinder_log_probability(tup)
        children = math.fsum(
            math.exp(model.cylinder_log_probability(tup + (a,)))
            for a in range(A)
            if model.cylinder_log_probability(tup + (a,)) > float("-inf")
        )
        parent_lin = math.exp(parent) if parent > float("-inf") else 0.0
        assert abs(parent_lin - children) < 1e-12


# -- sampling -----------------------------------------------------------------

def test_sample_reproducible():
    a = FAIR.sample_path(50, seed=7)
    b = FAIR.sample_path(50, seed=7)
    c = FAIR.sample_path(50, seed=8)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)
    assert a.model_id == FAIR.model_id


def test_sample_law_of_large_numbers():
    path = FAIR.sample_path(10**5, seed=3)
    freq = np.mean(path.symbols == 0)
    assert abs(freq - 0.5) < 0.01


def test_markov_sample_matches_stationary_frequency():
    path = CHAIN.sample_path(10**5, seed=5)
    assert abs(np.mean(path.symbols == 0) - 5 / 6) < 0.01


# sha256 of 1e4-symbol Markov paths as sampled by the per-step searchsorted
# walk; the bulk sampler must reproduce them bit for bit, across its chunks
PINNED_MARKOV_PATHS = {
    "two": ([[0.9, 0.1], [0.5, 0.5]], [1.0, 0.0], [
        "c2d511675a73a3889b72c0db3e642de58901c73ae97e3445cc3b84fc15e94ea7",
        "f5baac8eab13b6771c6235a79354d0393a60871cc9b0cef3244f5276a3cdfad1",
        "930106ff0677f98f31233359c341ef7a72d9d4e14e462d582ec6ad558c5147fc",
    ]),
    "three": ([[0.2, 0.3, 0.5], [0.0, 0.6, 0.4], [0.7, 0.3, 0.0]], [0.3, 0.3, 0.4], [
        "dce686eaf5d7dbcf5bc562f7d7ba9c63fcdc67c17c2d6f350fe191683a3bc8a7",
        "4a4340edd39c3bccaf023dcc5f61a0bcb5e8357925fa7b0033f97ed721e81039",
        "a6d90cb895f5913cdae413112751191cfb8bb3681f4bb38fe69a10da3b3a8f9a",
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_MARKOV_PATHS))
def test_markov_sample_paths_pinned(name):
    P, init, digests = PINNED_MARKOV_PATHS[name]
    model = MarkovSource(P, init)
    for seed, digest in enumerate(digests):
        symbols = model.sample_path(10_000, seed).symbols
        assert hashlib.sha256(symbols.astype("<i8").tobytes()).hexdigest() == digest


def test_mixture_degenerate_weights_sample_single_component():
    mix = MixtureSource([1.0, 0.0], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])
    for seed in range(5):
        assert mix.sample_path(100, seed).component_index == 0


def test_mixture_paths_concentrate_on_one_component():
    marginals = [0.5, 0.9]
    hits = 0
    for seed in range(100):
        path = MIX.sample_path(10**4, seed)
        freq = np.mean(path.symbols == 0)
        near = [abs(freq - m) <= 0.02 for m in marginals]
        hits += sum(near) == 1 and near[path.component_index]
    assert hits >= 99


def test_source_chain_built_once():
    # scans and shifted probabilities share one identity-codebook chain
    model = MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])
    chain = model._chain
    model.shifted_cylinder_probability([0], 3)
    assert model._chain is chain


# -- shifted probabilities and Cesaro averages --------------------------------

def test_shifted_iid_invariant():
    assert FAIR.shifted_cylinder_probability([0], 7) == 0.5


def test_shifted_periodic_alternates():
    assert PERIODIC.shifted_cylinder_probability([0], 0) == 1.0
    assert PERIODIC.shifted_cylinder_probability([0], 1) == 0.0


def test_shifted_markov_approaches_stationary():
    val = CHAIN.shifted_cylinder_probability([0], 200)
    assert abs(val - 5 / 6) < 1e-12


def test_shifted_rejects_over_horizon():
    with pytest.raises(RangeError):
        FAIR.shifted_cylinder_probability([0], 10**8)


def test_cesaro_periodic_average():
    val = PERIODIC.cesaro_cylinder_average([0], 1000)
    assert abs(val - 0.5) <= 1e-3


def test_cesaro_iid_equals_cylinder_probability():
    for tup in ([0], [0, 1], [1, 1, 0]):
        p = math.exp(FAIR.cylinder_log_probability(tup))
        assert FAIR.cesaro_cylinder_average(tup, 137) == p


def test_cesaro_markov_horizon():
    assert abs(CHAIN.cesaro_cylinder_average([0], 10**4) - 5 / 6) < 1e-3


def test_stationary_fixed_point_exact():
    # init @ P reproduces init bitwise for this symmetric chain
    model = MarkovSource([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
    assert model.is_stationary()
    p = model.shifted_cylinder_probability([0, 1], 0)
    for n in (1, 3, 10, 997):
        assert model.cesaro_cylinder_average([0, 1], n) == p


# -- decomposition ------------------------------------------------------------

def test_mixture_decomposition_consistency():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        tup = tuple(int(s) for s in rng.integers(0, 2, size=n))
        direct = MIX.cylinder_log_probability(tup)
        manual = math.log(math.fsum(
            w * math.exp(c.cylinder_log_probability(tup))
            for w, c in zip(MIX.weights, MIX.components)
        ))
        assert abs(direct - manual) < 1e-12


def test_ergodic_components_iid_is_itself():
    comps = FAIR.ergodic_components()
    assert len(comps) == 1
    assert comps[0][0] == 1.0
    assert comps[0][1] is FAIR


def test_ergodic_components_mixture_lists_components():
    comps = MIX.ergodic_components()
    assert [w for w, _ in comps] == [0.5, 0.5]
    assert np.allclose(comps[1][1].marginal_distribution(), [0.9, 0.1])


def test_ergodic_components_markov_restarts_at_stationary():
    (weight, comp), = CHAIN.ergodic_components()
    assert weight == 1.0
    assert np.allclose(comp.initial, [5 / 6, 1 / 6], atol=1e-12)
    assert np.array_equal(comp.matrix, CHAIN.matrix)


def test_ergodic_components_rejects_periodic():
    with pytest.raises(UnsupportedModelError, match="periodic"):
        PERIODIC.ergodic_components()


def test_ergodic_components_rejects_reducible():
    reducible = MarkovSource([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(UnsupportedModelError, match="irreducible"):
        reducible.ergodic_components()


def test_period_and_irreducibility_read_off_the_transition_graph():
    two = MarkovSource([[0, 1], [1, 0]], [1, 0])
    three = MarkovSource([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1, 0, 0])
    # 0 -> 1 -> 0 and 0 -> 1 -> 2 -> 0: cycles of lengths 2 and 3 together
    both = MarkovSource([[0, 1, 0], [0.5, 0, 0.5], [1, 0, 0]], [1, 0, 0])
    loop = MarkovSource([[0.5, 0.5], [1, 0]], [1, 0])
    assert [m.period() for m in (two, three, both, loop)] == [2, 3, 1, 1]
    assert all(m.is_irreducible() for m in (two, three, both, loop))
    # state 0 reaches every state, but no state leads back to it
    one_way = MarkovSource([[0, 0.5, 0.5], [0, 0.5, 0.5], [0, 0.5, 0.5]], [1, 0, 0])
    assert not one_way.is_irreducible()
    with pytest.raises(UnsupportedModelError, match="irreducible"):
        one_way.period()


def test_stationary_distribution_solver():
    pi = stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]]))
    assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-12)
    pi = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_distribution_raises_instead_of_guessing():
    # the identity chain is reducible: the normalised system is singular, and
    # no uniform guess comes back in place of a law
    with pytest.raises(UnsupportedModelError, match="singular"):
        stationary_distribution([[1, 0], [0, 1]])


# irreducible and aperiodic by its graph, but 1 - 1e-17 rounds to 1.0, so the
# stored rows do not sum to 1 exactly and the solve fails its residual check
DEGENERATE = [[1 - 1e-17, 5e-18, 5e-18], [0.3, 0.3, 0.4], [1e-17, 0, 1 - 1e-17]]


def test_numerically_degenerate_chain_has_no_entropy_rate():
    chain = MarkovSource(DEGENERATE, [1, 0, 0])
    assert chain.is_irreducible() and chain.period() == 1
    with pytest.raises(UnsupportedModelError, match="numerically degenerate"):
        chain.entropy_rate_exact()


def test_markov_stationary_law_is_solved_once(monkeypatch):
    from wordsource import sources
    from wordsource.entropy import component_bounds
    from wordsource.wordcode import WordFunction

    solves = []
    solve = sources.stationary_distribution
    monkeypatch.setattr(sources, "stationary_distribution",
                        lambda matrix: solves.append(1) or solve(matrix))
    chain = MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])
    wf = WordFunction(2, 2, ((0,), (1, 0)))
    first = component_bounds(chain, wf)
    # one solve for the chain, one for the chain restarted from its law
    assert len(solves) <= 2
    solves.clear()
    assert component_bounds(chain, wf) == first
    assert solves == []
    parts = chain.ergodic_components()
    # a fresh list on each call, holding the one cached restarted chain
    assert parts is not chain.ergodic_components()
    assert parts[0][1] is chain.ergodic_components()[0][1]


# -- entropy rates ------------------------------------------------------------

def test_entropy_rate_fair_coin():
    assert FAIR.entropy_rate_exact() == 1.0


def test_entropy_rate_biased_iid():
    assert BIASED.entropy_rate_exact() == pytest.approx(binary_entropy(0.9), abs=1e-14)


def test_entropy_rate_markov_conditional_formula():
    expected = (5 / 6) * binary_entropy(0.9) + (1 / 6) * 1.0
    assert CHAIN.entropy_rate_exact() == pytest.approx(expected, abs=1e-12)


def test_entropy_rate_mixture_weighted_average():
    expected = 0.5 * 1.0 + 0.5 * binary_entropy(0.9)
    assert MIX.entropy_rate_exact() == pytest.approx(expected, abs=1e-14)


def test_entropy_rate_uniform_alphabets():
    for k in (2, 4, 8, 16):
        assert IIDSource([1 / k] * k).entropy_rate_exact() == math.log2(k)
    for k in (3, 5):
        assert IIDSource([1 / k] * k).entropy_rate_exact() == pytest.approx(
            math.log2(k), rel=1e-14
        )


def test_entropy_rate_rejects_reducible():
    reducible = MarkovSource([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(UnsupportedModelError):
        reducible.entropy_rate_exact()


def test_entropy_rate_periodic_irreducible_allowed():
    # irreducible periodic chains have a unique stationary law
    assert PERIODIC.entropy_rate_exact() == 0.0


# -- configs and validation ----------------------------------------------------

def test_config_roundtrip():
    for model in (FAIR, CHAIN, MIX):
        rebuilt = model_from_config(model.config_dict())
        assert rebuilt.config_dict() == model.config_dict()
        assert rebuilt.model_id == model.model_id


def test_invalid_probability_vectors_rejected():
    with pytest.raises(ConfigError):
        IIDSource([0.5, 0.48])
    with pytest.raises(ConfigError):
        IIDSource([1.5, -0.5])
    with pytest.raises(ConfigError):
        MarkovSource([[0.9, 0.2], [0.5, 0.5]], [1, 0])


def test_near_one_vectors_renormalized():
    model = IIDSource([0.5 + 2e-10, 0.5])
    assert model.distribution.sum() == pytest.approx(1.0, abs=1e-15)


def test_mixture_validation():
    with pytest.raises(ConfigError, match="nested"):
        MixtureSource([1.0], [MIX])
    with pytest.raises(ConfigError, match="periodic"):
        MixtureSource([0.5, 0.5], [FAIR, PERIODIC])
    with pytest.raises(ConfigError):
        MixtureSource([0.7, 0.7], [FAIR, BIASED])


def test_model_from_config_errors():
    with pytest.raises(ConfigError):
        model_from_config({"type": "gauss"})
    with pytest.raises(ConfigError):
        model_from_config({"type": "iid"})
    with pytest.raises(ConfigError):
        model_from_config({"type": "markov", "P": [[1]]})
