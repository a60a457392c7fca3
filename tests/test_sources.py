"""Source models: exact probabilities, sampling, stationarity diagnostics."""

import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest

from wordsource import sources
from wordsource import (
    ConfigError,
    DomainError,
    IIDSource,
    InducedMeasure,
    MarkovSource,
    MixtureSource,
    RangeError,
    ResourceError,
    UnsupportedModelError,
    WordFunction,
    ams_diagnostic,
    block_log_probability_tables,
    model_from_config,
    sample_entropy_trace,
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



def _reference_sample(model, rng, length):
    """The per-step successor walk that the block automaton replaced."""
    u = rng.random(length)
    out = np.empty(length, dtype=np.int64)
    state = int(np.searchsorted(np.cumsum(model.initial), u[0], side="right"))
    if state > model._init_top:
        state = model._init_top
    out[0] = state
    for start in range(1, length, 4096):
        chunk = u[start:start + 4096]
        successors = [
            np.minimum(np.searchsorted(cum, chunk, side="right"), top).tolist()
            for cum, top in zip(model._cum_rows, model._row_top)
        ]
        walk = []
        for i in range(chunk.size):
            state = successors[state][i]
            walk.append(state)
        out[start:start + chunk.size] = walk
    return out


def _random_law(rng, K):
    """A law on K symbols with zero entries, the last one too."""
    p = rng.uniform(0.0, 1.0, K) * (rng.uniform(size=K) > 0.35)
    if not p.any():
        p[rng.integers(K)] = 1.0
    return p / p.sum()


def _random_chain(rng, K):
    """A K-state chain whose rows and initial law have zero entries, last ones too."""
    return MarkovSource([_random_law(rng, K) for _ in range(K)], _random_law(rng, K))


def _path_lengths(model):
    # the walk reads length - 1 inputs, k per block, in chunks of whole blocks
    k = model._automaton[1].powers.size
    span = max(sources.SAMPLE_CHUNK // k, 1) * k
    return sorted({n for n in (1, 2, k - 1, k, k + 1, k + 2, span, span + 1, span + 2,
                               sources.SAMPLE_CHUNK - 1, sources.SAMPLE_CHUNK,
                               sources.SAMPLE_CHUNK + 1, 10**4) if n >= 1})


@pytest.mark.parametrize("chunk", [5, sources.SAMPLE_CHUNK])
def test_markov_sampler_equals_the_per_step_walk(chunk, monkeypatch):
    monkeypatch.setattr(sources, "SAMPLE_CHUNK", chunk)
    rng = np.random.default_rng(2024 + chunk)
    for trial in range(100):
        model = _random_chain(rng, int(rng.integers(2, 6)))
        seed = int(rng.integers(1 << 30))
        for length in _path_lengths(model):
            if length == 10**4 and trial % 10:
                continue  # the longest paths on every tenth chain keep the test short
            ref = _reference_sample(model, np.random.default_rng(seed), length)
            got, _ = model._sample(np.random.default_rng(seed), length)
            assert got.dtype == np.int64 and np.array_equal(got, ref), (trial, length)


class _Uniforms:
    """A stand-in generator whose ``random(n)`` returns given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        return np.resize(self.values, n)


def test_markov_sampler_on_zeros_breakpoints_and_clamped_rows():
    # each cumulative row of ten 0.1 entries ends at 1 - 2^-53, below 1, so a
    # uniform at or past it clamps to the row's top supported symbol
    P = np.full((10, 10), 0.1)
    P[1] = [0.2] + [0.1] * 8 + [0.0]
    P[2] = [0.0] * 5 + [0.2] * 5
    model = MarkovSource(P, [0.1] * 10)
    assert model._cum_rows[0, -1] < 1.0 and model._cum_rows[1, -1] < 1.0
    top = np.nextafter(1.0, 0.0)
    cases = [
        [0.0],
        np.sort(np.concatenate([model._cum_rows.ravel(), [0.0, top]])),
        [top, 0.95, top, 0.0, top, model._cum_rows[1, -1], top],
        np.random.default_rng(3).choice(np.concatenate([model._cum_rows.ravel(), [top]]), 500),
    ]
    for values in cases:
        for length in (1, 2, 11, 500, 4099):
            got, _ = model._sample(_Uniforms(values), length)
            assert np.array_equal(got, _reference_sample(model, _Uniforms(values), length))
    clamped, _ = model._sample(_Uniforms([top, 0.95, top]), 3)
    assert clamped.tolist() == [9, 9, 9]


def test_markov_sampler_fits_101_states_and_refuses_a_larger_table():
    # distinct cumulative sums: 101 states need 101 * (101**2 + 1) <= 2**20
    # table entries, 1000 states about 1e9
    rng = np.random.default_rng(5)
    model = MarkovSource(rng.dirichlet(np.ones(101), 101), np.full(101, 1 / 101))
    got, _ = model._sample(np.random.default_rng(1), 3000)
    assert np.array_equal(got, _reference_sample(model, np.random.default_rng(1), 3000))
    big = MarkovSource(rng.dirichlet(np.ones(1000), 1000), np.full(1000, 1e-3))
    with pytest.raises(ResourceError, match="cap 1048576"):
        big.sample_path(10, 0)


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


def _answer_everything(model):
    """Build every cache a source keeps: its chain, its dense matrix, its
    forward nodes and its sampler."""
    model.shifted_cylinder_probability([0, 1], np.arange(30))
    ams_diagnostic(model, [[0], [1, 0]], 100)
    block_log_probability_tables(model, 4)
    sample_entropy_trace(model, model.sample_path(200, 7).symbols, [10, 100, 200])


@pytest.mark.parametrize("make", [
    lambda: MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0]),
    lambda: MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]),
                                       MarkovSource([[0.9, 0.1], [0.5, 0.5]], [1, 0])]),
], ids=["markov", "mixture"])
def test_source_is_freed_without_the_cycle_collector(make):
    # a source keeps its chain, which never points back at it, so reference
    # counting alone frees the source with everything it has cached
    gc.disable()
    try:
        model = make()
        _answer_everything(model)
        assert model._chain.nodes[0]  # the scans have stored forward nodes
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


def _random_source(rng, kind, K):
    """An IID, Markov or mixture source whose laws have zero entries; a
    mixture's weights may be zero too, and its Markov components are positive."""
    if kind == "iid":
        return IIDSource(_random_law(rng, K))
    if kind == "markov":
        return _random_chain(rng, K)
    parts = [IIDSource(_random_law(rng, K)),
             MarkovSource(rng.dirichlet(np.ones(K), K), _random_law(rng, K))]
    return MixtureSource(_random_law(rng, len(parts)), parts)


def test_source_answers_are_its_identity_measure_bit_for_bit():
    # a source's shifted probabilities, block tables and sample-entropy trace
    # run on its own chain; each is the identity-codebook induced measure's
    rng = np.random.default_rng(25)
    for trial in range(99):
        kind = ("iid", "markov", "mixture")[trial % 3]
        model = _random_source(rng, kind, int(rng.integers(2, 5)))
        A = model.alphabet_size
        identity = InducedMeasure(model, WordFunction(A, A, tuple((a,) for a in range(A))))
        for _ in range(2):
            cylinder = rng.integers(0, A, int(rng.integers(1, 4)))
            got = model.shifted_cylinder_probability(cylinder, np.arange(50))
            want = identity.shifted_cylinder_probability(cylinder, np.arange(50))
            assert got.tobytes() == want.tobytes(), (trial, kind)
        for got, want in zip(block_log_probability_tables(model, 5),
                             block_log_probability_tables(identity, 5)):
            assert got.tobytes() == want.tobytes(), (trial, kind)
        # a path of the source, and a uniform one that may leave its support
        for path in (model.sample_path(300, trial).symbols, rng.integers(0, A, 300)):
            got = sample_entropy_trace(model, path, [1, 7, 50, 300])
            want = sample_entropy_trace(identity, path, [1, 7, 50, 300])
            assert got.values.tobytes() == want.values.tobytes(), (trial, kind)
            assert got.left_support_at == want.left_support_at


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


def test_cesaro_iid_equals_cylinder_probability():
    # tolerance 0.0 asks for bitwise equality
    for tup, tol in (([0], 0.0), ([0, 1], 0.0), ([1, 1, 0], 1e-15)):
        p = math.exp(FAIR.cylinder_log_probability(tup))
        partials = ams_diagnostic(FAIR, [tup], 137)[0].partial_averages
        assert np.all(np.abs(partials - p) <= tol)


def test_stationary_fixed_point_exact():
    # init @ P reproduces init bitwise for this symmetric chain, so the dense
    # chain's forward vector repeats from shift 1 on and its cycle is replayed
    model = MarkovSource([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
    trace = model.shifted_cylinder_probability([0, 1], np.arange(997))
    assert np.all(trace[1:] == trace[1])
    partials = ams_diagnostic(model, [[0, 1]], 997, checkpoints=[1, 3, 10, 997])[0]
    assert np.all(np.abs(partials.partial_averages - trace[0]) <= 1e-14)


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
