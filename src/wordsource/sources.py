"""Finite-alphabet source models with exact cylinder probabilities.

Three model families are supported:

  * ``IIDSource``     - independent draws from a fixed marginal
  * ``MarkovSource``  - first-order chain (row-stochastic matrix + start vector)
  * ``MixtureSource`` - finite convex mixture of IID / ergodic Markov components

A model's law is data: ``parts`` lists one (weight, log weight, initial law,
transition rows) per component, weights as Python floats and laws as arrays.
An IID source is one part whose rows all repeat its marginal, a Markov source
is one part, and a mixture lists its components' parts under its own weights.
The chain kernel of ``entropy``, the brute-force oracle and the first-symbol
law ``marginal_distribution`` read only ``parts``.

Every model answers exact cylinder probabilities mu([a^n]) in natural-log
space, samples reproducible paths from an explicit seed, evaluates shifted
cylinder probabilities mu(T^-i [a^n]), exposes its ergodic components, and
reports its exact entropy rate in bits per symbol. Shifted probabilities
have no per-family code: mu is the induced law under the identity codebook,
so they are the induced measure's exact chain computation, as are the
source's block tables and sample-entropy traces; a model keeps that chain,
lists and arrays built from ``parts``, never an induced measure of itself.
Their Cesaro averages (the finite-horizon AMS diagnostic) come from
``ergodic.ams_diagnostic``, for sources and induced measures alike.

A Markov path is walked as a ``BlockAutomaton``, k symbols per Python step;
each row sends a whole interval between the rows' merged cumulative sums to
one successor, so every seeded path is the per-step ``searchsorted`` walk's.

Mixtures realise the ergodic decomposition extensionally: sampling draws one
component per path and holds it fixed, so each realisation is governed by a
single ergodic component, and the mixture's cylinder probabilities are the
weight-sums of the component probabilities, combined by ``log_mixture``.

Each family keeps its own ``cylinder_log_probability``, a vectorised sum of
log factors read from the family's own fields rather than from ``parts``: a
path separate from the chain kernel, so it stays an independent check of it.

Probabilities are carried in natural log internally; bits appear only at
reporting boundaries. Long paths underflow linear space, logs do not.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, ResourceError, UnsupportedModelError

NEG_INF = float("-inf")
LN2 = math.log(2.0)

# Sum tolerance accepted for probability vectors before renormalisation.
PROB_SUM_TOL = 1e-9

# Every table whose size an input sets holds at most this many cells: block
# tables, automata, gamma tables, indicator batteries, and the paths of a run.
DEFAULT_ENUMERATION_CELLS = 2**20

# Inputs per chunk of a BlockAutomaton walk, which bounds its per-chunk arrays.
SAMPLE_CHUNK = 4096

# A BlockAutomaton of K states and M input classes reads k inputs per Python
# step, the largest k with max(M, 2)**k <= BLOCK_CODES block codes and
# K * M**k * k <= cells tabulated states (DEFAULT_ENUMERATION_CELLS unless the
# caller passes fewer); K * M above the cap is refused.
BLOCK_CODES = 1024


def as_symbols(symbols, alphabet_size):
    """Validate a symbol tuple and return it as a 1-D int64 array.

    Raises DomainError if any index falls outside [0, alphabet_size).
    """
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.ndim != 1:
        raise DomainError(f"symbol tuple must be one-dimensional, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= alphabet_size):
        bad = arr[(arr < 0) | (arr >= alphabet_size)][0]
        raise DomainError(
            f"symbol {int(bad)} outside alphabet of size {alphabet_size}"
        )
    return arr


def as_cylinder(symbols, alphabet_size):
    """``as_symbols`` of a cylinder tuple, which must be nonempty."""
    arr = as_symbols(symbols, alphabet_size)
    if arr.size == 0:
        raise DomainError("cylinder tuple must be nonempty")
    return arr


def _as_probability_vector(vec, name):
    try:
        arr = np.asarray(vec, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a nonempty probability vector") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name}: expected a nonempty probability vector")
    if np.any(arr < 0):
        raise ConfigError(f"{name}: negative entries are not allowed")
    total = float(arr.sum())
    if not math.isfinite(total) or abs(total - 1.0) > PROB_SUM_TOL:
        raise ConfigError(f"{name}: entries sum to {total!r}, not 1 within {PROB_SUM_TOL}")
    return arr / total


def _log_vector(p):
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), NEG_INF)


def seed_sequence(seed):
    """Accept ints, entropy sequences, or an existing SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed)


# Rounding may push a total log probability a few ulp above 0; anything worse
# than this slack is a genuine accounting bug, not noise.
LOG_PROB_SLACK = 1e-9


def _clamp_log_prob(lp):
    if lp > 0.0:
        if lp > LOG_PROB_SLACK:
            raise ArithmeticError(
                f"log probability {lp!r} exceeds 0 beyond numerical slack"
            )
        return 0.0
    return lp


def log_mixture(log_weights, lps):
    """log of sum_c exp(log_weights[c] + lps[c]), for Python floats.

    Terms at -inf are skipped and a single live term is returned as it is;
    otherwise the max-shifted sum is taken in component order, so the result
    is deterministic. Either way it is clamped to 0 within LOG_PROB_SLACK.
    """
    terms = [t for t in map(operator.add, log_weights, lps) if t > NEG_INF]
    if len(terms) > 1:
        m = max(terms)
        acc = 0.0
        for t in terms:
            acc += math.exp(t - m)
        terms = [m + math.log(acc)]
    return _clamp_log_prob(terms[0]) if terms else NEG_INF


def stationary_distribution(matrix):
    """Stationary row vector pi with pi @ P = pi and sum(pi) = 1.

    One solve of (P^T - I) pi = 0 with the last equation replaced by the
    normalisation sum(pi) = 1; it covers periodic chains too, where power
    iteration would oscillate. An irreducible chain makes the system
    nonsingular, so a singular solve, an entry below -1e-10 or a residual
    above 1e-9 raises UnsupportedModelError instead of returning a guess.
    """
    P = np.asarray(matrix, dtype=float)
    k = P.shape[0]
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi = None
    if pi is not None and pi.min() >= -1e-10:
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        if np.max(np.abs(pi @ P - pi)) <= 1e-9:
            return pi
    raise UnsupportedModelError(
        "stationary solve is singular, has a negative entry or a residual above "
        "1e-9; the chain is reducible or numerically degenerate"
    )


def _levels(adj):
    """Breadth-first level of every state from state 0 along the boolean
    adjacency ``adj``; -1 where state 0 does not reach."""
    level = np.full(adj.shape[0], -1, dtype=np.int64)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(adj[u])[0]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return level


class BlockAutomaton:
    """A deterministic finite automaton over states 0..K-1 and input classes
    0..M-1, walked k inputs per Python step.

    ``row(s)`` gives state s's successor on every input class. For each state
    and block code (k inputs as a base-M number) a table built once holds the
    k states the block passes through, in the smallest unsigned dtype; it holds
    at most ``cells`` states, so a walk of few inputs passes their number. A
    walk takes one Python step per block and gathers the states a chunk at a time.
    """

    def __init__(self, K, M, row, cells=DEFAULT_ENUMERATION_CELLS):
        if K * M > DEFAULT_ENUMERATION_CELLS:
            raise ResourceError(f"an automaton of {K} states and {M} input classes needs "
                                f"{K * M} table entries (cap {DEFAULT_ENUMERATION_CELLS})")
        k = 1
        while max(M, 2) ** (k + 1) <= BLOCK_CODES and K * M ** (k + 1) * (k + 1) <= cells:
            k += 1
        step = np.empty((K, M), np.intp)
        for s in range(K):
            step[s] = row(s)
        # states[s, c, j], the state after input j of code c read from s, is
        # ``state`` after j + 1 inputs, a function of c's leading j + 1 digits
        states = np.empty((K, M**k, k), np.min_scalar_type(K - 1))
        state = np.arange(K)[:, None]
        for j in range(k):
            state = step[state].reshape(K, -1)
            states.reshape(K, M ** (j + 1), -1, k)[:, :, :, j] = state[:, :, None]
        self.blocks = states.reshape(-1, k)  # row s * M**k + c
        self.ends = state.tolist()
        self.powers = M ** np.arange(k - 1, -1, -1)

    def walk(self, state, inputs):
        """The state after each of ``inputs`` (a 1-D integer array of input
        classes), read from ``state``."""
        k = self.powers.size
        ends, n_codes = self.ends, len(self.ends[0])
        out = np.empty(inputs.size, self.blocks.dtype)
        # whole blocks per chunk, so only the last chunk ends in a part block,
        # padded with class 0; nothing reads the state after it
        span = max(SAMPLE_CHUNK // k, 1) * k
        for lo in range(0, inputs.size, span):
            x = inputs[lo:lo + span]
            if x.size % k:
                x = np.concatenate([x, np.zeros(-x.size % k, x.dtype)])
            codes = x.reshape(-1, k) @ self.powers
            starts = []
            for c in codes.tolist():
                starts.append(state)
                state = ends[state][c]
            rows = np.fromiter(starts, np.intp, len(starts)) * n_codes + codes
            out[lo:lo + span] = self.blocks.take(rows, axis=0).ravel()[:out.size - lo]
        return out


@dataclass(frozen=True)
class PathSample:
    """A sampled realisation, reproducible from (model_id, seed).

    ``component_index`` records which ergodic component generated the path
    when the model is a mixture (the component is drawn once per path).
    """

    symbols: np.ndarray
    seed: object
    model_id: str
    component_index: int | None = None

    def __len__(self):
        return len(self.symbols)


class SourceModel:
    """Common interface of all source models. Immutable after construction."""

    alphabet_size: int
    parts: tuple  # ((weight, log weight, initial law, transition rows), ...)

    # -- identity -------------------------------------------------------------
    def config_dict(self):
        raise NotImplementedError

    @cached_property
    def model_id(self):
        blob = json.dumps(self.config_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def __repr__(self):
        return f"{type(self).__name__}({self.config_dict()})"

    # -- exact probabilities ----------------------------------------------------
    def cylinder_log_probability(self, symbols):
        """log mu([a^n]) in natural log; -inf when the tuple has no mass."""
        raise NotImplementedError

    def marginal_distribution(self):
        """Distribution of the first symbol."""
        return sum(weight * initial for weight, _, initial, _ in self.parts)

    def shifted_cylinder_probability(self, symbols, shift):
        """mu(T^-i [a^n]) for one shift i or a 1-D array of shifts.

        mu is the induced law under the identity codebook, so this is the
        induced measure's exact chain computation, run on the source's chain.
        """
        from .entropy import InducedMeasure  # entropy imports this module
        return InducedMeasure.shifted_cylinder_probability(self, symbols, shift)

    @cached_property
    def _chain(self):
        """This model's law under the identity codebook as a chain of lists and
        arrays, built once; the source's scans, tables and shifts run on it."""
        from .entropy import _Chain  # entropy imports this module
        A = self.alphabet_size
        return _Chain(self.parts, tuple((a,) for a in range(A)), A)

    # -- sampling ---------------------------------------------------------------
    def sample_path(self, length, seed):
        """Sample ``length`` symbols; identical seeds give identical paths."""
        if length < 1:
            raise DomainError("path length must be >= 1")
        rng = np.random.default_rng(seed_sequence(seed))
        symbols, component = self._sample(rng, length)
        return PathSample(symbols=symbols, seed=seed, model_id=self.model_id,
                          component_index=component)

    def _sample(self, rng, length):
        raise NotImplementedError

    # -- structure ----------------------------------------------------------------
    def ergodic_components(self):
        """List of (weight, stationary ergodic SourceModel) pairs."""
        raise NotImplementedError

    def entropy_rate_exact(self):
        """Entropy rate in bits per symbol (mixtures: component-weighted average)."""
        raise NotImplementedError


class IIDSource(SourceModel):
    """Independent, identically distributed symbols."""

    def __init__(self, distribution):
        dist = _as_probability_vector(distribution, "iid distribution")
        if dist.size < 2:
            raise ConfigError("alphabet size must be >= 2")
        self.distribution = dist
        self.alphabet_size = dist.size
        self._log_dist = _log_vector(dist)
        self.parts = ((1.0, 0.0, dist, np.tile(dist, (dist.size, 1))),)

    def config_dict(self):
        return {"type": "iid", "dist": [float(p) for p in self.distribution]}

    def cylinder_log_probability(self, symbols):
        return float(self._log_dist[as_cylinder(symbols, self.alphabet_size)].sum())

    def _sample(self, rng, length):
        return rng.choice(self.alphabet_size, size=length, p=self.distribution), None

    def ergodic_components(self):
        return [(1.0, self)]

    def entropy_rate_exact(self):
        mask = self.distribution > 0
        p = self.distribution[mask]
        return float(-(p * np.log2(p)).sum())


class MarkovSource(SourceModel):
    """First-order Markov chain over a finite alphabet."""

    def __init__(self, matrix, initial):
        try:
            P = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("transition matrix must be a square array of numbers") from None
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ConfigError("transition matrix must be square")
        if P.shape[0] < 2:
            raise ConfigError("alphabet size must be >= 2")
        rows = [_as_probability_vector(P[i], f"transition row {i}") for i in range(P.shape[0])]
        self.matrix = np.vstack(rows)
        self.initial = _as_probability_vector(initial, "initial distribution")
        if self.initial.size != self.matrix.shape[0]:
            raise ConfigError("initial distribution length must match the matrix")
        self.alphabet_size = self.matrix.shape[0]
        self.parts = ((1.0, 0.0, self.initial, self.matrix),)
        self._log_matrix = _log_vector(self.matrix)
        self._log_init = _log_vector(self.initial)
        self._cum_rows = np.cumsum(self.matrix, axis=1)
        # highest supported symbol per row: the clamp target when a uniform
        # draw lands past a cumulative sum that rounded below 1
        self._row_top = np.array(
            [int(np.nonzero(row > 0)[0][-1]) for row in self.matrix], dtype=np.int64
        )
        self._init_top = int(np.nonzero(self.initial > 0)[0][-1])

    def config_dict(self):
        return {
            "type": "markov",
            "P": [[float(v) for v in row] for row in self.matrix],
            "init": [float(v) for v in self.initial],
        }

    def cylinder_log_probability(self, symbols):
        arr = as_cylinder(symbols, self.alphabet_size)
        return float(self._log_init[arr[0]] + self._log_matrix[arr[:-1], arr[1:]].sum())

    @cached_property
    def _automaton(self):
        """(breakpoints, automaton) of the sampler, built on first sample.

        A uniform's input class is its interval among the rows' distinct
        cumulative sums inside (0, 1). No row's sum falls inside an interval,
        so each row sends all of it where it sends the interval's left end.
        """
        breaks = np.array(sorted({v for v in self._cum_rows.flat if 0.0 < v < 1.0}))
        left = np.concatenate(([0.0], breaks))
        return breaks, BlockAutomaton(self.alphabet_size, left.size, lambda s: np.minimum(
            np.searchsorted(self._cum_rows[s], left, side="right"), self._row_top[s]))

    def _sample(self, rng, length):
        breaks, automaton = self._automaton
        u = rng.random(length)
        state = min(int(np.searchsorted(np.cumsum(self.initial), u[0], side="right")),
                    self._init_top)
        inputs = np.searchsorted(breaks, u[1:], side="right")
        del u  # the path takes its place
        out = np.empty(length, dtype=np.int64)
        out[0] = state
        out[1:] = automaton.walk(state, inputs)
        return out, None

    @cached_property
    def _graph(self):
        """(irreducible, period) of the transition graph, from the breadth-first
        levels from state 0. It is irreducible iff state 0 reaches every state
        and every state reaches state 0 (levels on the transpose); its period
        is then the gcd of level[u] + 1 - level[v] over the edges u -> v."""
        adj = self.matrix > 0.0
        level = _levels(adj)
        if level.min() < 0 or _levels(adj.T).min() < 0:
            return False, None
        g = 0
        for u, v in zip(*np.nonzero(adj)):
            g = math.gcd(g, int(level[u] + 1 - level[v]))
        return True, g

    def is_irreducible(self):
        return self._graph[0]

    def period(self):
        if not self.is_irreducible():
            raise UnsupportedModelError("period is defined here only for irreducible chains")
        return self._graph[1]

    @cached_property
    def _stationary_law(self):
        """(pi, this chain restarted from pi), solved once; callers check
        irreducibility first."""
        pi = stationary_distribution(self.matrix)
        return pi, MarkovSource(self.matrix, pi)

    def ergodic_components(self):
        if not self.is_irreducible():
            raise UnsupportedModelError(
                "unsupported decomposition: transition graph is not irreducible"
            )
        p = self.period()
        if p != 1:
            raise UnsupportedModelError(
                f"unsupported decomposition: chain is periodic with period {p}"
            )
        return [(1.0, self._stationary_law[1])]

    def entropy_rate_exact(self):
        if not self.is_irreducible():
            raise UnsupportedModelError("entropy rate requires an irreducible chain")
        pi = self._stationary_law[0]
        mask = self.matrix > 0
        logs = np.where(mask, np.log2(np.where(mask, self.matrix, 1.0)), 0.0)
        return float(-(pi[:, None] * self.matrix * logs).sum())


class MixtureSource(SourceModel):
    """Finite mixture of ergodic components; the extensional ergodic decomposition.

    Components must be IID or ergodic (irreducible, aperiodic) Markov models;
    nesting mixtures is rejected. Sampling draws the component once per path,
    matching the decomposition's one-component-per-sequence semantics.
    """

    def __init__(self, weights, components):
        self.weights = _as_probability_vector(weights, "mixture weights")
        components = list(components)
        if len(components) != self.weights.size:
            raise ConfigError("number of weights must match number of components")
        sizes = {c.alphabet_size for c in components}
        if len(sizes) != 1:
            raise ConfigError("mixture components must share one alphabet")
        for idx, comp in enumerate(components):
            if isinstance(comp, MixtureSource):
                raise ConfigError(f"component {idx}: nested mixtures are not allowed")
            if isinstance(comp, MarkovSource):
                if not comp.is_irreducible():
                    raise ConfigError(f"component {idx}: Markov component is not irreducible")
                if comp.period() != 1:
                    raise ConfigError(f"component {idx}: Markov component is periodic")
            elif not isinstance(comp, IIDSource):
                raise ConfigError(f"component {idx}: unsupported component type")
        self.components = tuple(components)
        self.alphabet_size = components[0].alphabet_size
        # each component is IID or Markov, so it has exactly one part
        self.parts = tuple((w, lw, *c.parts[0][2:]) for w, lw, c in zip(
            self.weights.tolist(), _log_vector(self.weights).tolist(), components))

    def config_dict(self):
        return {
            "type": "mixture",
            "weights": [float(w) for w in self.weights],
            "components": [c.config_dict() for c in self.components],
        }

    def cylinder_log_probability(self, symbols):
        arr = as_symbols(symbols, self.alphabet_size)
        return log_mixture([lw for _, lw, _, _ in self.parts],
                           [comp.cylinder_log_probability(arr) for comp in self.components])

    def _sample(self, rng, length):
        comp = int(rng.choice(len(self.components), p=self.weights))
        symbols, _ = self.components[comp]._sample(rng, length)
        return symbols, comp

    def ergodic_components(self):
        # each component is ergodic, so it lists itself once, with weight 1
        return [(float(w), part) for w, comp in zip(self.weights, self.components)
                for _, part in comp.ergodic_components()]

    def entropy_rate_exact(self):
        return float(sum(w * c.entropy_rate_exact() for w, c in zip(self.weights, self.components)))


def check_fields(config, fields, what):
    """Raise ConfigError naming the first of ``fields`` that the dict
    ``config`` lacks, or else the first key it has outside ``fields``."""
    for key in fields:
        if key not in config:
            raise ConfigError(f"{what} config needs a '{key}' field")
    for key in config:
        if key not in fields:
            raise ConfigError(f"{what} config has an unknown field {key!r}")


# Every field of each model type's config; each one is required.
MODEL_FIELDS = {
    "iid": ("type", "dist"),
    "markov": ("type", "P", "init"),
    "mixture": ("type", "weights", "components"),
}


def model_from_config(config):
    """Build a SourceModel from its JSON-style config dict, whose fields are
    exactly its type's MODEL_FIELDS; a mixture's components are a list of
    IID or Markov configs."""
    if not isinstance(config, dict) or "type" not in config:
        raise ConfigError("model config must be a dict with a 'type' field")
    kind = config["type"]
    if not isinstance(kind, str) or kind not in MODEL_FIELDS:
        raise ConfigError(f"unknown model type {kind!r}")
    check_fields(config, MODEL_FIELDS[kind], f"{kind} model")
    if kind == "iid":
        return IIDSource(config["dist"])
    if kind == "markov":
        return MarkovSource(config["P"], config["init"])
    if not isinstance(config["components"], list):
        raise ConfigError("mixture model config: 'components' must be a list of model configs")
    return MixtureSource(config["weights"], [model_from_config(c) for c in config["components"]])
