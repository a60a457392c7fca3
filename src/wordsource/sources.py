"""Finite-alphabet source models with exact cylinder probabilities.

Three model families are supported:

  * ``IIDSource``     - independent draws from a fixed marginal
  * ``MarkovSource``  - first-order chain (row-stochastic matrix + start vector)
  * ``MixtureSource`` - finite convex mixture of IID / ergodic Markov components

Every model answers exact cylinder probabilities mu([a^n]) in natural-log
space, samples reproducible paths from an explicit seed, evaluates shifted
cylinder probabilities mu(T^-i [a^n]) and their Cesaro averages (the
finite-horizon stationarity / AMS diagnostics), exposes its ergodic
components, and reports its exact entropy rate in bits per symbol. Shifted
probabilities have no per-family code: mu is the induced law under the
identity codebook, so they are the induced measure's exact chain
computation, as are the source's block tables and sample-entropy traces.

Mixtures realise the ergodic decomposition extensionally: sampling draws one
component per path and holds it fixed, so each realisation is governed by a
single ergodic component, and the mixture's cylinder probabilities are the
weight-sums of the component probabilities.

``cylinder_log_probability`` is a vectorised sum of log factors, a path
separate from the chain kernel of ``entropy``, so it stays an independent
check of that kernel.

Probabilities are carried in natural log internally; bits appear only at
reporting boundaries. Long paths underflow linear space, logs do not.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, RangeError, UnsupportedModelError

NEG_INF = float("-inf")
LN2 = math.log(2.0)

# Guard for shifted / Cesaro horizon loops.
DEFAULT_MAX_SHIFT_STEPS = 10**7

# Sum tolerance accepted for probability vectors before renormalisation.
PROB_SUM_TOL = 1e-9

# Uniforms per bulk successor lookup in Markov sampling.
SAMPLE_CHUNK = 4096


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


def _logsumexp(values):
    """Max-shifted log-sum of a list of floats, deterministic in input order."""
    m = NEG_INF
    for v in values:
        if v > m:
            m = v
    if m == NEG_INF:
        return NEG_INF
    acc = 0.0
    for v in values:
        acc += math.exp(v - m)
    return m + math.log(acc)


def seed_sequence(seed):
    """Accept ints, entropy sequences, or an existing SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
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

    # -- identity -------------------------------------------------------------
    def config_dict(self):
        raise NotImplementedError

    @property
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
        raise NotImplementedError

    def shifted_cylinder_probability(self, symbols, shift):
        """mu(T^-i [a^n]) for one shift i or a 1-D array of shifts.

        mu is the induced law under the identity codebook, so this is the
        induced measure's exact chain computation.
        """
        return self._identity_measure.shifted_cylinder_probability(symbols, shift)

    def cesaro_cylinder_average(self, symbols, horizon):
        """(1/n) sum_{i<n} mu(T^-i [a^n]); convergence over n is the AMS diagnostic."""
        if horizon < 1:
            raise DomainError("horizon must be >= 1")
        if horizon > DEFAULT_MAX_SHIFT_STEPS:
            raise RangeError(
                f"horizon {horizon} exceeds the cap of {DEFAULT_MAX_SHIFT_STEPS} steps")
        if self.is_stationary():
            # Shifted probabilities are all identical; the mean is exact.
            return self.shifted_cylinder_probability(symbols, 0)
        trace = self.shifted_cylinder_probability(symbols, np.arange(horizon))
        return math.fsum(trace) / horizon

    def is_stationary(self):
        raise NotImplementedError

    # -- sampling ---------------------------------------------------------------
    def sample_path(self, length, seed):
        """Sample ``length`` symbols; identical seeds give identical paths."""
        if length < 1:
            raise DomainError("path length must be >= 1")
        rng = np.random.default_rng(seed)
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

    @cached_property
    def _identity_measure(self):
        """This model under the identity codebook (induced law mu), built once."""
        from .entropy import InducedMeasure  # entropy imports this module
        from .wordcode import WordFunction

        A = self.alphabet_size
        return InducedMeasure(self, WordFunction(A, A, tuple((a,) for a in range(A))))

    # scans and block tables of the source run on its identity-codebook measure's chain
    _chain = property(lambda self: self._identity_measure._chain)


class IIDSource(SourceModel):
    """Independent, identically distributed symbols."""

    def __init__(self, distribution):
        dist = _as_probability_vector(distribution, "iid distribution")
        if dist.size < 2:
            raise ConfigError("alphabet size must be >= 2")
        self.distribution = dist
        self.alphabet_size = dist.size
        self._log_dist = _log_vector(dist)

    def config_dict(self):
        return {"type": "iid", "dist": [float(p) for p in self.distribution]}

    def cylinder_log_probability(self, symbols):
        arr = as_symbols(symbols, self.alphabet_size)
        if arr.size == 0:
            raise DomainError("cylinder tuple must be nonempty")
        return float(self._log_dist[arr].sum())

    def marginal_distribution(self):
        return self.distribution.copy()

    def is_stationary(self):
        return True

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
        arr = as_symbols(symbols, self.alphabet_size)
        if arr.size == 0:
            raise DomainError("cylinder tuple must be nonempty")
        logp = self._log_init[arr[0]]
        if arr.size > 1:
            logp = logp + self._log_matrix[arr[:-1], arr[1:]].sum()
        return float(logp)

    def marginal_distribution(self):
        return self.initial.copy()

    def is_stationary(self):
        return bool(np.array_equal(self.initial @ self.matrix, self.initial))

    def _sample(self, rng, length):
        u = rng.random(length)
        out = np.empty(length, dtype=np.int64)
        cum_init = np.cumsum(self.initial)
        state = int(np.searchsorted(cum_init, u[0], side="right"))
        if state > self._init_top:
            state = self._init_top
        out[0] = state
        # Look up each state's successor for a whole chunk of uniforms at
        # once, then walk the chain through those tables; the chunk bounds
        # the tables' memory.
        for start in range(1, length, SAMPLE_CHUNK):
            chunk = u[start:start + SAMPLE_CHUNK]
            successors = [
                np.minimum(np.searchsorted(cum, chunk, side="right"), top).tolist()
                for cum, top in zip(self._cum_rows, self._row_top)
            ]
            walk = []
            for i in range(chunk.size):
                state = successors[state][i]
                walk.append(state)
            out[start:start + chunk.size] = walk
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
        if not components:
            raise ConfigError("mixture needs at least one component")
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
        self._log_weights = _log_vector(self.weights)

    def config_dict(self):
        return {
            "type": "mixture",
            "weights": [float(w) for w in self.weights],
            "components": [c.config_dict() for c in self.components],
        }

    def cylinder_log_probability(self, symbols):
        arr = as_symbols(symbols, self.alphabet_size)
        terms = []
        for lw, comp in zip(self._log_weights, self.components):
            if lw == NEG_INF:
                continue
            lp = comp.cylinder_log_probability(arr)
            if lp > NEG_INF:
                terms.append(float(lw) + lp)
        return _clamp_log_prob(_logsumexp(terms))

    def marginal_distribution(self):
        out = np.zeros(self.alphabet_size)
        for w, comp in zip(self.weights, self.components):
            out += w * comp.marginal_distribution()
        return out

    def is_stationary(self):
        return all(c.is_stationary() for c in self.components)

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


def model_from_config(config):
    """Build a SourceModel from its JSON-style config dict.

    Accepted forms:
      {"type": "iid", "dist": [...]}
      {"type": "markov", "P": [[...]], "init": [...]}
      {"type": "mixture", "weights": [...], "components": [...]}
    """
    if not isinstance(config, dict) or "type" not in config:
        raise ConfigError("model config must be a dict with a 'type' field")
    kind = config["type"]
    if kind == "iid":
        if "dist" not in config:
            raise ConfigError("iid model config needs a 'dist' field")
        return IIDSource(config["dist"])
    if kind == "markov":
        for field in ("P", "init"):
            if field not in config:
                raise ConfigError(f"markov model config needs a '{field}' field")
        return MarkovSource(config["P"], config["init"])
    if kind == "mixture":
        for field in ("weights", "components"):
            if field not in config:
                raise ConfigError(f"mixture model config needs a '{field}' field")
        comps = [model_from_config(c) for c in config["components"]]
        return MixtureSource(config["weights"], comps)
    raise ConfigError(f"unknown model type {kind!r}")
