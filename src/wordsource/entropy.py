"""Induced output measures, block entropies, sample-entropy traces, AEP runs.

The induced measure of a word-valued source assigns q(b^n), the total source
probability of all n-tuples whose concatenated codewords start with b^n. A
word-valued source over an IID or Markov source is a function of a finite
Markov chain (Blackwell 1957). Its states are pairs (a, k): input symbol a,
offset k inside the codeword c_a. Inside a codeword the chain moves from
(a, k) to (a, k+1) with probability 1; at a codeword's end it moves to
(a', 0) with the source's transition row (the marginal for IID sources), and
a fresh start enters (a', 0) with the initial law. State (a, k) emits
c_a[k], so q(b^n) is the chain's forward probability of emitting b^n; a last
codeword that overshoots b^n simply leaves the chain inside it.

The kernel runs the scaled forward algorithm (Rabiner 1989). Each ergodic
component keeps its own forward vector, normalised to sum 1 and held only
over the states that emit the last symbol, and its own log scale: a scale
shared across a block-diagonal mixture loses the components' relative
weight. Each step adds log1p(-leak) to the scale, where leak is the mass
that moved to states emitting another symbol, or log(kept) once leak reaches
1/2. A step that leaks nothing adds exactly 0.0. A mixture is data: one
(log weight, chain) pair per component, combined by a max-shifted log-sum in
component order. Every sum runs in a fixed order, so repeated runs are bit
identical.

One forward scan serves cylinder probabilities, sample-entropy traces and the
AEP experiment (per-path sample entropy against the component bound
entropy-rate / expected-codeword-length). It runs as a finite automaton: a
component's next vector and log increment depend only on (previous symbol,
vector, symbol), so each step is taken once and stored on the measure's chain,
keyed by that pair and symbol. The block tables behind H_n walk each
component's tree of stored nodes depth first. One method computes a step from
the chain's own moves, in a fixed float order, for the scan and the table walk
alike, so a stored step is bitwise the step recomputed; past the cap of
MAX_INTERNED_NODES nodes per measure new steps are computed, not stored. The
scales add the same increments in the same order, and one helper combines them
into log q only where it is read: at a scan's checkpoints, or at the table's
live cells. A source model's own law mu is the identity-codebook case, so its
scans and tables run on this kernel too. Shifted cylinder probabilities
q(T^-i [b]) = (start T^i) . r_b, for sources too, step the same chain's dense
transition matrix. A measure builds its chain once, on first use, as one state
layout over (component, a, k) that both the forward steps and the dense matrix
are read from; a source model keeps its identity-codebook measure, so its
chain is built once per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ergodic import _trailing_spread
from .errors import DomainError, RangeError, ResourceError
from .sources import (
    DEFAULT_MAX_SHIFT_STEPS,
    LN2,
    LOG_PROB_SLACK,
    NEG_INF,
    MarkovSource,
    MixtureSource,
    PathSample,
    _clamp_log_prob,
    _logsumexp,
    as_symbols,
    seed_sequence,
)
from .wordcode import WordFunction, encode_stream, expected_codeword_length, is_prefix_free

# Full block enumerations refuse to build more than this many cylinders.
DEFAULT_ENUMERATION_CELLS = 2**20
# A measure interns at most this many forward nodes; later ones are not stored.
MAX_INTERNED_NODES = 2**16


class _Chain:
    """The output chain of one measure, and the forward nodes its scans walk.

    The states are (c, a, k) for every component c of positive weight, in
    component, input-symbol, then offset order, numbered from 0; state s
    emits ``emits[s]``, and ``moves[s]`` lists the (state, probability)
    pairs one step reaches. Component c owns the states ``spans[c]``;
    ``starts[c]`` holds its weight and the moves of its fresh start, and
    ``log_weights[c]`` its log weight.

    A forward node is (key, next): key is (previous symbol, normalised vector
    as a tuple), the vector held over the component's states that emit the
    previous symbol, in state order; next[b] is None until the step on b is
    taken, then (successor node, log increment), or () if the component dies
    there. ``roots`` holds the fresh starts, key (B, (1.0,)); ``nodes[c]``
    interns the others by key.
    """

    def __init__(self, model, word_function):
        if isinstance(model, MixtureSource):
            parts = zip(model.weights.tolist(), model._log_weights.tolist(), model.components)
        else:
            parts = [(1.0, 0.0, model)]
        codewords = word_function.codewords
        B = word_function.output_alphabet_size
        emits, moves, self.spans, self.starts, log_weights = [], [], [], [], []
        self.emits, self.moves = emits, moves
        for weight, log_weight, comp in parts:
            if not weight > 0.0:
                continue
            if isinstance(comp, MarkovSource):
                rows, first = comp.matrix.tolist(), comp.initial.tolist()
            else:
                first = comp.distribution.tolist()
                rows = [first] * len(codewords)
            low = len(emits)
            heads = [low + sum(map(len, codewords[:a])) for a in range(len(codewords))]
            for a, cw in enumerate(codewords):
                emits += cw
                moves += [[(heads[a] + k, 1.0)] for k in range(1, len(cw))]
                moves.append([(heads[t], p) for t, p in enumerate(rows[a]) if p > 0.0])
            self.spans.append(range(low, len(emits)))
            self.starts.append((weight, [(heads[t], p) for t, p in enumerate(first) if p > 0.0]))
            log_weights.append(log_weight)
        self.log_weights = tuple(log_weights)
        self.roots = [((B, (1.0,)), [None] * B) for _ in self.spans]
        self.nodes = [{} for _ in self.spans]

    def step(self, c, node, symbol):
        """Component c's forward step from ``node`` on ``symbol``, stored in
        the node unless the successor is new and the interning cap is full.

        Its sources are the component's states that emit the previous symbol
        (after B, the fresh start) and its targets those that emit ``symbol``.
        The float work is fixed: each target sums its terms in source order,
        kept sums the targets in state order, each source adds to leak its
        mass that moves to states emitting another symbol; then the log
        increment, then the division. So equal keys give bitwise equal
        successors.
        """
        (prev, v), nexts = node
        span, emits, moves = self.spans[c], self.emits, self.moves
        if prev == len(nexts):  # B: the fresh start
            sources = [self.starts[c][1]]
        else:
            sources = [moves[s] for s in span if emits[s] == prev]
        targets = {t: i for i, t in enumerate([s for s in span if emits[s] == symbol])}
        new = [0.0] * len(targets)
        leak = 0.0
        for x, reach in zip(v, sources):
            lost = []
            for t, p in reach:
                i = targets.get(t)
                if i is None:
                    lost.append(p)
                else:
                    new[i] += x * p
            if lost:
                leak += x * math.fsum(lost)
        kept = 0.0
        for x in new:
            kept += x
        if kept == 0.0:
            nexts[symbol] = ()
            return ()
        inc = math.log1p(-leak) if leak < 0.5 else math.log(kept)
        key = (symbol, tuple([x / kept for x in new]))
        succ = self.nodes[c].get(key)
        if succ is None:
            succ = (key, [None] * len(nexts))
            if sum(map(len, self.nodes)) >= MAX_INTERNED_NODES:
                return succ, inc
            self.nodes[c][key] = succ
        nexts[symbol] = (succ, inc)
        return succ, inc

    @cached_property
    def dense(self):
        """(T, T transposed, start, emitted symbols) as arrays over all states.

        A mixture's T is block-diagonal, and the start vector holds each
        component's fresh start times its weight.
        """
        matrix = np.zeros((len(self.emits), len(self.emits)))
        for s, reach in enumerate(self.moves):
            for t, p in reach:
                matrix[s, t] = p
        start = np.zeros(len(self.emits))
        for weight, fresh in self.starts:
            for t, p in fresh:
                start[t] = weight * p
        return matrix, np.ascontiguousarray(matrix.T), start, np.array(self.emits)


def _log_q(chain, scales):
    """log q from each component's log scale, -inf where the component died:
    the live components' log weight + scale, combined in component order."""
    terms = [w + s for w, s in zip(chain.log_weights, scales) if s > NEG_INF]
    return _clamp_log_prob(terms[0] if len(terms) == 1 else _logsumexp(terms))


def _scan(measure, symbols, checkpoints):
    """log q at each sorted, distinct 1-based checkpoint the path reaches, and the
    1-based position where it left the support (None if it never did).

    Each component walks the path alone; its scale is read at each checkpoint
    it reaches alive, and the components are combined only there.
    """
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
                cp = next(cps, 0)  # 0: no checkpoint left
        marks.append(seen + [NEG_INF] * (len(checkpoints) - len(seen)))
    # death is final, so the checkpoints some component reaches are a prefix
    lps = [_log_q(chain, scales) for scales in zip(*marks) if max(scales) > NEG_INF]
    return lps, max(deaths) if len(deaths) == len(marks) else None


class InducedMeasure:
    """Exact evaluator for the output law q(b^n) of a word-valued source."""

    def __init__(self, model, word_function):
        if not isinstance(word_function, WordFunction):
            raise DomainError("expected a WordFunction")
        if model.alphabet_size != word_function.input_alphabet_size:
            raise DomainError(
                f"model alphabet size {model.alphabet_size} does not match "
                f"codebook input alphabet {word_function.input_alphabet_size}"
            )
        self.model = model
        self.word_function = word_function
        self.alphabet_size = word_function.output_alphabet_size

    @property
    def model_id(self):
        return f"{self.model.model_id}*{self.word_function.config_dict()['code']}"

    @cached_property
    def _chain(self):
        return _Chain(self.model, self.word_function)

    def cylinder_log_probability(self, symbols):
        """log q(b^n); -inf when b^n has no preimage under the codebook."""
        arr = as_symbols(symbols, self.alphabet_size)
        if arr.size == 0:
            raise DomainError("cylinder tuple must be nonempty")
        lps, _ = _scan(self, arr.tolist(), [arr.size])
        return lps[0] if lps else NEG_INF

    def shifted_cylinder_probability(self, symbols, shift):
        """q(T^-i [b]): the probability that b occupies positions i+1 .. i+n.

        ``shift`` is one shift i, answered with a float, or a 1-D array of
        shifts, answered with an array. The value is (start T^i) . r_b on the
        chain, where r_b[s] is the probability of emitting b from state s:
        one backward pass over b, then one forward step per shift. Once the
        forward vector repeats bitwise, every later value repeats with it, so
        stepping stops and the cycle is replayed, bit identical to stepping
        on. Shift 0 is the cylinder itself, read from
        ``cylinder_log_probability`` so that the two agree bitwise. Sums run
        in a fixed order; values that rounding lifts above 1 are clamped.
        """
        arr = as_symbols(symbols, self.alphabet_size)
        if arr.size == 0:
            raise DomainError("cylinder tuple must be nonempty")
        shifts = np.asarray(shift)
        if shifts.ndim > 1 or shifts.dtype.kind not in "iu":
            raise DomainError("shift must be an integer or a 1-D array of integers")
        flat = shifts.reshape(-1)
        if flat.size and flat.min() < 0:
            raise DomainError("shift must be >= 0")
        top = int(flat.max(initial=0))
        if top > DEFAULT_MAX_SHIFT_STEPS:
            raise RangeError(f"shift {top} exceeds the cap of {DEFAULT_MAX_SHIFT_STEPS} steps")
        matrix, matrix_t, start, emits = self._chain.dense
        r = (emits == arr[-1]) * 1.0
        for b in arr[-2::-1].tolist():
            r = (emits == b) * (matrix * r).sum(axis=1)
        values, v, anchor, anchor_at = [], start, None, 0
        index = flat
        for i in range(top + 1):
            key = v.tobytes()
            if key == anchor:
                # v_i == v_j bitwise: from j on, values repeat with period i - j
                index = np.where(flat < i, flat, anchor_at + (flat - anchor_at) % (i - anchor_at))
                break
            if i >= 2 * anchor_at:  # Brent's cycle finding: anchors at 0, 1, 2, 4, 8, ...
                anchor, anchor_at = key, i
            values.append((v * r).sum())
            v = (matrix_t * v).sum(axis=1)
        out = np.array(values)[index]
        if not flat.all():
            out[flat == 0] = math.exp(self.cylinder_log_probability(arr))
        peak = out.max(initial=0.0)
        if peak > 1.0 + LOG_PROB_SLACK:
            raise ArithmeticError(f"probability {peak!r} exceeds 1 beyond numerical slack")
        out = np.minimum(out, 1.0)
        return float(out[0]) if shifts.ndim == 0 else out

    def sample_path(self, length, seed):
        """Sample the first ``length`` output symbols (encode, then truncate)."""
        src = self.model.sample_path(length, seed)
        enc = encode_stream(self.word_function, src.symbols)
        return PathSample(
            symbols=enc.output[:length].copy(),
            seed=seed,
            model_id=self.model_id,
            component_index=src.component_index,
        )


def induced_cylinder_log_probability(model, word_function, symbols):
    """log q(b^n) for the word-valued source of (model, word_function)."""
    return InducedMeasure(model, word_function).cylinder_log_probability(symbols)


def block_log_probability_table(measure, n):
    """Log probabilities of every length-n cylinder, in lexicographic order.

    Each component walks its own forward nodes depth first, sharing prefix
    work across tuples and pruning where it dies, and leaves its log scale
    at every leaf it reaches; entry i corresponds to the base-|alphabet|
    digits of i, and only the cells some component reaches are combined.
    """
    if n < 1:
        raise DomainError("block length must be >= 1")
    B = measure.alphabet_size
    cells = B**n
    if cells > DEFAULT_ENUMERATION_CELLS:
        raise ResourceError(
            f"block table needs {cells} cylinders, over the cap of {DEFAULT_ENUMERATION_CELLS}"
        )
    chain = measure._chain
    # one column of log scales per component; a dead prefix keeps -inf for its whole subtree
    scales = np.full((len(chain.roots), cells), NEG_INF)
    for c, root in enumerate(chain.roots):
        column = scales[c]
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
                    column[index * B + b] = scale + inc
    live = np.flatnonzero(scales.max(axis=0) > NEG_INF)
    table = np.full(cells, NEG_INF)
    # memoryview rows yield Python floats one cell at a time, so no per-cell list is built
    per_cell = zip(*map(memoryview, scales[:, live]))
    table[live] = np.fromiter((_log_q(chain, cell) for cell in per_cell), float, live.size)
    return table


def joint_entropy_exact(measure, n):
    """H_n in bits by full enumeration; zero-probability cylinders add 0."""
    lps = block_log_probability_table(measure, n)
    finite = lps[lps > NEG_INF]
    return float(0.0 - (np.exp(finite) * finite).sum() / LN2)


@dataclass(frozen=True)
class EntropyTrace:
    """Per-horizon sample entropies -(1/n) log2 rho([w^n]) along one sequence.

    When the sequence leaves the measure's support, the trace stops at the
    last positive-probability checkpoint and ``left_support_at`` records the
    1-based position where the probability first hit zero.
    """

    horizons: np.ndarray
    values: np.ndarray
    limit_estimate: float
    converged: bool
    tolerance: float
    left_support_at: int | None = None


def sample_entropy_trace(measure, symbols, checkpoints, tol=1e-2):
    """Evaluate -(1/n) log2 rho([w^n]) at each distinct checkpoint, in one scan."""
    arr = as_symbols(symbols, measure.alphabet_size)
    cps = sorted({int(c) for c in checkpoints})
    if not cps or cps[0] < 1:
        raise DomainError("checkpoints must be positive")
    if cps[-1] > arr.size:
        raise DomainError(
            f"max checkpoint {cps[-1]} exceeds the sequence length {arr.size}"
        )
    lps, left_at = _scan(measure, arr.tolist(), cps)
    values = np.array([(0.0 - lp) / (n * LN2) for n, lp in zip(cps, lps)], dtype=float)
    return EntropyTrace(
        horizons=np.array(cps[:len(lps)], dtype=np.int64),
        values=values,
        limit_estimate=float(values[-1]) if lps else float("nan"),
        converged=left_at is None and bool(lps) and _trailing_spread(values) < tol,
        tolerance=tol,
        left_support_at=left_at,
    )


class ComponentBound(NamedTuple):
    """One ergodic component's AEP quantities."""

    weight: float
    entropy_rate: float
    expected_length: float
    bound: float


@dataclass(frozen=True)
class AepReport:
    """One path's AEP measurement against its component's bound.

    ``verdict`` is "equality" when the measured output sample entropy is
    within tolerance of the bound, "strict_inequality" when it falls below,
    and "violation" when it exceeds the bound by more than the tolerance
    (never an accepted outcome).
    """

    per_component: tuple
    component_index: int
    empirical_h: float
    prefix_free: bool
    verdict: str
    source_sample_entropy: float
    scaled_output_sample_entropy: float
    input_horizon: int
    output_horizon: int
    path_index: int

    @property
    def bound(self):
        return self.per_component[self.component_index].bound


def component_bounds(model, word_function):
    """(weight, entropy rate, E[codeword length], bound) per ergodic component."""
    lengths = expected_codeword_length(model, word_function)
    bounds = []
    for (weight, comp), (_, el) in zip(model.ergodic_components(), lengths):
        rate = comp.entropy_rate_exact()
        bounds.append(ComponentBound(weight, rate, el, rate / el))
    return tuple(bounds)


def aep_experiment(model, word_function, horizon, paths, seed, tol=0.02):
    """Sample paths, encode, and compare output sample entropies to bounds.

    Each path is sampled with its own seed spawned from ``seed``, encoded,
    and measured at the output horizon zeta_n reached by ``horizon`` input
    symbols. The report records both sides of the per-path inequality
    (source sample entropy versus the length-scaled output sample entropy).
    The default tolerance (0.02 bits at horizon 1e4) is finite-sample slack
    for the verdict, not a claim about the limit.
    """
    if horizon < 10:
        raise DomainError("horizon must be >= 10")
    if paths < 1:
        raise DomainError("need at least one path")
    bounds = component_bounds(model, word_function)
    prefix_free = bool(is_prefix_free(word_function))
    induced = InducedMeasure(model, word_function)
    children = seed_sequence(seed).spawn(paths)
    reports = [None] * paths
    for idx in range(paths):
        ps = model.sample_path(horizon, children[idx])
        comp_idx = ps.component_index if ps.component_index is not None else 0
        enc = encode_stream(word_function, ps.symbols)
        zeta_n = enc.total_length
        lps, left_at = _scan(induced, enc.output.tolist(), [zeta_n])
        if left_at is not None:
            raise DomainError("encoded path left the induced support; inconsistent DP")
        lp = lps[0]
        # 0.0 - lp, not -lp: a path of probability 1 gets +0.0, never -0.0
        empirical = (0.0 - lp) / (zeta_n * LN2)
        source_lp = model.cylinder_log_probability(ps.symbols)
        bound = bounds[comp_idx].bound
        if empirical > bound + tol:
            verdict = "violation"
        elif empirical < bound - tol:
            verdict = "strict_inequality"
        else:
            verdict = "equality"
        reports[idx] = AepReport(
            per_component=bounds,
            component_index=comp_idx,
            empirical_h=empirical,
            prefix_free=prefix_free,
            verdict=verdict,
            source_sample_entropy=(0.0 - source_lp) / (horizon * LN2),
            scaled_output_sample_entropy=(0.0 - lp) / (horizon * LN2),
            input_horizon=horizon,
            output_horizon=zeta_n,
            path_index=idx,
        )
    return reports


@dataclass(frozen=True)
class ConservationReport:
    """Entropy-conservation check: integral bound vs measured output rate.

    integral_bound = sum_c weight_c * entropy_rate_c / E_c[codeword length];
    empirical_entropy_rate = H_n(q) - H_{n-1}(q) at the enumeration cap n,
    and block_entropies holds H_1 .. H_n. The empirical value never exceeds
    the bound beyond tolerance, with equality (within tolerance) for
    prefix-free codebooks.
    """

    integral_bound: float
    empirical_entropy_rate: float
    block_cap: int
    prefix_free: bool
    per_component: tuple
    block_entropies: tuple


def conservation_report(model, word_function, block_cap=14):
    """Compare the decomposition-integrated bound with exact block entropies."""
    if block_cap < 2:
        raise DomainError("block cap must be >= 2")
    bounds = component_bounds(model, word_function)
    integral = math.fsum(cb.weight * cb.bound for cb in bounds)
    induced = InducedMeasure(model, word_function)
    entropies = tuple(joint_entropy_exact(induced, n) for n in range(1, block_cap + 1))
    return ConservationReport(
        integral_bound=integral,
        empirical_entropy_rate=entropies[-1] - entropies[-2],
        block_cap=block_cap,
        prefix_free=bool(is_prefix_free(word_function)),
        per_component=bounds,
        block_entropies=entropies,
    )
