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
1/2. A step that leaks nothing adds exactly 0.0. The chain is built from the
model's ``parts`` alone, one (log weight, chain) pair per weighted (initial
law, transition rows) part, with no code per model family; the components are
combined by ``sources.log_mixture``, a max-shifted log-sum in component order.
Every sum runs in a fixed order, so repeated runs are bit identical.

One forward scan serves cylinder probabilities, sample-entropy traces and the
AEP experiment (per-path sample entropy against the component bound
entropy-rate / expected-codeword-length). It runs as a finite automaton: a
component's next vector and log increment depend only on (previous symbol,
vector, symbol), so each live step is taken once, by one method in a fixed
float order, and stored on the measure's chain; past MAX_INTERNED_NODES nodes
per measure new steps are computed, not stored, and bitwise the same. One
breadth-first numbering of a component's nodes tabulates its steps; a long scan
walks it as a ``sources.BlockAutomaton``, k symbols per Python step, and the
block tables behind H_1 .. H_n gather it level by level, every length at once.
The scales add the same increments in the same order, and are combined into
log q only where it is read: at a scan's checkpoints by ``log_mixture``, and
in the tables a chunk of cells at a time, with numpy's adds, max and
component-order sums and ``math``'s exp and log, bit for bit.
A source model's own law mu is the identity-codebook case, so its scans and
tables run on this kernel too. Shifted cylinder probabilities q(T^-i [b]) =
(start T^i) . r_b, for sources too, step the same chain's dense transition
matrix. A chain is built once per measure, on first use, from a law's ``parts``
and the codewords alone, as one state layout over (component, a, k) that the
dense matrix and the forward steps' rows and targets, with the fresh start as
row B, are read from; a source model keeps its chain, not a measure of itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import length_hint
from typing import NamedTuple

import numpy as np

from .ergodic import _trailing_spread
from .errors import DomainError, ResourceError
from .sources import (
    DEFAULT_ENUMERATION_CELLS,
    LN2,
    LOG_PROB_SLACK,
    NEG_INF,
    SAMPLE_CHUNK,
    BlockAutomaton,
    PathSample,
    _clamp_log_prob,
    as_cylinder,
    as_symbols,
    check_shift_steps,
    log_mixture,
    seed_sequence,
)
from .wordcode import (WordFunction, check_alphabets, encode_stream, expected_codeword_length,
                       is_prefix_free)

# A measure interns at most this many forward nodes; later ones are not stored.
MAX_INTERNED_NODES = 2**16
# Block tables combine their components this many cells at a time.
COMBINE_CHUNK = 2**16


class _Chain:
    """The output chain of a law's ``parts`` under ``codewords`` over B
    output symbols, and the forward nodes its scans walk.

    The states are (c, a, k) for every component c of positive weight, in
    component, input-symbol, then offset order, numbered from 0; state s
    emits ``emits[s]``, and ``moves[s]`` lists the (state, probability)
    pairs one step reaches. ``rows[c][b]`` lists the moves of component c's
    states that emit b, in state order, and ``targets[c][b]`` numbers those
    states; the fresh start is row B, ``rows[c][B]``, one move list of the
    initial law. c weighs ``weights[c]``, with log ``log_weights[c]``.

    A forward node is (key, next): key is (previous symbol, normalised vector
    as a tuple), the vector held over the component's states that emit the
    previous symbol, in state order; next[b] is None until a live step on b
    is stored, then (successor node, log increment); a death is returned,
    never stored. ``roots`` holds the fresh starts, key (B, (1.0,)); ``nodes[c]``
    interns the others by key, and ``numbered`` tabulates them.
    """

    def __init__(self, parts, codewords, B):
        emits, moves = self.emits, self.moves = [], []
        self.weights, self.log_weights, self.rows, self.targets = [], [], [], []
        for weight, log_weight, first, transition in parts:
            if not weight > 0.0:
                continue
            first, transition = first.tolist(), transition.tolist()
            low = len(emits)
            heads = [low + sum(map(len, codewords[:a])) for a in range(len(codewords))]
            for a, cw in enumerate(codewords):
                emits += cw
                moves += [[(heads[a] + k, 1.0)] for k in range(1, len(cw))]
                moves.append([(heads[t], p) for t, p in enumerate(transition[a]) if p > 0.0])
            by_symbol = [[s for s in range(low, len(emits)) if emits[s] == b] for b in range(B)]
            fresh = [(heads[t], p) for t, p in enumerate(first) if p > 0.0]
            self.rows.append([[moves[s] for s in states] for states in by_symbol] + [[fresh]])
            self.targets.append([{t: i for i, t in enumerate(states)} for states in by_symbol])
            self.weights.append(weight)
            self.log_weights.append(log_weight)
        self.roots = [((B, (1.0,)), [None] * B) for _ in self.rows]
        self.nodes = [{} for _ in self.rows]
        self.automata = {}

    def step(self, c, node, symbol):
        """Component c's forward step from ``node`` on ``symbol``, or () for a
        death; a live step is stored unless it reaches a new node past the cap.

        Its sources are ``rows[c][prev]`` (row B after the fresh start, so a
        root steps like any node) and its targets ``targets[c][symbol]``.
        The float work is fixed: each target sums its terms in source order,
        kept sums the targets in state order, each source adds to leak its
        mass that moves to states emitting another symbol; then the log
        increment, then the division. So equal keys give bitwise equal
        successors.
        """
        (prev, v), nexts = node
        sources, targets = self.rows[c][prev], self.targets[c][symbol]
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

    def numbered(self, c, cells, depth=None):
        """Component c's nodes, numbered breadth first by key from its root,
        state 1, as (next[state, symbol], inc[state, symbol]) with states in
        the smallest unsigned dtype. A death steps to state 0, which loops,
        and adds -inf. A node first reached ``depth`` levels down gets state
        0's row, unstepped. Steps go through ``step``, so they count against
        MAX_INTERNED_NODES, and nodes past the cap collapse by key. None past
        ``cells`` entries or, when ``depth`` is None, at an unstored live step.
        """
        B, root = len(self.targets[c]), self.roots[c]
        order, number = [(root, 0)], {None: 0, root[0]: 1}  # key None: death
        nxt, inc = [0] * B, [NEG_INF] * B
        for node, level in order:
            if len(nxt) + B > cells:
                return None
            for b in range(B):
                out = node[1][b] if level != depth else ()
                if out is None:
                    out = self.step(c, node, b)
                    if out and node[1][b] is None and depth is None:
                        return None
                succ, x = out or ((None, None), NEG_INF)
                nxt.append(number.setdefault(succ[0], len(order) + 1))
                if nxt[-1] > len(order):
                    order.append((succ, level + 1))
                inc.append(x)
        return (np.array(nxt, np.min_scalar_type(len(order))).reshape(-1, B),
                np.array(inc).reshape(-1, B))

    def automaton(self, c, n):
        """Component c's ``numbered`` states as (``BlockAutomaton``,
        inc[state, symbol]) of at most min(n, DEFAULT_ENUMERATION_CELLS)
        cells, built once; None, remembered, where the numbering gives up.
        """
        if c not in self.automata:
            cells = min(n, DEFAULT_ENUMERATION_CELLS)
            tables = self.numbered(c, cells)
            self.automata[c] = tables and (
                BlockAutomaton(*tables[0].shape, tables[0].__getitem__, cells), tables[1])
        return self.automata[c]

    @cached_property
    def dense(self):
        """(T, T transposed, start, emitted symbols) as arrays over all states.

        A mixture's T is block-diagonal, and the start vector holds each
        component's fresh start, its row B, times its weight.
        """
        matrix = np.zeros((len(self.emits), len(self.emits)))
        for s, reach in enumerate(self.moves):
            for t, p in reach:
                matrix[s, t] = p
        start = np.zeros(len(self.emits))
        for weight, rows in zip(self.weights, self.rows):
            for t, p in rows[-1][0]:
                start[t] = weight * p
        return matrix, np.ascontiguousarray(matrix.T), start, np.array(self.emits)


def _scan(measure, symbols, checkpoints):
    """log q at each checkpoint, -inf from where every component has died,
    and the 1-based position where it left the support (None if it never did).

    ``symbols`` is a list or a 1-D integer array; ``checkpoints`` must be
    sorted, distinct, 1-based and no larger than ``len(symbols)``: a segment
    cut short by the end of the list would read as reached. Each component
    walks the path alone, up to the last checkpoint, and the components are
    combined only at checkpoints. In a scan of SAMPLE_CHUNK symbols or more,
    a component whose closure holds (``_Chain.automaton``) walks as a
    ``BlockAutomaton``: its scales are the cumulative sum of [0.0, gathered
    increments], which adds in path order from +0.0 as a Python walk does, so
    every float keeps its bits; it dies where it first enters state 0, and
    the -inf of its death carries to every later checkpoint.
    Any other component walks one segment between checkpoints at a time, and
    dies at the segment's end minus what the segment has left.
    """
    chain = measure._chain
    n = checkpoints[-1]
    marks, deaths = [], []
    for c, node in enumerate(chain.roots):
        closure = chain.automaton(c, n) if n >= SAMPLE_CHUNK else None
        if closure:
            automaton, incs = closure
            path = np.asarray(symbols[:n])
            states = automaton.walk(1, path)
            before = np.concatenate(([1], states[:-1]))
            scales = np.cumsum(np.concatenate(([0.0], incs[before, path])))
            if not states.all():  # state 0 absorbs
                deaths.append(int(states.argmin()) + 1)
            seen = scales[checkpoints].tolist()
        else:
            if isinstance(symbols, np.ndarray):
                symbols = symbols.tolist()
            scale, seen, lo = 0.0, [], 0
            for hi in checkpoints:
                segment = iter(symbols[lo:hi])
                for s in segment:
                    out = node[1][s]
                    if out is None:
                        out = chain.step(c, node, s)
                        if not out:
                            deaths.append(hi - length_hint(segment))
                            break
                    node, inc = out
                    scale += inc
                else:
                    seen.append(scale)
                    lo = hi
                    continue
                break
        marks.append(seen + [NEG_INF] * (len(checkpoints) - len(seen)))
    lps = [log_mixture(chain.log_weights, scales) for scales in zip(*marks)]
    return lps, max(deaths) if len(deaths) == len(marks) else None


class InducedMeasure:
    """Exact evaluator for the output law q(b^n) of a word-valued source."""

    def __init__(self, model, word_function):
        if not isinstance(word_function, WordFunction):
            raise DomainError("expected a WordFunction")
        check_alphabets(model, word_function)
        self.model = model
        self.word_function = word_function
        self.alphabet_size = word_function.output_alphabet_size

    @property
    def model_id(self):
        return f"{self.model.model_id}*{self.word_function.config_dict()['code']}"

    @cached_property
    def _chain(self):
        return _Chain(self.model.parts, self.word_function.codewords, self.alphabet_size)

    def cylinder_log_probability(self, symbols):
        """log q(b^n); -inf when b^n has no preimage under the codebook."""
        arr = as_cylinder(symbols, self.alphabet_size)
        return _scan(self, arr, [arr.size])[0][0]

    def shifted_cylinder_probability(self, symbols, shift):
        """q(T^-i [b]): the probability that b occupies positions i+1 .. i+n.

        ``shift`` is one shift i, answered with a float, or a 1-D array of
        shifts, answered with an array. The value is (start T^i) . r_b on the
        chain, where r_b[s] is the probability of emitting b from state s:
        one backward pass over b, then one forward step per shift. Once the
        forward vector repeats bitwise, every later value repeats with it, so
        stepping stops and the cycle is replayed, bit identical to stepping
        on. Shift 0 is the cylinder itself, read from the kernel's
        ``InducedMeasure.cylinder_log_probability`` so that the two agree
        bitwise. Sums run in a fixed order; values that rounding lifts above
        1 are clamped. A source model runs this too, on its own ``_chain``.
        """
        arr = as_cylinder(symbols, self.alphabet_size)
        shifts = np.asarray(shift)
        if shifts.ndim > 1 or shifts.dtype.kind not in "iu":
            raise DomainError("shift must be an integer or a 1-D array of integers")
        flat = shifts.reshape(-1)
        if flat.size and flat.min() < 0:
            raise DomainError("shift must be >= 0")
        top = int(flat.max(initial=0))
        check_shift_steps(top)
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
            out[flat == 0] = math.exp(InducedMeasure.cylinder_log_probability(self, arr))
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


def block_log_probability_tables(measure, n):
    """Log probabilities of every cylinder of length 1 .. n: tables[d - 1]
    holds the B**d cylinders of length d, in lexicographic order.

    The cell cap is checked for B**n before any step is taken. Each
    component's log scales are then gathered level by level over its
    ``_Chain.numbered`` nodes: a cell is its parent's scale plus the parent
    state's increment, -inf once dead, and entry i of a length-d table is the
    base-|alphabet| digits of i. Each depth's columns are combined by
    ``_combine_columns``, in place of component 0's column.
    """
    if n < 1:
        raise DomainError("block length must be >= 1")
    B = measure.alphabet_size
    if B**n > DEFAULT_ENUMERATION_CELLS:
        raise ResourceError(
            f"block table needs {B**n} cylinders, over the cap of {DEFAULT_ENUMERATION_CELLS}"
        )
    chain = measure._chain
    columns = [[] for _ in range(n)]  # columns[d][c]: component c's log scales at depth d + 1
    for c in range(len(chain.roots)):
        nxt, inc = chain.numbered(c, math.inf, n)
        state, scale = np.ones(1, nxt.dtype), np.zeros(1)
        for column in columns:
            cells = inc[state]
            cells += scale[:, None]
            state, scale = nxt[state].ravel(), cells.ravel()
            column.append(scale)
    del state  # the length-n states: read by nothing, they would live through the combine
    return [_combine_columns(chain.log_weights, depth) for depth in columns]


def block_log_probability_table(measure, n):
    """Log probabilities of every length-n cylinder, in lexicographic order."""
    return block_log_probability_tables(measure, n)[-1]


def _combine_columns(log_weights, columns):
    """``log_mixture(log_weights, cell)`` for every cell of the columns, bit
    for bit, written over ``columns[0]`` and returned.

    Cells are combined COMBINE_CHUNK at a time. numpy takes the adds, the
    max and the component-order sums; exp and log stay in ``math``, mapped
    over the cells with two or more live terms, because numpy's own differ
    by 1 ulp. A dead term adds exp(-inf) = 0.0 to the sum, which moves no
    bit; a cell with one live term is its max as it is, and a dead cell's
    max is -inf.
    """
    out = columns[0]
    for lo in range(0, out.size, COMBINE_CHUNK):
        terms = [lw + column[lo:lo + COMBINE_CHUNK]
                 for lw, column in zip(log_weights, columns)]
        top = terms[0]
        for t in terms[1:]:
            top = np.maximum(top, t)
        many = np.flatnonzero(sum(t > NEG_INF for t in terms) > 1)
        if many.size:
            m = top[many]
            acc = np.zeros(many.size)
            for t in terms:
                acc += np.fromiter(map(math.exp, memoryview(t[many] - m)), float, many.size)
            top[many] = m + np.fromiter(map(math.log, memoryview(acc)), float, many.size)
        out[lo:lo + COMBINE_CHUNK] = top
    _clamp_log_prob(float(out.max()))  # raises beyond the slack
    out[out > 0.0] = 0.0
    return out


def _block_entropy(lps):
    """H in bits of one block table; zero-probability cylinders add 0."""
    finite = lps[lps > NEG_INF]
    return float(0.0 - (np.exp(finite) * finite).sum() / LN2)


def joint_entropy_exact(measure, n):
    """H_n in bits by full enumeration; zero-probability cylinders add 0."""
    return _block_entropy(block_log_probability_table(measure, n))


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
    lps, left_at = _scan(measure, arr, cps)
    lps = [lp for lp in lps if lp > NEG_INF]  # a death is final: the live ones are a prefix
    values = np.array([(0.0 - lp) / (n * LN2) for n, lp in zip(cps, lps)], dtype=float)
    return EntropyTrace(
        horizons=np.array(cps[:len(lps)], dtype=np.int64),
        values=values,
        limit_estimate=float(values[-1]) if lps else float("nan"),
        converged=left_at is None and _trailing_spread(values) < tol,
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
    if paths > DEFAULT_ENUMERATION_CELLS:
        raise ResourceError(f"paths: {paths} is over the cap of {DEFAULT_ENUMERATION_CELLS}")
    bounds = component_bounds(model, word_function)
    prefix_free = bool(is_prefix_free(word_function))
    induced = InducedMeasure(model, word_function)
    root = seed_sequence(seed)
    reports = [None] * paths
    for idx in range(paths):
        ps = model.sample_path(horizon, root.spawn(1)[0])
        comp_idx = ps.component_index if ps.component_index is not None else 0
        enc = encode_stream(word_function, ps.symbols)
        zeta_n = enc.total_length
        lps, left_at = _scan(induced, enc.output, [zeta_n])
        if left_at is not None:
            raise ArithmeticError("encoded path left the induced support; inconsistent DP")
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
    entropies = tuple(map(_block_entropy, block_log_probability_tables(induced, block_cap)))
    return ConservationReport(
        integral_bound=integral,
        empirical_entropy_rate=entropies[-1] - entropies[-2],
        block_cap=block_cap,
        prefix_free=bool(is_prefix_free(word_function)),
        per_component=bounds,
        block_entropies=entropies,
    )
