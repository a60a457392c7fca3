"""Time averages and AMS / ergodicity diagnostics.

Bounded measurable functions are represented by finite-order cylinder
functions g(w) = table[w_1 .. w_k]; this subclass generates the cylinder
sigma-field and is enough to separate the hypotheses of interest at desk
scale. A path's empirical frequency of a cylinder [b] is the time average of
the indicator of [b], an exact integer count divided by the horizon.

All convergence verdicts are finite-horizon proxies: a trace of partial
averages whose last-quartile spread falls under a tolerance. A small battery
of such verdicts is evidence for, never a proof of, the almost-sure
statements they track.

The AMS diagnostic's traces themselves are exact: for source models and
induced measures alike, every shifted cylinder probability q(T^-i [b]) is
computed on the measure's Markov chain, so no sampling error enters the
Cesaro averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .shifts import _window_codes
from .sources import DEFAULT_ENUMERATION_CELLS, as_symbols, check_shift_steps, seed_sequence

MAX_CYLINDER_ORDER = 12


def check_order(order):
    """Raise DomainError unless a cylinder function may have this order."""
    if order < 1 or order > MAX_CYLINDER_ORDER:
        raise DomainError(f"order must be in 1..{MAX_CYLINDER_ORDER}")


def _trailing_spread(values):
    """Max minus min over the last quartile (at least two points) of a nonempty trace."""
    tail = values[-max(2, -(-len(values) // 4)):]
    return float(max(tail) - min(tail))


@dataclass(frozen=True)
class CylinderFunction:
    """g(w) = table[w_1 .. w_k], a bounded function of the first k symbols."""

    alphabet_size: int
    order: int
    table: np.ndarray

    def __post_init__(self):
        check_order(self.order)
        table = np.asarray(self.table, dtype=float).reshape(-1)
        if table.size != self.alphabet_size**self.order:
            raise DomainError(
                f"table must cover all {self.alphabet_size**self.order} windows"
            )
        object.__setattr__(self, "table", table)

    @property
    def bound(self):
        return float(np.abs(self.table).max())

    @classmethod
    def indicator(cls, alphabet_size, pattern):
        """Indicator of the cylinder set [pattern]."""
        pattern = tuple(int(s) for s in pattern)
        order = len(pattern)
        code = 0
        for s in pattern:
            if s < 0 or s >= alphabet_size:
                raise DomainError(f"pattern symbol {s} outside the alphabet")
            code = code * alphabet_size + s
        table = np.zeros(alphabet_size**order)
        table[code] = 1.0
        return cls(alphabet_size=alphabet_size, order=order, table=table)

    @classmethod
    def constant(cls, alphabet_size, value):
        return cls(alphabet_size=alphabet_size, order=1,
                   table=np.full(alphabet_size, float(value)))

    def values_along(self, symbols):
        """g evaluated at every window position of a finite sequence."""
        arr = as_symbols(symbols, self.alphabet_size)
        return self.table[_window_codes(arr, self.alphabet_size, self.order)]


@dataclass(frozen=True)
class ConvergenceVerdict:
    """A partial-average trace plus its finite-horizon convergence verdict.

    ``spread`` is max minus min over the last quartile of the trace;
    ``converged`` means spread < tolerance.
    """

    checkpoints: np.ndarray
    partial_averages: np.ndarray
    final: float
    spread: float
    converged: bool
    tolerance: float


def _verdict(checkpoints, partials, tol):
    partials = np.asarray(partials, dtype=float)
    spread = _trailing_spread(partials.tolist())
    return ConvergenceVerdict(
        checkpoints=np.asarray(checkpoints, dtype=np.int64),
        partial_averages=partials,
        final=float(partials[-1]),
        spread=spread,
        converged=spread < tol,
        tolerance=tol,
    )


def default_checkpoints(horizon):
    """At most 32 evenly spaced horizons, ending exactly at ``horizon``.

    Even spacing keeps the last-quartile convergence window anchored to the
    top quarter of the horizon range.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    pts = np.unique(np.linspace(1, horizon, num=min(32, horizon)).astype(np.int64))
    pts[-1] = horizon
    return pts


def time_average(symbols, g, checkpoints, tol=1e-2):
    """Partial averages (1/n) sum_{i<n} g(w at window i) at each checkpoint."""
    arr = as_symbols(symbols, g.alphabet_size)
    cps = np.asarray(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if cps.size == 0 or cps[0] < 1:
        raise DomainError("checkpoints must be positive")
    if cps[-1] + g.order - 1 > arr.size:
        raise RangeError(
            f"sequence of length {arr.size} cannot supply {cps[-1]} windows of "
            f"order {g.order}"
        )
    vals = g.values_along(arr)
    csum = np.cumsum(vals)
    partials = csum[cps - 1] / cps
    return _verdict(cps, partials, tol)


@dataclass(frozen=True)
class SpreadResult:
    """Cross-path dispersion of final time averages."""

    spread: float
    finals: np.ndarray


def ergodicity_spread(measure, g, paths, horizon, seed):
    """Standard deviation across paths of the final time average of g.

    Shrinks with horizon for ergodic measures; stays bounded away from zero
    for mixtures whose components give g different means (the negative
    control). ``measure`` may be a source model or an induced measure; both
    sample seeded paths.
    """
    if paths < 2:
        raise DomainError("need at least two paths")
    if paths > DEFAULT_ENUMERATION_CELLS:
        raise ResourceError(f"paths: {paths} is over the cap of {DEFAULT_ENUMERATION_CELLS}")
    root = seed_sequence(seed)
    finals = np.empty(paths)
    need = horizon + g.order - 1
    for idx in range(paths):
        ps = measure.sample_path(need, root.spawn(1)[0])
        vals = g.values_along(ps.symbols)
        finals[idx] = vals[:horizon].mean()
    return SpreadResult(spread=float(finals.std()), finals=finals)


def ams_diagnostic(measure, cylinders, horizon, checkpoints=None, tol=1e-2):
    """Exact Cesaro traces of shifted cylinder probabilities, one verdict per cylinder.

    ``measure`` is a source model or an induced measure. Either computes
    every shifted probability q(T^-i [b]), i < horizon, exactly on its
    chain, so the partial averages carry no sampling error.
    """
    if horizon < 100:
        raise DomainError("horizon must be >= 100")
    if checkpoints is None:
        checkpoints = default_checkpoints(horizon)
    cps = np.asarray(sorted(int(c) for c in checkpoints), dtype=np.int64)
    if cps.size == 0 or cps[0] < 1:
        raise DomainError("checkpoints must be positive")
    if cps[-1] > horizon:
        raise DomainError(f"max checkpoint {cps[-1]} exceeds the horizon {horizon}")
    check_shift_steps(int(cps[-1]) - 1)
    shifts = np.arange(int(cps[-1]))
    out = []
    for cyl in cylinders:
        csum = np.cumsum(measure.shifted_cylinder_probability(cyl, shifts))
        out.append(_verdict(cps, csum[cps - 1] / cps, tol))
    return out
