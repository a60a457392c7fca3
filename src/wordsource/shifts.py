"""Variable-length shifts, orbit time subsequences, weights, and densities.

A variable-length shift advances a sequence by gamma(w) positions, where
gamma reads only the first M symbols (the lookahead window) and takes values
in {1, ..., N}. Iterating the shift from position 0 visits the orbit
positions zeta_0 = 0, zeta_{n+1} = zeta_n + gamma(window at zeta_n). The
weight sequence xi marks orbit positions with 1s, and its running mean is the
partial density, always inside [1/N, 1].

Two independent routes produce xi: directly from the orbit, and through the
finite-state coder that counts down the pending block length (state s starts
at 0, reloads to u-1 at block starts, emits 1 exactly at reloads), walked
as a ``sources.BlockAutomaton`` over N states, one table per N. Their
bit-for-bit equality is one of the package's executable identities. The
check runs the coder first: its marks over positions 0 .. horizon are the
orbit steps that pass the horizon, so they set the orbit's step count, and
an orbit that falls short of the horizon is a mismatch.

The Bellow partial sums compare a density-weighted subsequence average with
the weighted full average; both converge to a common limit when the density
exists and is positive.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .sources import DEFAULT_ENUMERATION_CELLS, BlockAutomaton, as_symbols

# gamma tables are extensional over alphabet**lookahead windows; cap both the
# lookahead and the table size so construction stays desk-scale.
MAX_LOOKAHEAD = 16


def _window_codes(symbols, alphabet_size, order):
    """Base-|A| codes of all length-``order`` windows, by Horner's rule (exact int64)."""
    arr = np.asarray(symbols, dtype=np.int64)
    count = arr.size - order + 1
    if count < 1:
        return np.empty(0, dtype=np.int64)
    # a copy, so the in-place steps never write into the caller's array
    codes = arr[:count].copy()
    for j in range(1, order):
        codes *= alphabet_size
        codes += arr[j:j + count]
    return codes


def _periodic(values, n):
    """The first ``n`` terms of ``values`` repeated periodically, as float64."""
    values = np.asarray(values, dtype=float)
    return np.tile(values, -(-n // values.size))[:n]


@dataclass(frozen=True)
class VariableLengthShiftSpec:
    """A shift function gamma on M-symbol windows with values in {1..N}.

    The table is indexed by the base-|A| code of the window, so gamma is
    well defined on windows by construction.
    """

    alphabet_size: int
    lookahead: int
    max_shift: int
    table: np.ndarray

    def __post_init__(self):
        if self.lookahead < 1 or self.lookahead > MAX_LOOKAHEAD:
            raise DomainError(f"lookahead must be in 1..{MAX_LOOKAHEAD}")
        if self.alphabet_size < 2:
            raise DomainError("alphabet size must be >= 2")
        expected = self.alphabet_size**self.lookahead
        if expected > DEFAULT_ENUMERATION_CELLS:
            raise ResourceError(
                f"gamma table would need {expected} entries (cap {DEFAULT_ENUMERATION_CELLS})"
            )
        table = np.asarray(self.table, dtype=np.int64)
        if table.shape != (expected,):
            raise DomainError(f"gamma table must have shape ({expected},)")
        if self.max_shift < 1:
            raise DomainError("max shift must be >= 1")
        if table.min() < 1 or table.max() > self.max_shift:
            raise DomainError(f"gamma values must lie in 1..{self.max_shift}")
        object.__setattr__(self, "table", table)

    @classmethod
    def constant(cls, alphabet_size, shift):
        """gamma == shift everywhere; shift 1 degenerates to the left shift,
        shift N is the N-block shift."""
        table = np.full(alphabet_size, shift, dtype=np.int64)
        return cls(alphabet_size=alphabet_size, lookahead=1, max_shift=shift, table=table)

    @classmethod
    def from_function(cls, alphabet_size, lookahead, fn, max_shift=None):
        """Tabulate ``fn(window tuple) -> step`` over all windows."""
        if lookahead > MAX_LOOKAHEAD:
            raise DomainError(f"lookahead must be <= {MAX_LOOKAHEAD}")
        count = alphabet_size**lookahead
        if count > DEFAULT_ENUMERATION_CELLS:
            raise ResourceError(f"gamma table would need {count} entries")
        table = np.empty(count, dtype=np.int64)
        # product yields the windows in base-|A| code order
        for code, window in enumerate(itertools.product(range(alphabet_size), repeat=lookahead)):
            table[code] = int(fn(window))
        if max_shift is None:
            max_shift = int(table.max())
        return cls(alphabet_size=alphabet_size, lookahead=lookahead,
                   max_shift=max_shift, table=table)

    @classmethod
    def from_codebook(cls, wf):
        """The codeword-driven shift on output sequences.

        gamma(window) = |c| when exactly one codeword c prefixes the window,
        else 1. For a prefix-free codebook applied to an encoded stream at a
        codeword boundary, this steps over exactly one codeword.
        """
        lookahead = wf.max_codeword_length
        codewords = wf.codewords

        def gamma(window):
            matches = [c for c in codewords if window[: len(c)] == c]
            if len(matches) == 1:
                return len(matches[0])
            return 1

        return cls.from_function(wf.output_alphabet_size, lookahead, gamma,
                                 max_shift=lookahead)

    def shift_at(self, window):
        """gamma evaluated on one window (at least M symbols; extras ignored)."""
        arr = as_symbols(window, self.alphabet_size)
        if arr.size < self.lookahead:
            raise RangeError(
                f"window needs {self.lookahead} symbols, got {arr.size}"
            )
        return int(self.shift_values(arr[: self.lookahead])[0])

    def shift_values(self, symbols):
        """gamma at every position of ``symbols`` that has a full window."""
        arr = as_symbols(symbols, self.alphabet_size)
        codes = _window_codes(arr, self.alphabet_size, self.lookahead)
        return self.table[codes]


# codeword-driven specs for encoded_shift_commutes, built once per word
# function; bounded, since one table may hold DEFAULT_ENUMERATION_CELLS entries
_codebook_spec = functools.lru_cache(maxsize=16)(VariableLengthShiftSpec.from_codebook)


@dataclass(frozen=True)
class TimeSubsequence:
    """Orbit positions zeta with their indicator (weight) prefix.

    zeta is strictly increasing and starts at 0; weight_prefix[i] = 1 iff
    i appears in zeta, for i below horizon = zeta[-1] + 1.
    """

    zeta: np.ndarray
    horizon: int = field(init=False)
    weight_prefix: np.ndarray = field(init=False)

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=np.int64)
        if zeta.size == 0 or zeta[0] != 0:
            raise DomainError("zeta must start at 0")
        if zeta.size > 1 and np.any(np.diff(zeta) <= 0):
            raise DomainError("zeta must be strictly increasing")
        horizon = int(zeta[-1]) + 1
        xi = np.zeros(horizon, dtype=np.int64)
        xi[zeta] = 1
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "weight_prefix", xi)

    def __len__(self):
        return int(self.zeta.size)


def variable_length_orbit(spec, symbols, steps):
    """Iterate the variable-length shift ``steps`` times from position 0.

    Returns the TimeSubsequence zeta_0 .. zeta_steps. Each visited position
    must have a full lookahead window inside ``symbols``; running out raises
    a RangeError that reports the required length.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    arr = as_symbols(symbols, spec.alphabet_size)
    values = spec.shift_values(arr).tolist()
    zeta = [0]
    pos = 0
    try:
        for _ in range(steps):
            pos += values[pos]
            zeta.append(pos)
    except IndexError:  # positions only grow: the walk ran off the end
        raise RangeError(
            f"input of length {arr.size} is too short: step {len(zeta) - 1} reads the "
            f"window at position {pos}, needing length >= {pos + spec.lookahead}"
        ) from None
    return TimeSubsequence(zeta=np.fromiter(zeta, np.int64, len(zeta)))


def weight_sequence(ts, horizon):
    """The 0/1 weight prefix xi_0 .. xi_{horizon-1} and its partial density."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if horizon > ts.horizon:
        raise RangeError(
            f"horizon {horizon} exceeds the computed orbit coverage {ts.horizon}"
        )
    xi = ts.weight_prefix[:horizon]
    return xi.copy(), float(xi.sum() / horizon)


def finite_state_orbit_coder(lengths, horizon, max_shift=None):
    """Emit block-start indicators by counting down pending block lengths.

    The coder starts in state 0. In state 0 it emits 1 and reloads the state
    to u_i - 1 from the current length symbol; otherwise it emits 0 and
    decrements. Length entries at non-start positions are read but never
    consumed. The output equals the weight sequence of the orbit whose block
    lengths appear in ``lengths`` at block starts.

    The countdown has N = ``max_shift`` states (the largest length when it
    is None); N above 1024 needs a table over the automaton cap and raises
    ResourceError.
    """
    u = np.asarray(lengths, dtype=np.int64)
    if horizon < 0:
        raise DomainError("horizon must be >= 0")
    if max_shift is not None and max_shift < 1:
        raise DomainError("max shift must be >= 1")
    if horizon > u.size:
        raise RangeError(f"horizon {horizon} exceeds the {u.size} provided lengths")
    if u.size:
        if u.min() < 1:
            raise DomainError("length values must be >= 1")
        if max_shift is not None and u.max() > max_shift:
            raise DomainError(f"length values must be <= {max_shift}")
    if max_shift is None:
        max_shift = int(u.max(initial=1))
    z = np.zeros(horizon, dtype=np.int64)
    z[:1] = 1
    # the state before position i is the countdown's state after inputs
    # u_0 - 1 .. u_{i-1} - 1, and position i is marked when it is 0
    z[1:] = _countdown(max_shift).walk(0, u[:horizon][:-1] - 1) == 0
    return z


@functools.lru_cache(maxsize=16)
def _countdown(N):
    """The coder's automaton over N states: state 0 reloads to the input
    u - 1, any other state s counts down to s - 1."""
    return BlockAutomaton(N, N, lambda s: np.arange(N) if s == 0 else s - 1)


class BellowPartials(NamedTuple):
    lhs: float
    rhs: float


def bellow_check(values, ts, horizon):
    """Finite-horizon instances of the density lemma's two averages.

    lhs = (partial density) * (mean of values over orbit positions below the
    horizon); rhs = weighted full-shift average (1/n) sum xi_i * values_i.
    Both converge to the same limit when the density exists and is positive.
    """
    r = np.asarray(values, dtype=float)
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if r.size < horizon:
        raise RangeError(f"need {horizon} values, got {r.size}")
    if horizon > ts.horizon:
        raise RangeError(
            f"horizon {horizon} exceeds the computed orbit coverage {ts.horizon}"
        )
    k = int(np.searchsorted(ts.zeta, horizon, side="left"))
    if k == 0:
        raise DomainError("no orbit positions below the horizon")
    density = k / horizon
    lhs = density * float(r[ts.zeta[:k]].mean())
    xi = ts.weight_prefix[:horizon]
    rhs = float((xi * r[:horizon]).sum() / horizon)
    return BellowPartials(lhs=lhs, rhs=rhs)


def alternating_trace(horizon, stride, checkpoints):
    """(n, lhs, rhs) of ``bellow_check`` at each checkpoint n, for the values
    1, -1, 1, ... along the orbit 0, stride, 2 stride, ... past the horizon."""
    ts = TimeSubsequence(zeta=np.arange(0, horizon + stride + 1, stride))
    values = _periodic([1.0, -1.0], horizon)
    return [(int(n), *bellow_check(values, ts, int(n))) for n in checkpoints]


def encoded_shift_commutes(wf, symbols):
    """Check F(T x) == T_gamma F(x) on the available prefix.

    Uses the codeword-driven shift on the output side. The input is padded
    with symbol 0 so the first output window is always complete; both sides
    are compared over their full common extent. Only meaningful for
    prefix-free word functions (the caller may still probe others).
    """
    arr = as_symbols(symbols, wf.input_alphabet_size)
    if arr.size < 1:
        raise DomainError("need at least one input symbol")
    from .wordcode import encode_stream  # local import to keep module load light

    spec = _codebook_spec(wf)
    pad = np.concatenate([arr, np.zeros(spec.lookahead, dtype=np.int64)])
    y = encode_stream(wf, pad).output
    step = spec.shift_at(y[: spec.lookahead])
    shifted = encode_stream(wf, pad[1:]).output
    lhs = y[step:]
    n = min(lhs.size, shifted.size)
    return bool(np.array_equal(lhs[:n], shifted[:n])) and step == len(wf.codewords[arr[0]])
