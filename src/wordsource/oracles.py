"""Brute-force reference computations, independent of the chain kernel.

The oracle enumerates every source n-tuple and reads off its probability and
its output cell from the model's ``parts`` (weighted initial laws and
transition rows, with no code per model family) and the codewords alone: it
calls neither the induced measure's forward algorithm, nor a model's cylinder
probability, nor the stream encoder, so agreement with them is a genuine
cross-check rather than a tautology.

Tuples are enumerated as index ranges in chunks of ORACLE_CHUNK, one
(chunk,) column per source digit, so memory stays flat in n. Probabilities
are products of parameters in linear space, summed per output cell with
bincount; the log is taken once per cell at the end.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceError
from .sources import NEG_INF
from .wordcode import check_alphabets

MAX_ORACLE_TUPLES = 2**22

# Source tuples enumerated per chunk.
ORACLE_CHUNK = 2**16


def _tuple_probabilities(model, digits):
    """Probability of each tuple whose k-th symbols are the column digits[k]:
    over the model's parts, weight * initial[d0] * rows[d0, d1] * ..., summed."""
    total = 0.0
    for weight, _, initial, rows in model.parts:
        p = initial[digits[0]]
        for prev, cur in zip(digits, digits[1:]):
            p = p * rows[prev, cur]
        total = total + weight * p
    return total


def brute_force_induced_log_table(model, word_function, n):
    """log q(b^n) for every b^n, by enumerating all source n-tuples.

    Each codeword is nonempty, so a tuple's first n output symbols come from
    its n source symbols: the tuple's exact probability is added to that
    output cell. Returns the table in lexicographic output order (natural
    log, -inf for cells no tuple reaches).
    """
    check_alphabets(model, word_function)
    A = model.alphabet_size
    B = word_function.output_alphabet_size
    if n < 1:
        raise DomainError("block length must be >= 1")
    if A**n > MAX_ORACLE_TUPLES:
        raise ResourceError(f"oracle enumeration of {A**n} tuples is over the cap")
    longest = word_function.max_codeword_length
    lengths = word_function.lengths()
    powers = B ** np.arange(longest + 1, dtype=np.int64)
    # heads[a, m]: the first m symbols of f(a) as a base-B number, m <= |f(a)|
    heads = np.zeros((A, longest + 1), dtype=np.int64)
    for a, c in enumerate(word_function.codewords):
        for m, s in enumerate(c, 1):
            heads[a, m] = heads[a, m - 1] * B + s
    mass = np.zeros(B**n)
    for lo in range(0, A**n, ORACLE_CHUNK):
        index = np.arange(lo, min(lo + ORACLE_CHUNK, A**n), dtype=np.int64)
        digits = [None] * n
        for k in range(n - 1, -1, -1):
            index, digits[k] = np.divmod(index, A)
        cell = np.zeros(digits[0].size, dtype=np.int64)
        filled = np.zeros_like(cell)
        for d in digits:
            take = np.minimum(lengths[d], n - filled)
            cell = cell * powers[take] + heads[d, take]
            filled += take
        mass += np.bincount(cell, weights=_tuple_probabilities(model, digits), minlength=B**n)
    table = np.full(B**n, NEG_INF)
    live = np.flatnonzero(mass > 0.0)
    table[live] = [math.log(v) for v in mass[live].tolist()]
    return table
