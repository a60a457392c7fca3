"""Brute-force reference computations, independent of the chain kernel.

Everything here enumerates source tuples directly and never touches the
induced measure's forward algorithm, so agreement between the two is a
genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ResourceError
from .sources import NEG_INF
from .wordcode import encode_stream

MAX_ORACLE_TUPLES = 2**22


def brute_force_induced_log_table(model, word_function, n):
    """log q(b^n) for every b^n, by enumerating all source n-tuples.

    Each source tuple is encoded, its output projected to the first n
    symbols, and its exact probability accumulated on that output cell.
    Returns the table in lexicographic output order (natural log).
    """
    A = model.alphabet_size
    B = word_function.output_alphabet_size
    if A**n > MAX_ORACLE_TUPLES:
        raise ResourceError(f"oracle enumeration of {A**n} tuples is over the cap")
    cells = [[] for _ in range(B**n)]
    for tup in itertools.product(range(A), repeat=n):
        lp = model.cylinder_log_probability(tup)
        if lp == NEG_INF:
            continue
        out = encode_stream(word_function, tup).output[:n]
        code = 0
        for s in out:
            code = code * B + int(s)
        cells[code].append(math.exp(lp))
    table = np.full(B**n, NEG_INF)
    for code, probs in enumerate(cells):
        if probs:
            table[code] = math.log(math.fsum(probs))
    return table

