"""Word functions (codebooks), the stream encoder, and the prefix-free decoder.

A word function maps each input symbol to a nonempty codeword over the output
alphabet; the codeword lengths are bounded by the derived maximum N. Encoding
concatenates codewords and tracks the cumulative boundary sequence
zeta_0 = 0 < zeta_1 < ... < zeta_n. Decoding greedily parses maximal complete
codewords and is only defined for prefix-free word functions, where the parse
is unique.

Non-prefix-free word functions are first-class citizens everywhere except the
decoder; the interesting inequalities of the AEP machinery concern exactly
those codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DecodeError, DomainError, NotPrefixFreeError
from .sources import as_symbols, check_fields


@dataclass(frozen=True)
class WordFunction:
    """Codeword assignment f: input symbol -> tuple over the output alphabet."""

    input_alphabet_size: int
    output_alphabet_size: int
    codewords: tuple

    def __post_init__(self):
        if self.input_alphabet_size < 2:
            raise ConfigError("input alphabet size must be >= 2")
        if self.output_alphabet_size < 2:
            raise ConfigError("output alphabet size must be >= 2")
        if len(self.codewords) != self.input_alphabet_size:
            raise ConfigError(
                f"need exactly one codeword per input symbol "
                f"({self.input_alphabet_size}), got {len(self.codewords)}"
            )
        frozen = []
        for a, cw in enumerate(self.codewords):
            cw = tuple(int(s) for s in cw)
            if len(cw) == 0:
                raise ConfigError(f"codeword for symbol {a} is empty")
            for s in cw:
                if s < 0 or s >= self.output_alphabet_size:
                    raise ConfigError(
                        f"codeword for symbol {a} contains symbol {s} outside "
                        f"the output alphabet of size {self.output_alphabet_size}"
                    )
            frozen.append(cw)
        object.__setattr__(self, "codewords", tuple(frozen))

    @property
    def max_codeword_length(self):
        """The bound N with 1 <= |c| <= N for every codeword."""
        return max(len(c) for c in self.codewords)

    def lengths(self):
        return np.array([len(c) for c in self.codewords], dtype=np.int64)

    @cached_property
    def _flat_code(self):
        """(all codewords concatenated, each codeword's start, its length)."""
        lengths = self.lengths()
        flat = np.array([s for c in self.codewords for s in c], dtype=np.int64)
        return flat, np.cumsum(lengths) - lengths, lengths

    def config_dict(self):
        return {
            "input_alphabet": self.input_alphabet_size,
            "output_alphabet": self.output_alphabet_size,
            "code": ["".join(str(s) for s in c) for c in self.codewords],
        }


def word_function_from_config(config):
    """Parse the codebook JSON form {"input_alphabet", "output_alphabet", "code"}.

    Codewords are strings of single-digit symbols, e.g. ["0", "10"].
    """
    if not isinstance(config, dict):
        raise ConfigError("codebook config must be a dict")
    check_fields(config, ("input_alphabet", "output_alphabet", "code"), "codebook")
    code = config["code"]
    if not isinstance(code, (list, tuple)):
        raise ConfigError("codebook 'code' must be a list of digit strings")
    codewords = []
    for i, word in enumerate(code):
        if not isinstance(word, str) or not word:
            raise ConfigError(f"code[{i}] must be a nonempty string of digits")
        if not (word.isascii() and word.isdigit()):
            raise ConfigError(f"code[{i}] contains a non-digit character")
        codewords.append(tuple(int(ch) for ch in word))
    sizes = config["input_alphabet"], config["output_alphabet"]
    if not all(isinstance(v, int) for v in sizes):
        raise ConfigError("codebook 'input_alphabet' and 'output_alphabet' "
                          "must be integers")
    return WordFunction(
        input_alphabet_size=sizes[0],
        output_alphabet_size=sizes[1],
        codewords=tuple(codewords),
    )


@dataclass(frozen=True)
class PrefixCheck:
    """Result of is_prefix_free: verdict plus an offending pair when false."""

    ok: bool
    witness: tuple | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


def is_prefix_free(wf):
    """Check both clauses of the prefix-free property.

    (i) the codeword map is injective, and (ii) no codeword is a prefix of
    another. Returns a PrefixCheck whose witness names the offending pair of
    input symbols when either clause fails.
    """
    n = wf.input_alphabet_size
    for i in range(n):
        for j in range(i + 1, n):
            if wf.codewords[i] == wf.codewords[j]:
                return PrefixCheck(False, (i, j), "duplicate codewords")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ci, cj = wf.codewords[i], wf.codewords[j]
            if len(ci) <= len(cj) and cj[: len(ci)] == ci:
                return PrefixCheck(False, tuple(sorted((i, j))), "one codeword prefixes another")
    return PrefixCheck(True)


def kraft_sum(wf):
    """sum_c |B|^-|c|; at most 1 for prefix-free codes (diagnostic only)."""
    B = wf.output_alphabet_size
    return math.fsum(B ** -len(c) for c in wf.codewords)


@dataclass(frozen=True)
class EncodeResult:
    """Concatenated output plus the codeword-boundary sequence zeta."""

    output: np.ndarray
    boundaries: np.ndarray

    @property
    def total_length(self):
        return int(self.boundaries[-1])


def encode_stream(wf, symbols):
    """Concatenate f(x_1) ... f(x_n) and record cumulative boundaries.

    boundaries[k] = zeta_k = |f(x_1)| + ... + |f(x_k)|, with zeta_0 = 0.
    """
    arr = as_symbols(symbols, wf.input_alphabet_size)
    flat, starts, lengths = wf._flat_code
    lens = lengths[arr]
    boundaries = np.zeros(arr.size + 1, dtype=np.int64)
    np.cumsum(lens, out=boundaries[1:])
    # output position zeta_k + j of codeword k reads flat[starts[x_k] + j]
    offsets = np.repeat(starts[arr] - boundaries[:-1], lens)
    output = flat[offsets + np.arange(boundaries[-1], dtype=np.int64)]
    return EncodeResult(output=output, boundaries=boundaries)


def _build_trie(wf):
    # node: dict symbol -> node; terminal nodes carry the decoded input symbol
    # under the key "leaf". Prefix-freeness makes terminals leaves.
    root = {}
    for a, cw in enumerate(wf.codewords):
        node = root
        for s in cw:
            node = node.setdefault(s, {})
        node["leaf"] = a
    return root


def decode_prefix_free(wf, output_symbols):
    """Greedy parse of maximal complete codewords from the front of y.

    Returns (decoded input symbols, number of output symbols consumed). The
    unconsumed remainder is empty or a strict prefix of some codeword. Raises
    NotPrefixFreeError when the word function is not prefix-free and
    DecodeError when a block matches no codeword prefix (y has no preimage).
    """
    check = is_prefix_free(wf)
    if not check.ok:
        raise NotPrefixFreeError(
            f"decoding requires a prefix-free word function: {check.reason} "
            f"at input symbols {check.witness}"
        )
    y = as_symbols(output_symbols, wf.output_alphabet_size)
    trie = _build_trie(wf)
    decoded = []
    consumed = 0
    node = trie
    for pos, s in enumerate(y):
        nxt = node.get(int(s))
        if nxt is None:
            raise DecodeError(
                f"output block at position {pos} matches no codeword "
                f"(sequence has no preimage under the codebook)",
                position=pos,
            )
        node = nxt
        if "leaf" in node:
            decoded.append(node["leaf"])
            consumed = pos + 1
            node = trie
    return np.array(decoded, dtype=np.int64), consumed


def check_alphabets(model, wf):
    """Raise DomainError unless ``wf`` reads the symbols ``model`` emits."""
    if model.alphabet_size != wf.input_alphabet_size:
        raise DomainError(f"model alphabet size {model.alphabet_size} does not match "
                          f"codebook input alphabet {wf.input_alphabet_size}")


def expected_codeword_length(model, wf):
    """Per-ergodic-component expected codeword length.

    Returns [(weight, E[l])] where the expectation is over the component's
    stationary first-symbol law.
    """
    check_alphabets(model, wf)
    lengths = wf.lengths().astype(float)
    out = []
    for weight, comp in model.ergodic_components():
        marginal = comp.marginal_distribution()
        out.append((weight, float(marginal @ lengths)))
    return out
