"""Codebooks, prefix-free checking, encoding, and greedy decoding."""

import itertools

import numpy as np
import pytest

from wordsource import (
    ConfigError,
    DecodeError,
    DomainError,
    IIDSource,
    MixtureSource,
    NotPrefixFreeError,
    WordFunction,
    decode_prefix_free,
    encode_stream,
    expected_codeword_length,
    is_prefix_free,
    kraft_sum,
    word_function_from_config,
)
from wordsource.experiments import random_codebook, random_prefix_free_codebook

WF = WordFunction(2, 2, ((0,), (1, 0)))
WF_PREFIX_VIOLATION = WordFunction(2, 2, ((0,), (0, 1)))
WF_DUPLICATE = WordFunction(2, 2, ((0,), (0,)))
WF_ALL_ZERO = WordFunction(2, 2, ((0,), (0, 0)))


def test_prefix_free_standard_code():
    check = is_prefix_free(WF)
    assert check.ok and check.witness is None


def test_prefix_violation_detected_with_witness():
    check = is_prefix_free(WF_PREFIX_VIOLATION)
    assert not check.ok
    assert check.witness == (0, 1)


def test_duplicate_codewords_fail_injectivity():
    check = is_prefix_free(WF_DUPLICATE)
    assert not check.ok
    assert check.witness == (0, 1)
    assert "duplicate" in check.reason


def test_kraft_sum_diagnostic():
    assert kraft_sum(WF) == 0.75
    rng = np.random.default_rng(11)
    for _ in range(20):
        wf = random_prefix_free_codebook(rng, int(rng.integers(2, 4)), 2, 3)
        assert is_prefix_free(wf)
        assert kraft_sum(wf) <= 1.0 + 1e-12


def test_random_prefix_free_codebook_rejects_infeasible_sizes():
    # 3 binary codewords of length <= 1 have Kraft sum >= 3/2 whatever the
    # draw, so drawing lengths until the sum is <= 1 would never stop
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="Kraft"):
        random_prefix_free_codebook(rng, 3, 2, 1)
    assert rng.bit_generator.state == state
    # 4 = 2**2 is the edge that still fits: every codeword has length 2
    wf = random_prefix_free_codebook(rng, 4, 2, 2)
    assert sorted(wf.codewords) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_encode_concatenates_and_tracks_boundaries():
    enc = encode_stream(WF, [1, 0, 1])
    assert list(enc.output) == [1, 0, 0, 1, 0]
    assert list(enc.boundaries) == [0, 2, 3, 5]


def test_encode_empty_input():
    enc = encode_stream(WF, [])
    assert enc.output.size == 0
    assert list(enc.boundaries) == [0]


def test_encode_non_prefix_free():
    enc = encode_stream(WF_ALL_ZERO, [1, 1])
    assert list(enc.output) == [0, 0, 0, 0]
    assert list(enc.boundaries) == [0, 2, 4]


def test_encode_rejects_bad_symbols():
    with pytest.raises(DomainError):
        encode_stream(WF, [0, 2])


def test_boundary_coherence_randomized():
    rng = np.random.default_rng(2)
    for _ in range(25):
        wf = random_codebook(rng, 3, 2, 3)
        x = rng.integers(0, 3, size=int(rng.integers(1, 40)))
        enc = encode_stream(wf, x)
        for k, a in enumerate(x):
            lo, hi = enc.boundaries[k], enc.boundaries[k + 1]
            assert tuple(enc.output[lo:hi]) == wf.codewords[a]


def _encode_reference(wf, symbols):
    # the encoder's definition, one symbol at a time: concatenate codeword tuples
    out, boundaries = [], [0]
    for a in symbols:
        out.extend(wf.codewords[a])
        boundaries.append(len(out))
    return out, boundaries


@pytest.mark.parametrize("A", [2, 3, 4])
def test_encode_matches_tuple_concatenation(A):
    rng = np.random.default_rng(A)
    for size in (0, 1, 37, 10**5):
        wf = random_codebook(rng, A, int(rng.integers(2, 4)), 3)
        x = rng.integers(0, A, size=size)
        enc = encode_stream(wf, x)
        out, boundaries = _encode_reference(wf, x.tolist())
        assert enc.output.dtype == np.int64 and enc.boundaries.dtype == np.int64
        assert enc.output.tolist() == out
        assert enc.boundaries.tolist() == boundaries


def test_zeta_growth_bounds():
    rng = np.random.default_rng(3)
    for _ in range(25):
        wf = random_codebook(rng, 2, 2, 4)
        n = int(rng.integers(1, 60))
        x = rng.integers(0, 2, size=n)
        enc = encode_stream(wf, x)
        assert n <= enc.total_length <= wf.max_codeword_length * n


def test_decode_inverts_encode():
    decoded, consumed = decode_prefix_free(WF, [1, 0, 0, 1, 0])
    assert list(decoded) == [1, 0, 1]
    assert consumed == 5


def test_decode_incomplete_codeword():
    decoded, consumed = decode_prefix_free(WF, [1])
    assert decoded.size == 0
    assert consumed == 0


def test_decode_round_trip_exhaustive():
    codebooks = [WF, WordFunction(3, 2, ((0,), (1, 0), (1, 1)))]
    rng = np.random.default_rng(4)
    codebooks.append(random_prefix_free_codebook(rng, 3, 3, 3))
    for wf in codebooks:
        A = wf.input_alphabet_size
        for n in range(1, 7):
            for x in itertools.product(range(A), repeat=n):
                enc = encode_stream(wf, x)
                decoded, consumed = decode_prefix_free(wf, enc.output)
                assert tuple(decoded) == x
                assert consumed == enc.total_length


def test_decode_requires_prefix_free():
    with pytest.raises(NotPrefixFreeError):
        decode_prefix_free(WF_ALL_ZERO, [0, 0])


def test_decode_error_reports_position():
    with pytest.raises(DecodeError) as err:
        decode_prefix_free(WF, [1, 1, 0])
    assert err.value.position == 1


def test_expected_codeword_length_values():
    assert expected_codeword_length(IIDSource([0.5, 0.5]), WF) == [(1.0, 1.5)]
    assert expected_codeword_length(IIDSource([0.9, 0.1]), WF) == [(1.0, pytest.approx(1.1))]
    mix = MixtureSource([0.5, 0.5], [IIDSource([0.5, 0.5]), IIDSource([0.9, 0.1])])
    result = expected_codeword_length(mix, WF)
    assert result[0] == (0.5, 1.5)
    assert result[1][1] == pytest.approx(1.1)


def test_expected_codeword_length_alphabet_mismatch():
    with pytest.raises(DomainError):
        expected_codeword_length(IIDSource([0.4, 0.3, 0.3]), WF)


def test_codebook_config_roundtrip():
    cfg = {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "10"]}
    wf = word_function_from_config(cfg)
    assert wf.codewords == ((0,), (1, 0))
    assert wf.config_dict() == cfg
    assert wf.max_codeword_length == 2


def test_codebook_config_validation():
    with pytest.raises(ConfigError):
        word_function_from_config({"input_alphabet": 2, "code": ["0", "1"]})
    with pytest.raises(ConfigError):
        word_function_from_config(
            {"input_alphabet": 2, "output_alphabet": 2, "code": ["0", "12"]}
        )
    with pytest.raises(ConfigError):
        word_function_from_config(
            {"input_alphabet": 2, "output_alphabet": 2, "code": ["0"]}
        )
    with pytest.raises(ConfigError):
        WordFunction(2, 2, ((0,), ()))
