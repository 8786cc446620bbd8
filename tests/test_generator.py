"""Tests for the seeded string generator."""

from __future__ import annotations

import pytest

from lps.core import longest_palindrome
from lps.generator import (
    ALPHABET_MAX,
    GenSpec,
    MASK64,
    UsageError,
    gen_text,
    iter_chunks,
    rng_next,
)


def test_rng_golden_vectors():
    # reference SplitMix64 outputs for seed 0
    state, out = rng_next(0)
    assert out == 0xE220A8397B1DCDAF
    state, out = rng_next(state)
    assert out == 0x6E789E6AA1B965F4


def test_rng_outputs_fit_64_bits():
    state = 0xDEADBEEF
    for _ in range(100):
        state, out = rng_next(state)
        assert 0 <= state <= MASK64
        assert 0 <= out <= MASK64


def test_rng_determinism():
    a, b = 12345, 12345
    for _ in range(1000):
        a, out_a = rng_next(a)
        b, out_b = rng_next(b)
        assert out_a == out_b


def test_gen_golden():
    assert gen_text(GenSpec(length=16, alphabet_size=2, seed=42)) == "bbaaaabababaabaa"


def test_gen_empty():
    assert gen_text(GenSpec(length=0, alphabet_size=5, seed=7)) == ""


def test_gen_unary():
    assert gen_text(GenSpec(length=8, alphabet_size=1, seed=3)) == "aaaaaaaa"


def test_gen_matches_scalar_rng():
    # the vectorized bulk path must agree with the scalar step function
    spec = GenSpec(length=500, alphabet_size=7, seed=0xFEED)
    state = spec.seed
    expected = []
    for _ in range(spec.length):
        state, out = rng_next(state)
        expected.append(chr(ord("a") + out % spec.alphabet_size))
    assert gen_text(spec) == "".join(expected)


def test_gen_near_seed_wraparound():
    spec = GenSpec(length=64, alphabet_size=3, seed=MASK64)
    text = gen_text(spec)
    assert len(text) == 64
    assert set(text) <= set("abc")


@pytest.mark.parametrize("alphabet", [1, 2, 13, ALPHABET_MAX])
def test_alphabet_closure(alphabet):
    text = gen_text(GenSpec(length=2000, alphabet_size=alphabet, seed=1))
    allowed = {chr(ord("a") + i) for i in range(alphabet)}
    assert set(text) <= allowed


def test_length_exactness():
    for length in (0, 1, 2, 65535, 65536, 65537, 200_000):
        assert len(gen_text(GenSpec(length=length, alphabet_size=4, seed=9))) == length


def test_chunking_invariance():
    spec = GenSpec(length=1000, alphabet_size=5, seed=7)
    whole = gen_text(spec)
    for chunk_size in (1, 7, 64, 999, 1000, 4096):
        assert "".join(iter_chunks(spec, chunk_size)) == whole


def test_chunk_size_validation():
    with pytest.raises(ValueError):
        list(iter_chunks(GenSpec(10, 2, 0), 0))


@pytest.mark.parametrize("alphabet", [0, -1, 27, 100])
def test_invalid_alphabet(alphabet):
    with pytest.raises(UsageError, match=rf"^alphabet size must be in \[1, 26\], got {alphabet}$"):
        GenSpec(length=1, alphabet_size=alphabet, seed=0)


def test_invalid_length_and_seed():
    with pytest.raises(ValueError):
        GenSpec(length=-1, alphabet_size=2, seed=0)
    with pytest.raises(ValueError):
        GenSpec(length=1, alphabet_size=2, seed=-1)
    with pytest.raises(ValueError):
        GenSpec(length=1, alphabet_size=2, seed=MASK64 + 1)


@pytest.mark.parametrize(
    "fields, error",
    [((-1, 3, 0), UsageError), ((5, 27, 0), UsageError), ((5, 3, 2**64), UsageError)],
)
def test_genspec_checks_every_way_it_is_built(fields, error):
    with pytest.raises(error):
        GenSpec(*fields)
    with pytest.raises(error):
        GenSpec(**dict(zip(GenSpec._fields, fields)))
    with pytest.raises(error):
        GenSpec(1, 2, 0)._replace(**dict(zip(GenSpec._fields, fields)))


def test_unary_string_is_its_own_palindrome():
    for length in (1, 5, 100):
        text = gen_text(GenSpec(length=length, alphabet_size=1, seed=11))
        result = longest_palindrome(text)
        assert result.length == length
        assert result.substring(text) == text
