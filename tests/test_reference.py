"""Tests for the quadratic oracle and the materialized-augmentation solver."""

from __future__ import annotations

import pytest

from lps import reference
from lps.core import CompareStats, LpsResult, Span, Unsupported, compute_radii, longest_palindrome, result_from_radii
from lps.generator import GenSpec
from lps.reference import (
    ORACLE_CAP,
    SOLVERS,
    augment,
    augmented_radii,
    choose_dummy,
    naive_radii,
)

GOLDENS = [
    ("", [0]),
    ("a", [0, 1, 0]),
    ("aa", [0, 1, 2, 1, 0]),
    ("aaaa", [0, 1, 2, 3, 4, 3, 2, 1, 0]),
    ("abab", [0, 1, 0, 3, 0, 3, 0, 1, 0]),
    ("abba", [0, 1, 0, 1, 4, 1, 0, 1, 0]),
    ("bananas", [0, 1, 0, 1, 0, 3, 0, 5, 0, 3, 0, 1, 0, 1, 0]),
]


@pytest.mark.parametrize("text,expected", GOLDENS)
def test_naive_radii(text, expected):
    assert naive_radii(text) == expected


@pytest.mark.parametrize("text,expected", GOLDENS)
def test_augmented_radii(text, expected):
    radii, _ = augmented_radii(text)
    assert radii == expected


def test_oracle_cap(monkeypatch):
    # the cap is read at each call
    monkeypatch.setattr(reference, "ORACLE_CAP", 50)
    with pytest.raises(Unsupported, match="^text length 80 exceeds oracle cap 50$"):
        naive_radii("ab" * 40)
    # the cap is inclusive
    monkeypatch.setattr(reference, "ORACLE_CAP", 2)
    assert naive_radii("ab") == [0, 1, 0, 1, 0]


def test_default_cap_value():
    assert ORACLE_CAP == 100_000


def test_naive_stats_optional():
    # naive_radii gives the plain table; the registry entry adds the stats
    radii = naive_radii("bananas")
    assert radii == dict(GOLDENS)["bananas"]
    assert SOLVERS["naive"]("bananas") == (radii, CompareStats(15, 7))


@pytest.mark.parametrize("name", ["naive", "augmented"])
def test_reference_result_matches_core(name):
    for text, _ in GOLDENS:
        assert result_from_radii(*SOLVERS[name](text)).span == longest_palindrome(text).span


def test_augmented_counts_dummy_comparisons():
    # materialized augmentation pays for dummy-position comparisons that
    # index mapping skips entirely
    for text in ("bananas", "abba", "abab", "a" * 50):
        _, core_stats = compute_radii(text)
        _, aug_stats = augmented_radii(text)
        assert aug_stats.comparisons > core_stats.comparisons


def test_choose_dummy_str():
    assert choose_dummy("bananas") == "\x00"
    assert choose_dummy("\x00ab") == "\x01"  # lowest absent code point


def test_choose_dummy_bytes():
    assert choose_dummy(b"bananas") == 0
    assert choose_dummy(bytes([0, 1, 2])) == 3


def test_choose_dummy_exhausted():
    with pytest.raises(Unsupported):
        choose_dummy(bytes(range(256)))


def test_choose_dummy_other_sequences_get_a_fresh_sentinel():
    tokens = ("a", "b", None, 0)
    dummy = choose_dummy(tokens)
    assert all(dummy != token for token in tokens)
    assert choose_dummy(tokens) is not dummy


def test_augment_str():
    assert augment("abc", "#") == "#a#b#c#"


def test_augment_empty():
    assert augment("", "#") == "#"


def test_augment_bytes():
    assert augment(b"ab", 0) == bytes([0, ord("a"), 0, ord("b"), 0])


def test_augment_tuple():
    assert augment(("x", "y"), None) == (None, "x", None, "y", None)


def test_augment_rejects_present_dummy():
    with pytest.raises(ValueError):
        augment("abc", "b")


def test_augment_rejects_multichar_dummy():
    with pytest.raises(ValueError):
        augment("abc", "##")


def test_augment_length_and_parity():
    for text in ("", "a", "ab", "bananas"):
        aug = augment(text, "#")
        assert len(aug) == 2 * len(text) + 1
        assert all(aug[i] == "#" for i in range(0, len(aug), 2))


VALUES = {
    "Span": lambda: Span(1, 6),
    "LpsResult": lambda: LpsResult(span=Span(1, 6), length=5, center=7),
    "GenSpec": lambda: GenSpec(length=5, alphabet_size=3, seed=0),
    "CompareStats": lambda: CompareStats(11, 7),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_records_are_values(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], 0)
    with pytest.raises(AttributeError):
        a.extra = 0  # no instance dict either
    assert a == b
