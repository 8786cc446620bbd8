"""Tests for the quadratic oracle and the materialized-augmentation solver."""

from __future__ import annotations

import pytest

from lps.core import CompareStats, LpsResult, Span, compute_radii, longest_palindrome
from lps.generator import GenSpec
from lps.reference import (
    ORACLE_CAP,
    AugmentedText,
    DummyUnavailable,
    OracleCapExceeded,
    augment,
    augmented_lps,
    augmented_radii,
    choose_dummy,
    naive_lps,
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


def test_oracle_cap():
    with pytest.raises(OracleCapExceeded):
        naive_radii("ab" * 40, cap=50)
    # the cap is inclusive
    assert naive_radii("ab", cap=2) == [0, 1, 0, 1, 0]


def test_default_cap_value():
    assert ORACLE_CAP == 100_000


def test_naive_stats_optional():
    stats = CompareStats()
    naive_radii("bananas", stats=stats)
    assert stats.comparisons > 0


def test_naive_lps_matches_core():
    for text, _ in GOLDENS:
        assert naive_lps(text).span == longest_palindrome(text).span


def test_augmented_lps_matches_core():
    for text, _ in GOLDENS:
        assert augmented_lps(text).span == longest_palindrome(text).span


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
    with pytest.raises(DummyUnavailable):
        choose_dummy(bytes(range(256)))


def test_choose_dummy_other_sequences_get_a_fresh_sentinel():
    tokens = ("a", "b", None, 0)
    dummy = choose_dummy(tokens)
    assert all(dummy != token for token in tokens)
    assert choose_dummy(tokens) is not dummy


def test_augment_str():
    aug = augment("abc", "#")
    assert aug.symbols == "#a#b#c#"
    assert aug.dummy == "#"
    assert len(aug) == 7
    assert aug.original() == "abc"


def test_augment_empty():
    aug = augment("", "#")
    assert aug.symbols == "#"
    assert aug.original() == ""


def test_augment_bytes():
    aug = augment(b"ab", 0)
    assert aug.symbols == bytes([0, ord("a"), 0, ord("b"), 0])
    assert aug.original() == b"ab"


def test_augment_tuple():
    aug = augment(("x", "y"), None)
    assert aug.symbols == (None, "x", None, "y", None)
    assert aug.original() == ("x", "y")


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
        assert all(aug.symbols[i] == "#" for i in range(0, len(aug), 2))


VALUES = {
    "Span": lambda: Span(1, 6),
    "LpsResult": lambda: LpsResult(span=Span(1, 6), length=5, center=7),
    "GenSpec": lambda: GenSpec(length=5, alphabet_size=3, seed=0),
    "AugmentedText": lambda: AugmentedText(symbols="#a#", dummy="#"),
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
