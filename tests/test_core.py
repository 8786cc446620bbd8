"""Unit tests for the index-mapped radii engine."""

from __future__ import annotations

import pytest

from lps.core import (
    CompareStats,
    Span,
    argmax,
    longest_palindrome,
    python_radii,
    to_original_span,
)

BANANAS_RADII = [0, 1, 0, 1, 0, 3, 0, 5, 0, 3, 0, 1, 0, 1, 0]


@pytest.mark.parametrize(
    "center,radius,expected",
    [
        (7, 5, Span(1, 6)),  # "anana" inside "bananas"
        (0, 0, Span(0, 0)),
        (4, 4, Span(0, 4)),  # whole "abba"
        (3, 3, Span(0, 3)),
        (2, 2, Span(0, 2)),
    ],
)
def test_to_original_span(center, radius, expected):
    assert to_original_span(center, radius) == expected


def test_span_helpers():
    span = Span(1, 6)
    assert span.length == 5
    assert span.substring("bananas") == "anana"
    assert Span(0, 0).substring("bananas") == ""


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", [0]),
        ("a", [0, 1, 0]),
        ("ab", [0, 1, 0, 1, 0]),
        ("aa", [0, 1, 2, 1, 0]),
        ("aaaa", [0, 1, 2, 3, 4, 3, 2, 1, 0]),
        ("abab", [0, 1, 0, 3, 0, 3, 0, 1, 0]),
        ("abba", [0, 1, 0, 1, 4, 1, 0, 1, 0]),
        ("bananas", BANANAS_RADII),
    ],
)
def test_compute_radii(text, expected):
    radii, _ = python_radii(text)
    assert radii == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", 0),  # out-of-range probes are free
        ("a", 0),
        ("ab", 1),  # boundaries match by definition and are never probed
        ("abba", 4),
        ("aba", 2),
        ("abc", 3),
        ("bananas", 11),  # centers inside a palindrome resume from its edge
        *(pytest.param("a" * n, n - 1, id=f"unary-{n}") for n in (2, 100, 100_000)),
        pytest.param(b"bananas", 11, id="bytes-bananas"),
        pytest.param(tuple("bananas"), 11, id="tokens-bananas"),
    ],
)
def test_comparison_counts(text, expected):
    # exactly one count per real symbol test
    _, stats = python_radii(text)
    assert stats.comparisons == expected


def test_radii_table_size():
    for n in range(8):
        radii, _ = python_radii("x" * n)
        assert len(radii) == 2 * n + 1


def test_comparison_budget_is_linear():
    for text in ("bananas", "a" * 500, "ab" * 250, "abcabc" * 100):
        _, stats = python_radii(text)
        assert stats.comparisons <= 4 * (len(text) + 1)


def test_argmax_takes_the_center_an_engine_reported():
    # the scan's answer is used as given, with no pass over the table
    assert argmax([0, 1, 0, 3, 0], CompareStats(0, 1)) == 1
    radii, stats = python_radii("abacdfgdcaba")
    assert argmax(radii, stats) == stats.center == 3


def test_longest_palindrome_bananas():
    result = longest_palindrome("bananas")
    assert result.span == Span(1, 6)
    assert result.length == 5
    assert result.substring("bananas") == "anana"


def test_longest_palindrome_leftmost_tie_break():
    result = longest_palindrome("abacdfgdcaba")
    assert result.span == Span(0, 3)
    assert result.substring("abacdfgdcaba") == "aba"


def test_longest_palindrome_empty():
    result = longest_palindrome("")
    assert result.span == Span(0, 0)
    assert result.length == 0
    assert result.substring("") == ""


def test_generic_symbols():
    # the engine only needs equality, not str input
    text = b"bananas"
    radii, _ = python_radii(text)
    assert radii == BANANAS_RADII
    assert longest_palindrome(text).substring(text) == b"anana"

    tokens = ("the", "cat", "saw", "cat", "the", "cat")
    result = longest_palindrome(tokens)
    assert result.substring(tokens) == ("the", "cat", "saw", "cat", "the")
