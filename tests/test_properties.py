"""Property-based checks tying the implementations together.

The naive oracle expands every center directly in original index space, so
it shares no index arithmetic with the engine under test; agreement across
all four implementations (naive, augmented, the index-mapped engine and its
compiled kernel) is the main correctness argument.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from lps import native
from lps.core import (
    compute_radii,
    longest_palindrome,
    python_radii,
    result_from_radii,
    to_original_span,
)
from lps.generator import GenSpec, gen_text
from lps.reference import SOLVERS, augment, augmented_radii, choose_dummy, naive_radii

texts = st.text(alphabet="ab", max_size=60) | st.text(alphabet="abc", max_size=60)
# non-ASCII text goes to the kernel as UTF-32, so astral code points and
# NUL/0xff bytes get alphabets small enough to form long palindromes
wide_texts = (
    texts
    | st.text(max_size=40)
    | st.text(alphabet="a\x00\xe9\U0001f600", max_size=60)
    | st.binary(max_size=60)
    | st.lists(st.sampled_from(b"\x00\xffa"), max_size=60).map(bytes)
)


@given(wide_texts)
def test_three_way_radii_agreement(text):
    expected = naive_radii(text)
    radii, stats = python_radii(text)
    assert radii == expected
    assert augmented_radii(text)[0] == expected
    native_radii, native_stats = native.compute_radii(text)
    assert list(native_radii) == expected
    assert native_stats.comparisons == stats.comparisons
    assert native_stats.center == stats.center == expected.index(max(expected))
    default_radii, default_stats = compute_radii(text)
    assert list(default_radii) == expected
    assert default_stats.comparisons == stats.comparisons
    assert default_stats.center == stats.center


@given(wide_texts)
def test_three_way_span_agreement(text):
    span = result_from_radii(*SOLVERS["naive"](text)).span
    assert longest_palindrome(text).span == span
    assert result_from_radii(*python_radii(text)).span == span
    assert result_from_radii(*augmented_radii(text)).span == span


@given(texts)
def test_parity(text):
    radii, _ = compute_radii(text)
    assert all(radii[i] % 2 == i % 2 for i in range(len(radii)))


@given(texts)
def test_range(text):
    radii, _ = compute_radii(text)
    top = len(radii) - 1
    for i, r in enumerate(radii):
        assert 0 <= r <= min(i, top - i)


@given(texts)
def test_palindromicity(text):
    radii, _ = compute_radii(text)
    for i, r in enumerate(radii):
        span = to_original_span(i, r)
        segment = text[span.start : span.end]
        assert segment == segment[::-1]


@given(texts)
def test_maximality(text):
    # every table entry is the PRIME palindromic substring: one more symbol
    # on each side either runs off the text or breaks the palindrome
    radii, _ = compute_radii(text)
    for i, r in enumerate(radii):
        span = to_original_span(i, r)
        if span.start > 0 and span.end < len(text):
            assert text[span.start - 1] != text[span.end]


@given(texts)
def test_reflection_bounds(text):
    # inside a center's palindrome, the mirror's table entry bounds ours:
    # strict containment copies exactly, otherwise at least the clamped span
    # survives
    radii, _ = compute_radii(text)
    for a, r in enumerate(radii):
        right = a + radii[a]
        for j in range(a + 1, right + 1):
            k = 2 * a - j
            if k - radii[k] > a - radii[a]:
                assert radii[j] == radii[k]
            else:
                assert radii[j] >= min(radii[k], right - j)


@given(texts)
def test_comparison_budget(text):
    _, stats = compute_radii(text)
    assert stats.comparisons <= 4 * (len(text) + 1)


@given(texts)
def test_str_bytes_agreement(text):
    data = text.encode("ascii")
    assert compute_radii(text)[0] == compute_radii(data)[0]


@given(wide_texts)
def test_augment_round_trip(text):
    dummy = choose_dummy(text) if not isinstance(text, tuple) else None
    aug = augment(text, dummy)
    assert len(aug) == 2 * len(text) + 1
    assert aug[1::2] == text


@given(st.text(alphabet="abc", max_size=16))
def test_against_substring_scan(text):
    # independent oracle: try every substring, longest palindrome wins,
    # earliest start breaks ties
    best = (0, 0)  # (length, start)
    for start in range(len(text)):
        for end in range(start + 1, len(text) + 1):
            segment = text[start:end]
            if segment == segment[::-1] and end - start > best[0]:
                best = (end - start, start)
    result = longest_palindrome(text)
    assert result.length == best[0]
    assert result.span.start == best[1]


@settings(deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_agreement_on_generated_strings(seed):
    text = gen_text(GenSpec(length=seed % 300, alphabet_size=2 + seed % 3, seed=seed))
    assert python_radii(text)[0] == naive_radii(text)


def test_entrywise_agreement_at_depth():
    # one larger seeded check beyond hypothesis's size comfort zone
    text = gen_text(GenSpec(length=2000, alphabet_size=2, seed=0xC0FFEE))
    expected = naive_radii(text)
    assert python_radii(text)[0] == expected
    assert augmented_radii(text)[0] == expected
