"""Index-mapped linear-time engine for the longest palindromic substring.

A string of N symbols has 2N+1 palindromic centers: N on the symbols
themselves (odd palindromes) and N+1 on the boundaries between and around
them (even palindromes). The classic way to treat both kinds uniformly is
to interleave a dummy symbol into an augmented string of length 2N+1 and
run Manacher's scan over it. This module keeps the uniform treatment but
drops the buffer: it computes with augmented-space *indices* only, so no
augmented string is ever materialized and no dummy symbol is needed.

Index conventions used throughout:

* odd augmented index ``i``  -> the original symbol at ``(i - 1) // 2``
* even augmented index ``i`` -> the boundary before original position ``i // 2``
* ``radii[i]`` -> length, in original symbols, of the longest palindrome
  centered at ``i``; it equals that palindrome's radius in augmented
  space, and it always has the same parity as ``i``.

The engine is generic over the symbol type: anything indexable whose
elements support ``==`` works (``str``, ``bytes``, tuples of tokens).
All operations are pure; :class:`CompareStats` is the only mutable value
and is owned by a single computation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeAlias

Text: TypeAlias = Sequence
RadiiTable: TypeAlias = "list[int]"

__all__ = [
    "CompareStats",
    "LpsResult",
    "RadiiTable",
    "Span",
    "Text",
    "argmax",
    "compute_radii",
    "get_left_bound",
    "get_right_bound",
    "longest_palindrome",
    "result_from_radii",
    "to_mirror_image",
    "to_original_span",
]


class CompareStats:
    """Count of real symbol-equality tests performed by one computation."""

    __slots__ = ("comparisons",)

    def __init__(self) -> None:
        self.comparisons = 0

    def __repr__(self) -> str:
        return f"CompareStats(comparisons={self.comparisons})"


@dataclass(frozen=True)
class Span:
    """Half-open ``[start, end)`` interval in original-string index space."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def substring(self, text: Text) -> Text:
        """The slice of ``text`` this span covers."""
        return text[self.start : self.end]


@dataclass(frozen=True)
class LpsResult:
    """A longest palindromic substring: where it lies and which center won."""

    span: Span
    length: int
    center: int

    def substring(self, text: Text) -> Text:
        return self.span.substring(text)


def to_mirror_image(center: int, x: int) -> int:
    """Reflection of index ``x`` about ``center``: ``2 * center - x``."""
    return 2 * center - x


def get_left_bound(i: int, radii: RadiiTable) -> int:
    """Left edge, in augmented space, of the palindrome centered at ``i``."""
    return i - radii[i]


def get_right_bound(i: int, radii: RadiiTable) -> int:
    """Right edge, in augmented space, of the palindrome centered at ``i``."""
    return i + radii[i]


def to_original_span(center: int, radius: int) -> Span:
    """Map an augmented center and radius to the original-string span.

    ``center`` and ``radius`` must share parity, which makes both halves
    of ``((center - radius) / 2, (center + radius) / 2)`` exact.
    """
    return Span((center - radius) // 2, (center + radius) // 2)


def compute_radii(text: Text) -> tuple[RadiiTable, CompareStats]:
    """Palindrome lengths for all 2N+1 centers, in linear time.

    Scans centers left to right, keeping the reference center ``ref``
    whose palindrome currently reaches farthest right, to ``right``. A
    center ``j`` inside the reference palindrome first consults its mirror
    image ``k``:

    * mirror palindrome strictly inside the reference: lengths are equal
      by reflection, copy with no comparisons;
    * mirror touching or crossing the reference's left edge: only the
      stretch up to ``right`` is guaranteed, so expansion resumes there.

    Centers beyond the reference start from the center itself (one real
    symbol when ``j`` is odd). A radius always shares the parity of its
    center, so a known palindrome ends on boundaries at both sides, and
    expansion walks the original symbols ``text[lo]``, ``text[hi]`` just
    outside it. Boundaries match by definition and are never probed;
    only real symbol tests are counted. Every one of them either ends a
    center's expansion or pushes ``right`` outward, which bounds the
    total at ``4 * (N + 1)``.
    """
    n = len(text)
    radii = [0] * (2 * n + 1)
    comparisons = 0
    ref = right = 0
    for j in range(2 * n + 1):
        if j <= right:
            k = 2 * ref - j
            if k - radii[k] > 2 * ref - right:
                radii[j] = radii[k]
                continue
            radius = right - j
        else:
            radius = j & 1
        lo = ((j - radius) >> 1) - 1
        hi = (j + radius) >> 1
        while lo >= 0 and hi < n:
            comparisons += 1
            if text[lo] != text[hi]:
                break
            lo -= 1
            hi += 1
        radius = hi - lo - 1
        radii[j] = radius
        if j + radius > right:
            ref, right = j, j + radius
    stats = CompareStats()
    stats.comparisons = comparisons
    return radii, stats


def argmax(radii: RadiiTable) -> int:
    """Index of the maximum entry; the leftmost wins ties."""
    return radii.index(max(radii))


def result_from_radii(radii: RadiiTable) -> LpsResult:
    """The longest palindrome a radii table describes, from any solver.

    Among equally long palindromes the one with the smallest start index
    is returned, a consequence of the leftmost argmax over centers.
    """
    center = argmax(radii)
    length = radii[center]
    return LpsResult(span=to_original_span(center, length), length=length, center=center)


def longest_palindrome(text: Text) -> LpsResult:
    """Longest palindromic substring of ``text``, leftmost on ties."""
    return result_from_radii(compute_radii(text)[0])
