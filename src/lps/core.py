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
    "expand",
    "get_left_bound",
    "get_right_bound",
    "is_mismatch",
    "longest_palindrome",
    "palength",
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


def palength(i: int, radii: RadiiTable) -> int:
    """Length, in original symbols, of the palindrome centered at ``i``."""
    return radii[i]


def to_original_span(center: int, radius: int) -> Span:
    """Map an augmented center and radius to the original-string span.

    ``center`` and ``radius`` must share parity, which makes both halves
    of ``((center - radius) / 2, (center + radius) / 2)`` exact.
    """
    return Span((center - radius) // 2, (center + radius) // 2)


def is_mismatch(text: Text, p: int, q: int, stats: CompareStats) -> bool:
    """Probe one symmetric extension step at augmented positions ``p``, ``q``.

    True means the step is blocked: an index fell outside ``[0, 2N]``, or
    ``p`` and ``q`` address real symbols that differ. Even positions are
    boundaries and match by definition at zero cost; only a real symbol
    test increments ``stats.comparisons``. ``p`` and ``q`` share parity
    whenever they are symmetric about a common center, so only ``p`` is
    inspected.
    """
    if p < 0 or q > 2 * len(text):
        return True
    if p % 2 == 0:
        return False
    stats.comparisons += 1
    return text[(p - 1) // 2] != text[(q - 1) // 2]


def expand(text: Text, center: int, start_radius: int, stats: CompareStats) -> int:
    """Grow a known palindrome at ``center`` to its maximal radius.

    ``start_radius`` must already describe a palindrome at ``center`` and
    share its parity. Each step probes one position further out on both
    sides; boundary steps are free, so the counter moves only on real
    symbol comparisons.
    """
    radius = start_radius
    while not is_mismatch(text, center - radius - 1, center + radius + 1, stats):
        radius += 1
    return radius


def compute_radii(text: Text) -> tuple[RadiiTable, CompareStats]:
    """Palindrome lengths for all 2N+1 centers, in linear time.

    Scans centers left to right, keeping the reference center whose
    palindrome currently reaches farthest right. A center ``j`` inside
    the reference palindrome first consults its mirror image:

    * mirror palindrome strictly inside the reference: lengths are equal
      by reflection, copy with no comparisons;
    * mirror touching or crossing the reference's left edge: only the
      stretch up to the reference's right bound is guaranteed, so
      expansion resumes from there.

    Centers beyond the reference expand from scratch. Every real symbol
    comparison either terminates one center's expansion or pushes the
    right frontier outward, which bounds the total at ``4 * (N + 1)``.
    """
    size = 2 * len(text) + 1
    radii = [0] * size
    stats = CompareStats()
    ref = 0
    for j in range(size):
        ref_right = get_right_bound(ref, radii)
        if j > ref_right:
            # Outside the reference palindrome: only the center itself
            # (one real symbol when j is odd) is known palindromic.
            radius = expand(text, j, j % 2, stats)
        else:
            k = to_mirror_image(ref, j)
            if get_left_bound(k, radii) > get_left_bound(ref, radii):
                radii[j] = radii[k]
                continue
            radius = expand(text, j, ref_right - j, stats)
        radii[j] = radius
        if j + radius > ref_right:
            ref = j
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
