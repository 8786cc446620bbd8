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
from typing import NamedTuple, TypeAlias

Text: TypeAlias = Sequence
RadiiTable: TypeAlias = Sequence[int]

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
    "kernel",
    "longest_palindrome",
    "python_radii",
    "result_from_radii",
    "to_mirror_image",
    "to_original_span",
]


# The compiled kernel, or None: the package sets it to :mod:`lps.native`,
# which then runs compute_radii on the texts it takes. Loaded on its own,
# this module is the pure-Python engine.
kernel = None


class CompareStats:
    """What one computation did: ``comparisons`` counts its real
    symbol-equality tests; ``center`` is the leftmost center of the longest
    palindrome where the engine found it during the scan, else ``None``."""

    __slots__ = ("comparisons", "center")

    def __init__(self) -> None:
        self.comparisons = 0
        self.center = None

    def __repr__(self) -> str:
        return f"CompareStats(comparisons={self.comparisons}, center={self.center})"


class Span(NamedTuple):
    """Half-open ``[start, end)`` interval in original-string index space.

    A tuple: ``start, end = span`` unpacks it and ``len(span)`` is 2; the
    interval's length is :attr:`length`."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def substring(self, text: Text) -> Text:
        """The slice of ``text`` this span covers."""
        return text[self.start : self.end]


class LpsResult(NamedTuple):
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
    """Palindrome lengths for all 2N+1 centers: the default engine.

    ``str`` and ``bytes`` run on the compiled kernel where it loads (an
    ``array('i')`` table), anything else on :func:`python_radii` (a
    ``list``). Both give the same radii, comparison count and center.
    """
    if kernel is not None and kernel.takes(text):
        return kernel.compute_radii(text)
    return python_radii(text)


def python_radii(text: Text) -> tuple[RadiiTable, CompareStats]:
    """Palindrome lengths for all 2N+1 centers, in linear time, in Python.

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
    only real symbol tests are counted. For N >= 2 there are at most
    ``3 * N - 4`` of them (N <= 1 makes none):

    * successes <= N - 1. Each one moves ``right`` two further, ``right``
      never passes 2N, and its move to 2 at ``j = 1`` costs no test;
    * failures <= 2N - 3. A failure ends its center's expansion, so each
      center fails at most once, and centers 0, 1, 2N - 1 and 2N never
      probe: no symbol lies beyond them on one side.

    The scan also keeps the leftmost center of the longest palindrome, as
    ``stats.center``. A mirror copy never exceeds the radius of the
    earlier center it copies, so only an expansion can beat the best.
    """
    n = len(text)
    radii = [0] * (2 * n + 1)
    comparisons = 0
    ref = right = 0
    best = best_len = 0
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
        if radius > best_len:
            best, best_len = j, radius
        if j + radius > right:
            ref, right = j, j + radius
    stats = CompareStats()
    stats.comparisons = comparisons
    stats.center = best
    return radii, stats


def argmax(radii: RadiiTable, stats: CompareStats | None = None) -> int:
    """Index of the maximum entry; the leftmost wins ties.

    The index-mapped engines find it during their scan and report it as
    ``stats.center``; for tables without one (the naive and augmented
    solvers) it is ``radii.index(max(radii))``. Leaving out ``stats``
    therefore costs a Python pass over the whole table, which boxes every
    entry of a kernel ``array('i')``: about 65 ms at 10**6 random symbols
    against 20-25 ms for the kernel's whole scan (2-core x86_64 VM,
    CPython 3.11). Pass the engine's ``stats``.
    """
    if stats is not None and stats.center is not None:
        return stats.center
    return radii.index(max(radii))


def result_from_radii(radii: RadiiTable, stats: CompareStats | None = None) -> LpsResult:
    """The longest palindrome a solver's ``(radii, stats)`` pair describes.

    The center comes from :func:`argmax`: the engine's own ``stats.center``
    when it reported one, else a Python pass over all of ``radii``, so
    callers holding an engine's pair should pass both. Among equally long
    palindromes the one with the smallest start index is returned, a
    consequence of the leftmost argmax over centers.
    """
    center = argmax(radii, stats)
    length = radii[center]
    return LpsResult(span=to_original_span(center, length), length=length, center=center)


def longest_palindrome(text: Text) -> LpsResult:
    """Longest palindromic substring of ``text``, leftmost on ties."""
    return result_from_radii(*compute_radii(text))
