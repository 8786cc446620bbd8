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
All operations are pure and every record is an immutable value: each
solver builds its :class:`CompareStats` once, with its comparison count and
its leftmost best center.
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
    "Unsupported",
    "UsageError",
    "argmax",
    "compute_radii",
    "kernel",
    "longest_palindrome",
    "python_radii",
    "result_from_radii",
    "to_original_span",
]


# The compiled kernel, or None: the package sets it to :mod:`lps.native`,
# which then runs compute_radii and longest_palindrome on the texts it
# takes. Loaded on its own, this module is the pure-Python engine.
kernel = None


class Unsupported(Exception):
    """A solver cannot run this text here; the message says why."""


class UsageError(ValueError):
    """A parameter value outside its allowed range; the CLI exits 64 on it."""


class CompareStats(NamedTuple):
    """What one computation did: ``comparisons`` counts its real
    symbol-equality tests; ``center`` is the leftmost center of the longest
    palindrome, which every solver reports."""

    comparisons: int
    center: int


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


def to_original_span(center: int, radius: int) -> Span:
    """Map an augmented center and radius to the original-string span.

    ``center`` and ``radius`` must share parity, which makes both halves
    of ``((center - radius) / 2, (center + radius) / 2)`` exact.
    """
    return Span((center - radius) // 2, (center + radius) // 2)


def compute_radii(text: Text, *, fill: bool = True) -> tuple[RadiiTable, CompareStats]:
    """Palindrome lengths for all 2N+1 centers: the default engine.

    ``str`` and ``bytes`` run on the compiled kernel where it loads (a
    memoryview over the table the kernel allocates: format ``B``, one
    byte per center, if every radius fits 255, else ``i``, four), anything
    else on :func:`python_radii` (a ``list``). Both give the same radii,
    comparison count and center. With ``fill=False`` the kernel leaves
    unwritten the entries right of a best palindrome that reaches the end
    of the text, and its radii read each from its mirror
    (:class:`lps.radii_text.MirrorTable`): on unary text, half the table.
    """
    if kernel is not None and kernel.takes(text):
        return kernel.compute_radii(text, fill=fill)
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
    return radii, CompareStats(comparisons, best)


def argmax(radii: RadiiTable, stats: CompareStats) -> int:
    """Index of the maximum entry of ``radii``; the leftmost wins ties.

    Every solver reports it as ``stats.center``, so no pass over the
    table is made here.
    """
    return stats.center


def result_from_radii(radii: RadiiTable, stats: CompareStats) -> LpsResult:
    """The longest palindrome a solver's ``(radii, stats)`` pair describes.

    Among equally long palindromes the one with the smallest start index
    is returned, a consequence of the leftmost best center.
    """
    center = argmax(radii, stats)
    length = radii[center]
    return LpsResult(span=to_original_span(center, length), length=length, center=center)


def longest_palindrome(text: Text) -> LpsResult:
    """Longest palindromic substring of ``text``, leftmost on ties.

    Where :func:`compute_radii` would run the compiled kernel, this runs
    its ``longest_palindrome``, which leaves unwritten the entries of the
    table right of a best palindrome that reaches the end of the text: on
    unary text, half the table. Anything else takes the result from
    :func:`compute_radii`'s table.
    """
    if kernel is not None and kernel.takes(text):
        return kernel.longest_palindrome(text)
    return result_from_radii(*compute_radii(text))
