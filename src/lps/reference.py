"""Ground-truth solvers: a quadratic naive oracle and the literal
augmented-string Manacher.

Both exist to check and benchmark the index-mapped engine in
:mod:`lps.core`. The naive oracle expands around every center directly in
original index space and shares no machinery with the linear engine,
which is what makes it trustworthy. The augmented solver materializes the
real 2N+1-symbol buffer the core deliberately avoids, so the two can be
compared for both output and cost.
"""

from __future__ import annotations

from collections.abc import Callable

from . import core, native
from .core import CompareStats, RadiiTable, Text, Unsupported

# the longest text the naive oracle runs, read at each call
ORACLE_CAP = 100_000

__all__ = [
    "ORACLE_CAP",
    "SOLVERS",
    "augment",
    "augmented_radii",
    "choose_dummy",
    "naive_radii",
]


def _naive_scan(text: Text) -> tuple[list[int], int]:
    """Radii table by symmetric expansion around every center, and the
    number of symbol comparisons it made.

    Quadratic in the worst case, hence :data:`ORACLE_CAP`. Works with two
    plain indices walking outward in the original string.
    """
    n = len(text)
    if n > ORACLE_CAP:
        raise Unsupported(f"text length {n} exceeds oracle cap {ORACLE_CAP}")
    radii = [0] * (2 * n + 1)
    comparisons = 0
    for mid in range(n):
        # character center: odd palindrome, augmented index 2*mid + 1
        lo, hi, length = mid - 1, mid + 1, 1
        while lo >= 0 and hi < n:
            comparisons += 1
            if text[lo] != text[hi]:
                break
            length += 2
            lo -= 1
            hi += 1
        radii[2 * mid + 1] = length
    for mid in range(n + 1):
        # boundary center: even palindrome, augmented index 2*mid
        lo, hi, length = mid - 1, mid, 0
        while lo >= 0 and hi < n:
            comparisons += 1
            if text[lo] != text[hi]:
                break
            length += 2
            lo -= 1
            hi += 1
        radii[2 * mid] = length
    return radii, comparisons


def naive_radii(text: Text) -> RadiiTable:
    """The radii table of the naive oracle, without its stats."""
    return _naive_scan(text)[0]


def _naive_solver(text: Text) -> tuple[RadiiTable, CompareStats]:
    """The naive oracle's table, comparison count and leftmost best center;
    the center costs a pass over the table, which :func:`naive_radii` skips."""
    radii, comparisons = _naive_scan(text)
    return radii, CompareStats(comparisons, radii.index(max(radii)))


def choose_dummy(text: Text):
    """First symbol, scanning from the minimum upward, absent from ``text``.

    Candidates are NUL, then successive code points for ``str``; byte
    value 0, then successive values for ``bytes``. The fixed order makes
    both the result and the failure deterministic. That failure
    (:class:`lps.core.Unsupported`) is the string-augmentation failure
    mode index mapping does not have. Any other sequence, such as a tuple
    of tokens, gets a fresh ``object()``, which equals no token.
    """
    if isinstance(text, (bytes, bytearray)):
        seen = set(text)
        for value in range(256):
            if value not in seen:
                return value
        raise Unsupported("all 256 byte values occur in the text")
    if isinstance(text, str):
        seen = set(text)
        for value in range(0x110000):
            ch = chr(value)
            if ch not in seen:
                return ch
        raise Unsupported("every Unicode scalar value occurs in the text")
    return object()


def augment(text: Text, dummy) -> Text:
    """The augmented string for ``text``, 2N+1 symbols: ``dummy`` at the
    even positions and the symbols of ``text`` at the odd ones, as ``str``
    or ``bytes`` for those texts and as a tuple for any other sequence.

    ``dummy`` must not occur in ``text``, otherwise results downstream
    would be spurious.
    """
    if dummy in text:
        raise ValueError("dummy symbol occurs in the text")
    size = 2 * len(text) + 1
    if isinstance(text, (bytes, bytearray)):
        buf = bytearray(size)
        buf[0::2] = bytes([dummy]) * (len(text) + 1)
        buf[1::2] = text
        return bytes(buf)
    if isinstance(text, str):
        if not isinstance(dummy, str) or len(dummy) != 1:
            raise ValueError("dummy for a str text must be a single character")
        return dummy + dummy.join(text) + dummy if text else dummy
    buf = [dummy] * size
    buf[1::2] = list(text)
    return tuple(buf)


def augmented_radii(text: Text) -> tuple[RadiiTable, CompareStats]:
    """Manacher's scan over the literal augmented string.

    Every position is treated uniformly, so dummy-vs-dummy tests count in
    the stats; the surplus over the core engine's count is exactly the
    overhead that virtual augmentation removes. A palindrome's radius in
    the augmented string equals its length in the original, so the
    returned table matches :func:`lps.core.python_radii` entrywise, and
    the scan keeps the leftmost best center the way that engine does.
    """
    dummy = choose_dummy(text)
    symbols = augment(text, dummy)
    size = len(symbols)
    radii = [0] * size
    comparisons = 0
    ref = 0
    right = 0
    best = best_len = 0
    for i in range(size):
        radius = min(right - i, radii[2 * ref - i]) if i < right else 0
        p, q = i - radius - 1, i + radius + 1
        while p >= 0 and q < size:
            comparisons += 1
            if symbols[p] != symbols[q]:
                break
            radius += 1
            p -= 1
            q += 1
        radii[i] = radius
        if radius > best_len:
            best, best_len = i, radius
        if i + radius > right:
            ref = i
            right = i + radius
    return radii, CompareStats(comparisons, best)


# Every implementation the CLI and the bench run, by name, in report order.
# Each takes only the text and returns (radii, stats), or raises
# core.Unsupported for a text it cannot run here: naive above ORACLE_CAP,
# augmented without a free dummy, native on any text native.takes is
# false for (a token tuple, a text over its MAX_SYMBOLS, any text where
# the kernel cannot be built). Entries look their solver up at call time,
# so a wrapper installed on e.g. ``core.python_radii`` or
# ``augmented_radii`` sees registry calls too. "indexmap" is the Python
# scan; "native" is the compiled kernel.
SOLVERS: dict[str, Callable[[Text], tuple[RadiiTable, CompareStats]]] = {
    "naive": _naive_solver,
    "augmented": lambda text: augmented_radii(text),
    "indexmap": lambda text: core.python_radii(text),
    "native": lambda text: native.compute_radii(text),
}
