"""Longest palindromic substring toolkit.

The core engine runs Manacher's scan over virtual augmented-string
indices, so it never builds the dummy-interleaved buffer. The package
exports that engine only; the reference solvers (:mod:`lps.reference`),
the seeded generator (:mod:`lps.generator`) and the bench harness
(:mod:`lps.bench`) are imported from their own modules. See the ``lps``
command for the CLI.

Importing the package plugs the compiled kernel (:mod:`lps.native`) into
:mod:`lps.core`, so ``compute_radii`` and ``longest_palindrome`` run it on
``str`` and ``bytes`` where it can be built.
"""

from . import core, native
from .core import CompareStats, LpsResult, Span, compute_radii, longest_palindrome

core.kernel = native

__version__ = "0.1.0"

__all__ = ["CompareStats", "LpsResult", "Span", "compute_radii", "longest_palindrome"]
