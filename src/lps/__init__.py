"""Longest palindromic substring toolkit.

The core engine runs Manacher's scan over virtual augmented-string
indices, so it never builds the dummy-interleaved buffer. Reference
implementations (quadratic naive, materialized augmentation) back it up
for testing and benchmarking, and a seeded generator plus a bench harness
round out the package. See the ``lps`` command for the CLI.

Importing the package plugs the compiled kernel (:mod:`lps.native`) into
:mod:`lps.core`, so ``compute_radii`` and ``longest_palindrome`` run it on
``str`` and ``bytes`` where it can be built.
"""

from . import core, native
from .core import (
    CompareStats,
    LpsResult,
    Span,
    compute_radii,
    longest_palindrome,
)
from .generator import GenSpec, InvalidAlphabet, UsageError, gen_text
from .reference import (
    DummyUnavailable,
    OracleCapExceeded,
    augment,
    augmented_lps,
    augmented_radii,
    choose_dummy,
    naive_lps,
    naive_radii,
)

core.kernel = native

__version__ = "0.1.0"

__all__ = [
    "CompareStats",
    "DummyUnavailable",
    "GenSpec",
    "InvalidAlphabet",
    "LpsResult",
    "OracleCapExceeded",
    "Span",
    "UsageError",
    "augment",
    "augmented_lps",
    "augmented_radii",
    "choose_dummy",
    "compute_radii",
    "gen_text",
    "longest_palindrome",
    "naive_lps",
    "naive_radii",
]
