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

from importlib import import_module

from . import core, native
from .core import (
    CompareStats,
    LpsResult,
    Span,
    compute_radii,
    longest_palindrome,
)

core.kernel = native

# Names from the generator and the reference solvers, which ``lps find``
# and ``lps radii`` never run: each module is imported on first access
# to one of its names (PEP 562), not with the package.
_LAZY = {
    **dict.fromkeys(("GenSpec", "InvalidAlphabet", "UsageError", "gen_text"), "generator"),
    **dict.fromkeys(
        (
            "DummyUnavailable",
            "OracleCapExceeded",
            "augment",
            "augmented_lps",
            "augmented_radii",
            "choose_dummy",
            "naive_lps",
            "naive_radii",
        ),
        "reference",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


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
