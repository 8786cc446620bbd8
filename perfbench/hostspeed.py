"""Scale a run's timings by how fast the host ran during that run.

On a host whose cores are shared with other tenants, the same pure-Python
work runs up to 40% slower in some stretches than in others, and a
stretch often outlasts a whole benchmark run. Measured on a 2-core x86_64
Linux VM at 1e6 random symbols: every timing of one 30 s run read 17-31%
above the median of five such runs, and CPU time equalled wall time, so
the host CPU itself ran slower; the guest was not descheduled. Unscaled,
such stretches dominate the spread between runs.

:class:`HostSpeed` times a fixed pure-Python calibration loop between
samples, at most once per ``CAL_INTERVAL_S``. :meth:`HostSpeed.factor` is
``CAL_NOMINAL_S`` over the run's median calibration time; multiplying a
timing by it gives seconds on a host where the loop takes
``CAL_NOMINAL_S``. One factor per run, from many calibrations, averages
out the loop's own jitter (about 10% per 0.1 s pass).
"""

from __future__ import annotations

import statistics
import time

CAL_INTERVAL_S = 1.0
CAL_NOMINAL_S = 0.09  # about the loop's time on the host above; changing it rescales every timing


def _calibration_text(n: int) -> str:
    # fixed pseudo-random ternary text: short palindromes, so the loop is linear
    x, symbols = 1, []
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        symbols.append("abc"[x % 3])
    return "".join(symbols)


def calibration_seconds(s: str) -> float:
    """Seconds for one pass of the calibration loop over ``s``: naive
    palindrome expansion at every symbol, the kind of work the ``lps``
    engine does."""
    n = len(s)
    radii = [0] * n
    start = time.perf_counter()
    for i in range(1, n - 1):
        r = 0
        while i - r > 0 and i + r + 1 < n and s[i - r - 1] == s[i + r + 1]:
            r += 1
        radii[i] = r
    return time.perf_counter() - start


class HostSpeed:
    def __init__(self) -> None:
        self._text = _calibration_text(250_000)
        self._last = None
        self.calibrations: list[float] = []

    def mark(self) -> None:
        """Time the calibration loop, unless it ran less than CAL_INTERVAL_S ago."""
        if self._last is None or time.perf_counter() - self._last >= CAL_INTERVAL_S:
            self.calibrations.append(calibration_seconds(self._text))
            self._last = time.perf_counter()

    def factor(self) -> float:
        return CAL_NOMINAL_S / statistics.median(self.calibrations)
