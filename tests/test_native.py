"""Tests for the compiled kernel (lps.native), its radii text (lps.radii_text)
and the default engine.

Radii and counts are checked against the Python engine here and in the
four-way sweeps of test_acceptance.py, test_properties.py and
test_registry.py. The build and fallback tests run ``python -m lps`` on a
fresh copy of the package, so each starts with no compiled library.
"""

from __future__ import annotations

import array
import collections
import ctypes
import functools
import hashlib
import io
import itertools
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import sysconfig
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from pathlib import Path

import pytest

import lps
from lps import cli, core, native, radii_text
from lps.bench import IMPLS
from lps.generator import GenSpec, gen_text

PACKAGE = Path(lps.__file__).resolve().parent


def test_exact_counts_at_one_million():
    text = gen_text(GenSpec(10**6, 3, 1))
    radii, stats = native.compute_radii(text)
    assert stats.comparisons == 2_036_777
    expected, _ = core.python_radii(text)
    assert list(radii) == expected
    kernel = native.load()
    assert kernel.longest(text) == (2_036_777, stats.center, expected[stats.center])
    # unary text's best palindrome reaches the end at its center, 10^6
    assert kernel.longest("a" * 10**6) == (999_999, 10**6, 10**6)
    _, stats = native.compute_radii("a" * 10**6)
    assert stats.comparisons == 999_999
    worst = "a" + "b" * (10**6 - 2) + "c"  # the worst case, 3n - 6
    _, stats = native.compute_radii(worst)
    assert stats.comparisons == 2_999_994
    assert kernel.longest(worst) == (2_999_994, stats.center, 10**6 - 2)


def test_memory_does_not_depend_on_content():
    # the kernel reads every kind of str and bytes in place: no symbol copy
    length = 10**6
    ternary = gen_text(GenSpec(length, 3, 5))
    texts = {
        "ascii": ternary,
        "latin-1": "\xe9" * length,
        "bmp": ("\u0101\u0102" * length)[:length],
        "astral": ternary.translate({ord("a"): "\U0001f600"}),
        "bytes": b"ab" * (length // 2),
    }
    native.load()  # build and load outside the traced calls
    table = 4 * (2 * length + 1)  # the radii table, allocated for int32
    buffer = native.load().FORMAT_BYTES * radii_text.CHUNK  # write_table's output buffer

    def scan(text):
        return lambda: native.compute_radii(text)

    def write(text):
        radii = native.compute_radii(text)[0]  # the one-byte and the int32 tables alike
        return lambda: radii_text.write_table(radii, len)

    def longest(text):
        return lambda: native.longest_palindrome(text)  # the same allocation, freed unfilled

    for call, expected in ((scan, table), (write, buffer), (longest, table)):
        peaks = []
        for text in texts.values():
            assert len(text) == length
            run = call(text)
            tracemalloc.start()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert max(peaks) - min(peaks) < 1024
        assert expected <= min(peaks) and max(peaks) < expected + 64 * 1024


@pytest.mark.parametrize("n", [3, 4, 10, 1000])
def test_worst_case_family_costs_3n_minus_6(n):
    text = "a" + "b" * (n - 2) + "c"
    for engine in (core.python_radii, native.compute_radii):
        assert engine(text)[1].comparisons == 3 * n - 6


def test_worst_case_is_3n_minus_6_over_every_ternary_string():
    for n in range(3, 11):
        worst = 0
        for symbols in itertools.product("abc", repeat=n):
            text = "".join(symbols)
            comparisons = core.python_radii(text)[1].comparisons
            assert native.compute_radii(text)[1].comparisons == comparisons, text
            worst = max(worst, comparisons)
        assert worst == 3 * n - 6, n


def test_worst_case_is_2n_minus_3_over_every_binary_string():
    for n in range(2, 17):
        worst = max(native.compute_radii(bytes(symbols))[1].comparisons for symbols in itertools.product(b"ab", repeat=n))
        assert worst == 2 * n - 3, n
        assert native.compute_radii("a" * (n - 1) + "b")[1].comparisons == 2 * n - 3


def test_default_engine_runs_the_kernel_on_str_and_bytes_only():
    assert core.kernel is native
    # one byte per center while every radius fits 255, four from the first that does not
    rows = [("bananas", "B", 1), ("b\xe4n\xe4n\xe4s", "B", 1), (b"bananas", "B", 1)]
    rows += [("a" * 256, "i", 4), (b"a" * 256, "i", 4)]
    for text, format, itemsize in rows:
        radii, stats = core.compute_radii(text)
        assert isinstance(radii, memoryview) and (radii.format, radii.itemsize) == (format, itemsize)
        assert list(radii) == core.python_radii(text)[0]
        assert stats.comparisons == core.python_radii(text)[1].comparisons
    radii, stats = core.compute_radii(tuple("bananas"))
    assert radii == core.python_radii("bananas")[0] and stats.comparisons == 11


def test_long_texts_stay_on_the_python_engine(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(native, "MAX_SYMBOLS", 6)
    # the kernel itself refuses, naming its limit
    with pytest.raises(core.Unsupported, match="at most 6 symbols, got 7"):
        native.compute_radii("bananas")
    # the default engine routes the text to the Python scan
    radii, stats = core.compute_radii("bananas")
    assert radii == core.python_radii("bananas")[0] and isinstance(radii, list)
    assert stats == core.CompareStats(11, 7)
    # an explicit --impl native does not run another engine in its place
    path = tmp_path / "long.txt"
    path.write_text("bananas")
    assert cli.main(["find", "--impl", "native", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lps: error: the compiled kernel takes at most 6 symbols, got 7\n"


def test_table_sizes_fit_a_py_ssize_t():
    # the kernel allocates 4 bytes per center for the table and
    # FORMAT_BYTES per center at most for write_table's output buffer
    assert native.load().FORMAT_BYTES * (2 * native.MAX_SYMBOLS + 1) <= sys.maxsize


def test_takes_notes_a_kernel_that_cannot_load_once(monkeypatch, capsys):
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_error", core.Unsupported("cannot load the compiled kernel: simulated"))
    monkeypatch.setattr(native, "_noted", False)
    assert not native.takes(tuple("bananas"))  # refused for its type: no note
    assert capsys.readouterr().err == ""
    assert not native.takes("bananas") and not native.takes(b"bananas")
    note = "lps: note: cannot load the compiled kernel: simulated; using the pure-Python indexmap engine\n"
    assert capsys.readouterr().err == note
    radii, stats = core.compute_radii("bananas")
    assert radii == core.python_radii("bananas")[0] and stats == core.CompareStats(11, 7)
    assert capsys.readouterr().err == ""


def _written(table) -> bytes:
    out = io.BytesIO()
    radii_text.write_table(table, out.write)
    return out.getvalue()


def _kernel_written(text) -> tuple[bytes, core.CompareStats]:
    """What the kernel writes of the table it scans of ``text``, and its stats."""
    radii, stats = native.compute_radii(text)
    return _written(radii), stats


def _write_radii(text, write) -> None:
    """Pass ``text``'s radii to ``write`` as lps radii does: the default
    engine's table, whose tail the kernel leaves to the mirrors."""
    radii_text.write_table(core.compute_radii(text, fill=False)[0], write)


def _radii_written(text) -> bytes:
    """What lps radii writes of ``text``."""
    out = io.BytesIO()
    _write_radii(text, out.write)
    return out.getvalue()


def _joined(values) -> bytes:
    return (",".join(map(str, values)) + "\n").encode("ascii")


TABLE_SIZES = [1, radii_text.CHUNK - 1, radii_text.CHUNK, radii_text.CHUNK + 1]


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_radii_output_streams_whole_table(size):
    # a scan's table has 2n+1 entries, an odd count, so the even size is
    # reached as a table of size - 1 against a chunk one entry shorter
    n = (size - 1) // 2
    text = "a" * n  # size 1 is the empty text's table, [0]
    chunk = radii_text.CHUNK - (size - (2 * n + 1))
    radii, stats = native.compute_radii(text)
    out = io.BytesIO()
    native.load().write_table(radii, out.write, chunk)
    expected, expected_stats = core.python_radii(text)
    assert (out.getvalue(), stats) == (_joined(expected), expected_stats)


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_radii_output_streams_whole_list(size):
    table = list(range(size))
    assert _written(table) == _joined(table)


# every digit count and sign, for the str join of the other engines' tables
_POWER_EDGES = [10**k + d for k in range(1, 10) for d in (-1, 0, 1)]
_RANDOM_INT32 = random.Random(9).choices(range(-(2**31), 2**31), k=20_000)
FORMAT_EDGES = (
    [0, 9, 10, 99, 100, 2**31 - 1, -1, -(2**31)]
    + _POWER_EDGES
    + [-v for v in _POWER_EDGES]
    + [10_000, 20_000_305, 100_000_000, 1_000_000_007]
    + _RANDOM_INT32
)


@pytest.mark.parametrize("kind", ["kernel", "list"])
def test_radii_output_matches_str_at_digit_edges(kind):
    if kind == "list":
        assert _written(FORMAT_EDGES) == _joined(FORMAT_EDGES)
        return
    # a scan writes no negative radius and none past n. Unary text of
    # 10^6 + 1 symbols writes every radius 0..10^6 + 1: each digit count
    # up to 7, a leading group of 1 to 4 digits alone (0..9999) and of 1 to
    # 3 digits before a padded group (10^4..10^6 + 1), and the group edges
    # 9999, 10^4, 10^4 + 1. That is every line of the formatter: a value
    # of three groups only recurses once more.
    text = "a" * (10**6 + 1)
    radii, stats = native.compute_radii(text)
    assert set(radii) == set(range(len(text) + 1))
    assert _kernel_written(text) == (_joined(radii), stats)


WRITE_TEXTS = {
    "ascii": lambda n: gen_text(GenSpec(n, 3, n)),
    "latin-1": lambda n: gen_text(GenSpec(n, 2, n)).translate({ord("a"): "\xe9"}),
    "bmp": lambda n: gen_text(GenSpec(n, 3, n)).translate({ord("a"): "\u0101"}),
    "astral": lambda n: gen_text(GenSpec(n, 3, n)).translate({ord("a"): "\U0001f600"}),
    "bytes": lambda n: gen_text(GenSpec(n, 4, n)).encode(),
    "unary": lambda n: "a" * n,
}
# the table sizes 2n+1 around one and two chunks; the empty text's is 1, one symbol's 3
WRITE_LENGTHS = [0, 1, radii_text.CHUNK // 2 - 1, radii_text.CHUNK // 2, radii_text.CHUNK]


def _garbage(size: int) -> None:
    """Leave ``size`` bytes of 0xff where malloc hands out its next block of
    that size; twice, because glibc serves the first large block from a
    fresh zeroed mapping and only raises its mmap threshold when it is freed."""
    libc = ctypes.CDLL(None)
    libc.malloc.restype = ctypes.c_void_p
    libc.malloc.argtypes = [ctypes.c_size_t]
    libc.free.argtypes = [ctypes.c_void_p]
    for _ in range(2):
        block = libc.malloc(size)
        ctypes.memset(block, 0xFF, size)
        libc.free(block)


@pytest.mark.parametrize("n", WRITE_LENGTHS)
@pytest.mark.parametrize("kind", WRITE_TEXTS)
def test_scan_matches_the_python_engine(kind, n):
    # scan's table is not zero-filled either
    text = WRITE_TEXTS[kind](n)
    expected, stats = core.python_radii(text)
    _garbage(4 * (2 * n + 1))
    radii, native_stats = native.compute_radii(text)
    assert (list(radii), native_stats) == (expected, stats)


def _random(alphabet: int):
    return lambda n: gen_text(GenSpec(n, alphabet, n))


def _crossing(shift: int):
    """Random text with a palindrome of n/4 symbols centered n/shift right
    of the middle (left for a negative shift), so it crosses the split point."""

    def crossing(n: int) -> str:
        text, center, half = gen_text(GenSpec(n, 3, n)), n // 2 + n // shift, n // 8
        left = text[center - half : center]
        return text[: center - half] + left + left[::-1] + text[center + half :]

    return crossing


def _twins(n: int) -> str:
    """Random text with two equally long palindromes, one in each half,
    each fenced by d and e so neither extends further."""
    text, half = gen_text(GenSpec(n, 3, n)), n // 16
    twin = "d" + text[:half] + text[:half][::-1] + "e"
    for start in (n // 4, 3 * n // 4):
        text = text[:start] + twin + text[start + len(twin) :]
    return text


def _fibonacci(n: int) -> str:
    shorter, word = "a", "ab"
    while len(word) < n:
        shorter, word = word, word + shorter
    return word[:n]


def _mirrored(n: int) -> str:
    """Random text followed by its mirror image, one symbol between them where n is odd."""
    half = gen_text(GenSpec(n // 2, 3, n))
    return half + half[: n & 1] + half[::-1]


SPLIT_TEXTS = {
    "random-2": _random(2),
    "random-3": _random(3),
    "random-4": _random(4),
    "crossing-left": _crossing(-16),  # the sequential scan's reference until past its end
    "crossing-right": _crossing(16),  # the scans agree up to its center, where the helper stops at its floor
    "twins": _twins,  # the left one is the leftmost longest
    "period-2": lambda n: ("ab" * n)[:n],  # the helper never resynchronizes
    "fibonacci": _fibonacci,
    "thue-morse": lambda n: "".join("ab"[i.bit_count() & 1] for i in range(n)),
    "unary": lambda n: "a" * n,  # no split point: no helper
    "a-b-c": lambda n: "a" + "b" * (n - 2) + "c",  # no split point either
    # the run is the longest palindrome and ends the text: it widens the table, then fills the tail from the mirror
    "suffix-run": lambda n: gen_text(GenSpec(n - n // 4, 3, n)) + "a" * (n // 4),
    # one palindrome: the table widens at its center, left of the split point, and the rest is tail
    "mirrored": _mirrored,
}
# radii, counts and centers do not depend on which symbols stand for a, b, ...
ENCODINGS = {
    "ascii": str,
    "latin-1": lambda text: text.translate({ord("a"): "\xe9"}),
    "bmp": lambda text: text.translate({ord("a"): "\u0101"}),
    "astral": lambda text: text.translate({ord("a"): "\U0001f600"}),
    "bytes": str.encode,
    "bytearray": lambda text: bytearray(text.encode()),
}


@pytest.mark.parametrize("length", ["below", "above", "1e5"])
@pytest.mark.parametrize("family", SPLIT_TEXTS)
def test_split_scan_matches_the_python_engine(family, length):
    # tables of SPLIT_SIZE entries and more are scanned on two threads
    split = native.load().SPLIT_SIZE
    n = {"below": split // 2 - 1, "above": split // 2, "1e5": 10**5}[length]
    assert (2 * n + 1 < split) == (length == "below")
    assert 2 * n + 1 > radii_text.CHUNK
    text = SPLIT_TEXTS[family](n)
    assert len(text) == n
    expected, stats = core.python_radii(text)
    for encoding, encode in ENCODINGS.items():
        _garbage(4 * (2 * n + 1))
        radii, native_stats = native.compute_radii(encode(text))
        assert native_stats == stats, encoding
        assert list(radii) == expected, encoding
        _garbage(4 * (2 * n + 1))
        assert _kernel_written(encode(text)) == (_joined(expected), stats), encoding
        _garbage(4 * (2 * n + 1))
        assert _radii_written(encode(text)) == _joined(expected), encoding
        _garbage(4 * (2 * n + 1))
        assert native.longest_palindrome(encode(text)) == core.result_from_radii(expected, stats), encoding


def _planted(length: int, at: float | None):
    """Random ternary text with a palindrome of ``length`` symbols centered
    at ``at`` n, fenced by d and e so it extends no further; with ``at``
    None, the palindrome ends the text, fenced by d."""

    def planted(n: int) -> str:
        text = gen_text(GenSpec(n, 3, n))
        half = text[: length // 2]
        fenced = "d" + half + text[length // 2] * (length & 1) + half[::-1] + "e"
        if at is None:
            return text[: n - len(fenced) + 1] + fenced[:-1]
        start = int(at * n) - len(fenced) // 2
        return text[:start] + fenced + text[start + len(fenced) :]

    return planted


WIDTH_TEXTS = {
    "radius-255": _planted(255, 1 / 4),  # the longest radius fits a byte: no widening
    "radius-256": _planted(256, 3 / 4),  # the first that does not
    "first-half": _planted(400, 1 / 4),  # the caller widens before m and drops the helper
    "late": _planted(300, 7 / 8),  # widens past the resynchronization, in a scan the caller took over
    "crossing": _planted(600, 1 / 2 + 1 / 3000),  # crosses m; cut at the helper's floor its radius fits a byte
    "crossing-helper": _planted(600, 1 / 2 + 1 / 500),  # crosses m; even cut, its radius outgrows the byte
    "suffix-255": _planted(255, None),  # ends the text: the tail is filled from the mirror at one byte
}


@pytest.mark.parametrize("length", ["below", "1e5"])
@pytest.mark.parametrize("family", WIDTH_TEXTS)
def test_table_widens_at_the_first_radius_above_255(family, length):
    # one byte per center until a radius exceeds 255, then four; on two
    # threads (1e5) the widening falls before, across and after the split
    split = native.load().SPLIT_SIZE
    n = {"below": split // 2 - 1, "1e5": 10**5}[length]
    text = WIDTH_TEXTS[family](n)
    assert len(text) == n
    expected, stats = core.python_radii(text)
    assert max(expected) == {"radius-255": 255, "radius-256": 256, "suffix-255": 255}.get(family, max(expected))
    format = "B" if max(expected) <= 255 else "i"
    assert (format == "B") == (family in ("radius-255", "suffix-255"))
    for encoding, encode in ENCODINGS.items():
        _garbage(4 * (2 * n + 1))
        radii, native_stats = native.compute_radii(encode(text))
        assert (radii.format, native_stats) == (format, stats), encoding
        assert list(radii) == expected, encoding
        _garbage(4 * (2 * n + 1))
        assert _kernel_written(encode(text)) == (_joined(expected), stats), encoding
        _garbage(4 * (2 * n + 1))
        assert _radii_written(encode(text)) == _joined(expected), encoding
        _garbage(4 * (2 * n + 1))
        assert native.longest_palindrome(encode(text)) == core.result_from_radii(expected, stats), encoding


@pytest.mark.parametrize("n", WRITE_LENGTHS)
@pytest.mark.parametrize("kind", WRITE_TEXTS)
def test_write_radii_matches_the_python_engine(kind, n):
    # the kernel's table is not zero-filled: an entry read before the scan
    # writes it (center 0 as its own mirror) would read the garbage
    text = WRITE_TEXTS[kind](n)
    assert len(text) == n
    expected = (_joined(core.python_radii(text)[0]), core.compute_radii(text)[1])
    _garbage(4 * (2 * n + 1))
    assert _kernel_written(text) == expected
    _garbage(4 * (2 * n + 1))
    assert _radii_written(text) == expected[0]


def _threads() -> int:
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_write_radii_runs_at_most_one_helper_thread():
    # the scan's helper is joined before compute_radii returns, and
    # write_table runs no thread of its own
    before = _threads()
    rows = {
        "one chunk": "a" * (radii_text.CHUNK // 2 - 1),
        "unary-1e6": "a" * 10**6,  # no split point: one thread
        "random-1e6": gen_text(GenSpec(10**6, 3, 1)),  # split: the helper scans the second half
    }
    for name, text in rows.items():
        for write_radii in (lambda text, write: radii_text.write_table(native.compute_radii(text)[0], write),
                            _write_radii):
            seen = []
            write_radii(text, lambda chunk: seen.append(_threads()))
            assert max(seen) == before, name
            assert _threads() == before, name


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_scan_joins_its_helper_thread():
    # scan holds the GIL from start to end, so no Python code runs while its
    # helper does: all that can be seen from here is that it was joined
    # and nothing is left running
    before = _threads()
    split = native.load().SPLIT_SIZE
    for n in (split // 2 - 1, split // 2, 10**6):  # below and above the split size
        native.compute_radii(gen_text(GenSpec(n, 3, n)))
        assert _threads() == before, n


class _Stop(Exception):
    pass


def test_write_radii_propagates_an_exception_from_write():
    rows = {
        "unary-1e6": "a" * 10**6,  # an int32 table
        "random-1e6": gen_text(GenSpec(10**6, 3, 1)),  # a one-byte table
    }
    for name, text in rows.items():
        calls = []

        def write(chunk):
            calls.append(len(chunk))
            if len(calls) == 2:
                raise _Stop

        radii, _ = native.compute_radii(text)
        with pytest.raises(_Stop):
            radii_text.write_table(radii, write)
        assert len(calls) == 2, name
        # the next write is whole, and no export of the table is left held
        assert _written(radii) == _joined(radii), name
        radii.release()
        # lps radii's write frees the table it scanned, 4(2n+1) bytes, and its output buffer
        calls.clear()
        tracemalloc.start()
        with pytest.raises(_Stop):
            _write_radii(text, write)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert len(calls) == 2, name
        assert held < 64 * 1024, name


def test_write_radii_lets_write_resize_a_bytearray_text():
    # the kernel releases the text's buffer before its first write: write
    # may resize the text, and the output is still the text's as scanned
    for text in (gen_text(GenSpec(10**5, 3, 1)).encode(), b"a" * 10**5):
        data = bytearray(text)
        out = io.BytesIO()

        def write(chunk):
            out.write(chunk)
            data[len(data) // 2 :] = b""  # a BufferError while the buffer is held

        _write_radii(data, write)
        assert len(data) < len(text) // 4
        assert out.getvalue() == _joined(core.python_radii(text)[0])


def test_write_radii_refuses_a_chunk_below_one():
    # the chunk is the kernel's argument; lps.radii_text always passes CHUNK
    calls = []
    with pytest.raises(ValueError, match="^chunk must be at least 1, got 0$"):
        native.load().write_table(native.compute_radii("ab")[0], calls.append, 0)
    radii = native.compute_radii("a" * 300, fill=False)[0]
    with pytest.raises(ValueError, match="^chunk must be at least 1, got -1$"):
        native.load().write_table(radii.table, calls.append, -1, radii.ref, radii.tail)
    assert calls == []


def test_write_table_refuses_a_tail_whose_mirrors_leave_the_table():
    # every tail entry j reads its mirror 2 ref - j, which lies in [0, ref)
    # for size / 2 <= ref < tail
    kernel = native.load()
    radii = native.compute_radii("a" * 300, fill=False)[0]
    assert (len(radii), radii.ref, radii.tail) == (601, 300, 301)
    calls = []
    for ref, tail in ((299, 301), (301, 301), (600, 300), (-1, 301), (300, 0), (300, -5)):
        with pytest.raises(ValueError, match="^the mirrors of a tail from"):
            kernel.write_table(radii.table, calls.append, 7, ref, tail)
    assert calls == []
    out = io.BytesIO()
    kernel.write_table(radii.table, out.write, 7, 300, 301)
    assert out.getvalue() == _joined(core.python_radii("a" * 300)[0])


@pytest.mark.parametrize("text", ["", "a", "bananas", "ab" * 500, "a" * 1000, "x" + "a" * 998 + "y"])
def test_mirror_table_reads_the_tail_from_the_mirrors(text):
    radii, stats = native.compute_radii(text, fill=False)
    expected, expected_stats = core.python_radii(text)
    assert stats == expected_stats
    assert isinstance(radii, radii_text.MirrorTable)
    assert radii.tail <= len(expected)
    assert list(radii) == expected
    assert radii[-1] == expected[-1] and radii[1:-1:3] == expected[1:-1:3]
    with pytest.raises(IndexError):
        radii[len(expected)]


def test_write_table_formats_b_and_i_in_the_kernel_only():
    # the kernel refuses every other format; lps.radii_text formats those with str
    kernel = native.load()
    for format, values in (("b", [0, 1, -1]), ("I", [0, 2**31]), ("q", [0, 2**40]), ("f", [0.5])):
        table = memoryview(array.array(format, values))
        calls = []
        with pytest.raises(TypeError, match=f"^write_table takes a table of format 'B' or 'i', got '{format}'$"):
            kernel.write_table(table, calls.append, 1)
        assert calls == []
        assert _written(table) == _joined(values), format
    for format, values in (("B", [0, 255]), ("i", [0, 2**31 - 1])):
        out = io.BytesIO()
        kernel.write_table(memoryview(array.array(format, values)), out.write, 1)
        assert out.getvalue() == _joined(values), format


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
def test_write_radii_stops_on_a_signal():
    # list.append is C, so no Python code runs between chunks: only the
    # kernel's own signal check can raise the handler's exception mid-table
    def alarm(signum, frame):
        raise _Stop

    radii, _ = native.compute_radii("a" * 10**6)
    chunks = []
    previous = signal.signal(signal.SIGALRM, alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.002)
        with pytest.raises(_Stop):
            native.load().write_table(radii, chunks.append, 16)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(chunks) < (2 * 10**6 + 1) // 16


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_kernel_compiles_without_warnings():
    # the build itself passes no -W flags: a warning from another compiler
    # must not move anyone onto the Python engine
    include = sysconfig.get_paths()["include"]
    command = ["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror", f"-I{include}", str(PACKAGE / "_manacher.c")]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _runtime(name: str) -> str | None:
    """The sanitizer runtime library ``name`` of cc, such as libtsan.so, if there is one."""
    if shutil.which("cc") is None:
        return None
    path = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


# Loads the kernel built at argv[1], and runs scan, longest, and
# write_table of scan's table and of scan_unfilled's on each text file
# named after argv[2],
# as each of the comma-separated encodings argv[2] names, printing
# (comparisons, center), (comparisons, center, length) and the SHA-256 of
# either output.
_KERNEL_CHILD = """
import hashlib
import sys
from importlib.machinery import ExtensionFileLoader, ModuleSpec
loader = ExtensionFileLoader("_manacher", sys.argv[1])
kernel = loader.create_module(ModuleSpec(loader.name, loader, origin=sys.argv[1]))
loader.exec_module(kernel)
encodings = {
    "str": str,
    "bmp": lambda text: text.translate({ord("a"): "\u0101"}),
    "astral": lambda text: text.translate({ord("a"): "\U0001f600"}),
    "bytes": str.encode,
    "bytearray": lambda text: bytearray(text.encode()),
}
for path in sys.argv[3:]:
    with open(path, encoding="ascii") as fh:
        ascii = fh.read()
    for encoding in sys.argv[2].split(","):
        text = encodings[encoding](ascii)
        table, comparisons, center = kernel.scan(text)
        radii = memoryview(table) if len(table) == 2 * len(text) + 1 else memoryview(table).cast("i")
        written, streamed = hashlib.sha256(), hashlib.sha256()
        kernel.write_table(radii, written.update, 65536)
        table, wide, *stats, ref, tail = kernel.scan_unfilled(text)
        assert stats == [comparisons, center]
        unfilled = memoryview(table).cast("i" if wide else "B")[: 2 * len(text) + 1]
        kernel.write_table(unfilled, streamed.update, 65536, ref, tail)
        print((comparisons, center), kernel.longest(text), written.hexdigest(), streamed.hexdigest())
"""


def _kernel_child(tmp_path, library, texts: dict, encodings: list[str], env: dict, first: str = "") -> str:
    """Run _KERNEL_CHILD, after the code ``first``, on the kernel built at
    ``library`` and ``texts`` as ``encodings`` with ``env``; returns its
    stderr, once its stdout holds what the kernel built as lps builds it
    gives in this process."""
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="ascii")
    paths = [str(tmp_path / name) for name in texts]
    child = [sys.executable, "-c", first + _KERNEL_CHILD, str(library), ",".join(encodings), *paths]
    done = subprocess.run(child, capture_output=True, text=True, env=dict(os.environ, **env), timeout=300)
    assert done.returncode == 0, done.stderr
    expected = []
    for text in texts.values():
        radii, stats = native.compute_radii(text)
        digest = hashlib.sha256(_written(radii)).hexdigest()
        expected += [f"{tuple(stats)} {(*stats, radii[stats.center])} {digest} {digest}"] * len(encodings)
    assert done.stdout.splitlines() == expected
    return done.stderr


def _sanitized(tmp_path, sanitize: list[str], env: dict, texts: dict, encodings: list[str]) -> str:
    """Build the kernel with the flags ``sanitize`` and run _kernel_child
    on it; returns the child's stderr. The interpreter is not
    instrumented, so env brings the sanitizer's runtime in by LD_PRELOAD."""
    include = sysconfig.get_paths()["include"]
    library = tmp_path / "_manacher_sanitized.so"
    command = ["cc", "-O1", "-g", *sanitize, "-shared", "-fPIC", "-pthread", f"-I{include}"]
    built = subprocess.run([*command, str(PACKAGE / "_manacher.c"), "-o", str(library)], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    return _kernel_child(tmp_path, library, texts, encodings, env)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_allowed_cpu_scans_as_every_cpu_does(tmp_path):
    # the helper starts on a CPU other than the calling thread's, and with
    # one CPU allowed by a plain pthread_create, on that CPU: the same
    # radii, counts and centers either way, those of the Python engine
    n = 10**5
    texts = {name: make(n) for name, make in SPLIT_TEXTS.items()} | {"late": WIDTH_TEXTS["late"](n)}
    for text in texts.values():
        radii, stats = core.python_radii(text)
        assert _kernel_written(text) == (_joined(radii), stats)
        assert native.load().longest(text) == (*stats, radii[stats.center])
    one = f"import os\nos.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
    for first in ("", one):
        _kernel_child(tmp_path, native.load().__file__, texts, ["str", "bytes"], {}, first)


@pytest.mark.skipif(_runtime("libtsan.so") is None, reason="needs cc and libtsan")
def test_kernel_has_no_data_race(tmp_path):
    n = 10**6
    texts = {
        "random": gen_text(GenSpec(n, 3, 1)),
        "crossing": _crossing(16)(n),
        "period-2": "ab" * (n // 2),
        "late": WIDTH_TEXTS["late"](n),  # the helper stops at a radius above 255, and the table widens
        "suffix-run": SPLIT_TEXTS["suffix-run"](n),  # the helper stops in the run; the caller widens, then fills the tail
        "suffix-255": WIDTH_TEXTS["suffix-255"](n),  # the helper fills the tail at one byte
        "unary": "a" * n,  # no split point: one thread, whose second half is tail
    }
    env = {"LD_PRELOAD": _runtime("libtsan.so"), "TSAN_OPTIONS": "halt_on_error=1"}
    assert "ThreadSanitizer" not in _sanitized(tmp_path, ["-fsanitize=thread"], env, texts, ["str"])


@pytest.mark.skipif(_runtime("libasan.so") is None, reason="needs cc and libasan")
def test_kernel_reads_and_writes_in_bounds(tmp_path):
    # AddressSanitizer and UBSan over every split, width and tail text,
    # each read through every width of symbol: an access outside the text,
    # the table or the output buffer, such as a tail entry's mirror read at
    # 2 ref - j, or undefined arithmetic, ends the child
    n = 10**5
    texts = {f"split-{name}": make(n) for name, make in SPLIT_TEXTS.items()}
    texts |= {f"width-{name}": make(n) for name, make in WIDTH_TEXTS.items()}
    texts |= {"empty": "", "one": "a", "bananas": "bananas"}
    sanitize = ["-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]
    env = {"LD_PRELOAD": _runtime("libasan.so"), "ASAN_OPTIONS": "detect_leaks=0"}
    stderr = _sanitized(tmp_path, sanitize, env, texts, ["str", "bmp", "astral", "bytes", "bytearray"])
    assert "Sanitizer" not in stderr and "runtime error" not in stderr, stderr


@functools.cache
def _small_texts(binary: int = 13, ternary: int = 8) -> list[tuple[bytes | str, list[int], core.CompareStats]]:
    """Every binary text of 4 to ``binary`` symbols and every ternary one
    of 4 to ``ternary``, with the Python engine's radii and stats."""
    texts = [bytes(s) for n in range(4, binary + 1) for s in itertools.product(b"ab", repeat=n)]
    texts += ["".join(s) for n in range(4, ternary + 1) for s in itertools.product("abc", repeat=n)]
    return [(text, *core.python_radii(text)) for text in texts]


def _unfilled_writer(kernel, text, stats):
    """``write_table`` bound to ``kernel.scan_unfilled(text)``'s table, its
    reference and its tail, after checking its stats against ``stats``."""
    table, wide, comparisons, center, ref, tail = kernel.scan_unfilled(text)
    assert (comparisons, center) == tuple(stats), text
    radii = memoryview(table).cast("i" if wide else "B")[: 2 * len(text) + 1]
    return lambda write, chunk: kernel.write_table(radii, write, chunk, ref, tail)


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
@pytest.mark.parametrize("helper_steps", range(5))
def test_small_model_matches_the_python_engine(tmp_path, helper_steps):
    # the kernel built small: tables of 8 entries and more split, the
    # helper's range has 4 steps, a byte holds radii up to 3, and the
    # helper takes exactly helper_steps of them, short of a radius above
    # 3, before the calling thread scans the first half. Short texts then
    # widen before the split, across it, in the helper, and after the
    # calling thread adopts the helper's scan.
    include = sysconfig.get_paths()["include"]
    library = tmp_path / f"small{EXTENSION_SUFFIXES[0]}"
    flags = ["-DSPLIT_SIZE=8", "-DSTEPS=4", "-DBYTE_LIMIT=3", f"-DHELPER_STEPS={helper_steps}"]
    command = ["cc", "-O2", "-shared", "-fPIC", "-pthread", *flags, f"-I{include}", str(PACKAGE / "_manacher.c")]
    built = subprocess.run([*command, "-o", str(library)], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    loader = ExtensionFileLoader(f"small{helper_steps}._manacher", str(library))
    kernel = loader.create_module(ModuleSpec(loader.name, loader, origin=str(library)))
    loader.exec_module(kernel)
    assert kernel.SPLIT_SIZE == 8
    formats = collections.Counter()
    for text, expected, stats in _small_texts():
        table, comparisons, center = kernel.scan(text)
        radii = memoryview(table) if len(table) == 2 * len(text) + 1 else memoryview(table).cast("i")
        assert (list(radii), comparisons, center) == (expected, *stats), text
        assert kernel.longest(text) == (*stats, expected[stats.center]), text
        formats[radii.format] += 1
        for write in (functools.partial(kernel.write_table, radii), _unfilled_writer(kernel, text, stats)):
            out = io.BytesIO()
            write(out.write, 4)
            assert out.getvalue() == _joined(expected), text
    assert formats["B"] and formats["i"]
    if helper_steps == 4:
        # write_table at every chunk size, on the filled and the unfilled
        # table of every text, split or not, at either width, with a tail or not
        for text, expected, stats in _small_texts(10, 6):
            table = memoryview(kernel.scan(text)[0])
            radii = table if len(table) == 2 * len(text) + 1 else table.cast("i")
            unfilled = _unfilled_writer(kernel, text, stats)
            for chunk in range(1, 2 * len(text) + 2):
                for write in (functools.partial(kernel.write_table, radii), unfilled):
                    out = io.BytesIO()
                    write(out.write, chunk)
                    assert out.getvalue() == _joined(expected), (text, chunk)


def _fresh_copy(tmp_path: Path) -> Path:
    shutil.copytree(PACKAGE, tmp_path / "lps", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _lps(root: Path, *args, path: str, stdin: bytes = b"bananas", popen=False):
    argv = [sys.executable, "-m", "lps", *args]
    env = {**os.environ, "PYTHONPATH": str(root), "PATH": path}
    if popen:
        return subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
    return subprocess.run(argv, input=stdin, capture_output=True, timeout=120, env=env)


def _built(root: Path) -> list[str]:
    cache = root / "lps" / "__pycache__"
    return sorted(p.name for p in cache.iterdir() if not p.name.endswith(".pyc")) if cache.exists() else []


@pytest.mark.parametrize("failure", ["no-compiler", "failing-compiler", "world-writable-cache", "no-python-h"])
def test_falls_back_with_one_note(tmp_path, failure):
    root = _fresh_copy(tmp_path / "copy")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    path = str(bin_dir)
    if failure == "failing-compiler":
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\necho 'cc: simulated failure' >&2\nexit 1\n")
        cc.chmod(0o755)
    elif failure == "world-writable-cache":
        path = os.environ.get("PATH", "")
        cache = root / "lps" / "__pycache__"
        cache.mkdir()
        cache.chmod(0o777)
    elif failure == "no-python-h":
        # the real compiler, without the interpreter's include directory
        real_cc = shutil.which("cc")
        if real_cc is None:
            pytest.skip("no cc on PATH")
        cc = bin_dir / "cc"
        cc.write_text(
            "#!/bin/sh\n"
            'for arg do shift; case "$arg" in -I*) ;; *) set -- "$@" "$arg" ;; esac; done\n'
            f'exec {real_cc} "$@"\n'
        )
        cc.chmod(0o755)
    reason = {
        "no-compiler": b"cc",
        "failing-compiler": b"simulated failure",
        "world-writable-cache": b"world-writable",
        "no-python-h": b"Python.h",
    }[failure]

    for args, expected in ((("find", "--span"), b"anana\n1 6 5\n"), (("radii",), b"0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\n")):
        proc = _lps(root, *args, path=path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
        (note,) = proc.stderr.splitlines()
        assert note.startswith(b"lps: note: ") and reason in note

    if failure == "no-compiler":
        # with stderr closed the note is dropped, not written to stdout
        argv = [shutil.which("sh"), "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "lps", "find"]
        env = {**os.environ, "PYTHONPATH": str(root), "PATH": path}
        proc = subprocess.run(argv, input=b"bananas", stdout=subprocess.PIPE, timeout=120, env=env)
        assert (proc.returncode, proc.stdout) == (0, b"anana\n")

    # the bench records the kernel's trials as skipped, with no note
    bench = _lps(root, "bench", "--lengths", "10", "--alphabets", "2", path=path)
    assert (bench.returncode, bench.stderr) == (0, b"")
    rows = [line.split(b",") for line in bench.stdout.splitlines()[1:]]
    assert {row[0] for row in rows} == {name.encode() for name in IMPLS}
    for row in rows:
        assert row[-1] == (b"skipped" if row[0] == b"native" else b"ok"), row

    explicit = _lps(root, "find", "--impl", "native", path=path)
    assert explicit.returncode == 2
    assert explicit.stdout == b""
    assert explicit.stderr.startswith(b"lps: error: ") and reason in explicit.stderr
    if failure == "no-compiler":
        # a bench that names the kernel fails before its --out file is opened
        out = tmp_path / "report.csv"
        out.write_bytes(b"earlier report\n")
        bench = _lps(root, "bench", "--lengths", "10", "--alphabets", "2", "--impls", "native", "--out", str(out),
                     path=path)
        assert bench.returncode == 2
        assert bench.stderr.startswith(b"lps: error: ") and reason in bench.stderr
        assert out.read_bytes() == b"earlier report\n"
    assert _built(root) == []  # no library and no partial file left behind


# Builds a default BenchSpec, then runs its grid, listing the kernel
# libraries in the package's cache after each.
_BENCH_CHILD = """
import os
import lps
from lps.bench import BenchSpec, run_bench
cache = os.path.join(os.path.dirname(lps.__file__), "__pycache__")
def built():
    return sum(name.startswith("_manacher.") for name in os.listdir(cache)) if os.path.isdir(cache) else 0
spec = BenchSpec(lengths=(10,), alphabet_sizes=(2,), repeats=1)
print(built())
records = run_bench(spec)
print(built(), sorted({record.outcome for record in records}))
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_bench_builds_the_kernel_at_its_first_native_trial(tmp_path):
    root = _fresh_copy(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _BENCH_CHILD], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(root)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0", "1 ['ok']"]


def test_concurrent_first_runs_both_succeed(tmp_path):
    root = _fresh_copy(tmp_path)
    procs = [_lps(root, "find", "--span", path=os.environ.get("PATH", ""), popen=True) for _ in range(2)]
    results = [proc.communicate(b"bananas", timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert (out, err) == (b"anana\n1 6 5\n", b"")  # no note: both ran the kernel
    (library,) = _built(root)
    assert library.startswith(f"_manacher.{sys.implementation.cache_tag}-") and library.endswith(".so")


def test_a_new_build_removes_the_stale_ones(tmp_path):
    root = _fresh_copy(tmp_path)
    cache = root / "lps" / "__pycache__"
    cache.mkdir()
    tag = sys.implementation.cache_tag
    stale = [f"_manacher.{tag}-0badc0de.so", f"_manacher.{tag}-deadbeef.{tag}-x86_64-linux-gnu.so"]
    partial = "tmp1234abcd.so.tmp"  # another process's build in progress
    for name in (*stale, partial):
        (cache / name).write_bytes(b"")
    proc = _lps(root, "find", "--span", path=os.environ.get("PATH", ""))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"anana\n1 6 5\n", b"")
    library, kept = _built(root)
    assert kept == partial
    assert library.startswith(f"_manacher.{tag}-") and library not in stale


def test_find_never_imports_ctypes(tmp_path):
    root = _fresh_copy(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(root)}
    # nor what find and radii do not run: the bench harness, the generator,
    # the reference solvers
    unused = {"dataclasses", "inspect", "lps.bench", "lps.generator", "lps.reference", "numpy"}
    argv = [sys.executable, "-X", "importtime", "-m", "lps"]
    runs = {
        "building": (["find", "--span"], b"anana\n1 6 5\n"),
        "loading": (["find", "--span"], b"anana\n1 6 5\n"),
        "radii": (["radii"], b"0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\n"),
    }
    for run, (args, out) in runs.items():
        proc = subprocess.run(argv + args, input=b"bananas", capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0 and proc.stdout == out, (run, proc.stderr)
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()]
        assert "lps.native" in imported and "ctypes" not in imported, run
        assert not unused & set(imported), run
        assert not any(line.startswith("lps: note") for line in imported), run  # the kernel ran
    assert len(_built(root)) == 1


def _has_rss_anon() -> bool:
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("RssAnon:") for line in fh)
    except OSError:
        return False


# Imports lps.cli, compiling the package from source, and prints RssAnon
# in KiB before and after loading the kernel, which is built already.
_TRIM_CHILD = """
import lps.cli, lps.native
def rss_anon():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssAnon:"))
before = rss_anon()
lps.native.load()
print(before, rss_anon())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
@pytest.mark.skipif(not _has_rss_anon(), reason="needs RssAnon in /proc/self/status")
def test_loading_the_kernel_returns_the_compile_residue(tmp_path):
    # a fresh copy holds no .pyc, so the child compiles every lps module
    # it imports, as perfbench's runs do; it only loads this process's build
    library = Path(native.load().__file__)
    root = _fresh_copy(tmp_path)
    (root / "lps" / "__pycache__").mkdir()
    shutil.copy(library, root / "lps" / "__pycache__" / library.name)
    env = {**os.environ, "PYTHONPATH": str(root), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _TRIM_CHILD], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    # the kernel's malloc_trim(0) returned 304-320 KiB with CPython 3.11 and
    # glibc 2.36 on x86_64; without it RssAnon rose 8 KiB
    assert before - after >= 128, (before, after)
    assert _built(root) == [library.name]  # loaded, not rebuilt
