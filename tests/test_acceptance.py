"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line (visible with pytest -s); a failing
criterion fails its test the normal way. The random sweep is generated
once per session and shared, so the equivalence, invariant, and linearity
criteria all judge the same corpus.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import lps.core
from lps import native
from lps.bench import BenchSpec, parse_csv, run_bench, summarize, to_csv
from lps.core import (
    compute_radii,
    longest_palindrome,
    python_radii,
    to_original_span,
)
from lps.generator import GenSpec, gen_text, rng_next
from lps.reference import SOLVERS, augmented_radii

ALPHABETS = (2, 3, 5, 8, 13, 21)
SWEEP_SEED = 0x5EED
SWEEP_COUNT = 10_000

BANANAS_RADII = [0, 1, 0, 1, 0, 3, 0, 5, 0, 3, 0, 1, 0, 1, 0]


# a b^(n-2) c costs the scan the most comparisons known: exactly 3n - 6
WORST_CASE_LENGTHS = (3, 4, 5, 10, 50, 200)


def worst_case(n: int) -> str:
    return "a" + "b" * (n - 2) + "c"


@pytest.fixture(scope="session")
def sweep():
    """10,000 random texts, L uniform in [0, 200], A from the benchmark set,
    then the worst-case family ``a b^(n-2) c``."""
    state = SWEEP_SEED
    texts = []
    for _ in range(SWEEP_COUNT):
        state, out = rng_next(state)
        length = out % 201
        state, out = rng_next(state)
        alphabet = ALPHABETS[out % len(ALPHABETS)]
        texts.append(gen_text(GenSpec(length, alphabet, state)))
    return texts + [worst_case(n) for n in WORST_CASE_LENGTHS]


@pytest.fixture(scope="session")
def sweep_tables(sweep):
    return [(text, *python_radii(text)) for text in sweep]


def test_c1_bananas_fixture():
    radii, _ = python_radii("bananas")
    assert radii == BANANAS_RADII
    result = longest_palindrome("bananas")
    assert result.substring("bananas") == "anana"
    assert (result.span.start, result.span.end) == (1, 6)
    print("PASS [C1] bananas fixture: cached radii table, anana at span (1, 6)")


def test_c2_oracle_equivalence(sweep_tables):
    for text, radii, stats in sweep_tables:
        expected, naive_stats = SOLVERS["naive"](text)
        assert radii == expected
        augmented, augmented_stats = augmented_radii(text)
        assert augmented == expected
        native_radii, native_stats = native.compute_radii(text)
        assert list(native_radii) == expected
        assert native_stats.comparisons == stats.comparisons
        span = lps.core.result_from_radii(expected, naive_stats).span
        assert longest_palindrome(text).span == span
        assert lps.core.result_from_radii(radii, stats).span == span
        assert lps.core.result_from_radii(augmented, augmented_stats).span == span
    print(
        f"PASS [C2] oracle equivalence: {len(sweep_tables)} texts, "
        "four implementations entrywise identical, identical spans"
    )


def _symbol_models(text: str):
    """``text`` as str of each PEP 393 width (1, 2 and 4 bytes per symbol),
    as bytes and as a token tuple; only the last is not for the kernel."""
    yield text, True
    yield "".join(chr(0x100 + ord(c)) for c in text), True
    yield "".join(chr(0x1F600 + ord(c)) for c in text), True
    yield text.encode("ascii"), True
    yield tuple(text), False


TIES = ["", "abacdfgdcaba", "abba xyyx", "aXa bYb", "ab", "abcabc", "aabbaa bb aabbaa"]


def test_scan_center_is_the_leftmost_argmax(sweep):
    # every solver reports the best center it found; it must be the
    # center a separate leftmost argmax pass over the table picks
    for text in [*TIES, *sweep]:
        for symbols, kernel in _symbol_models(text):
            for name, solver in SOLVERS.items():
                if name == "native" and not kernel:
                    continue
                radii, stats = solver(symbols)
                assert stats.center == list(radii).index(max(radii)), (name, symbols)
    assert all(solver("")[1].center == 0 for solver in SOLVERS.values())
    print(
        f"PASS scan center equals the leftmost argmax for {len(SOLVERS)} solvers "
        f"on {len(sweep) + len(TIES)} texts, five symbol models"
    )


def test_c3_invariant_suite(sweep_tables):
    for text, radii, _ in sweep_tables:
        top = len(radii) - 1
        for i, r in enumerate(radii):
            # parity and range
            assert r % 2 == i % 2
            assert 0 <= r <= min(i, top - i)
            # palindromicity and maximality of the recorded span
            span = to_original_span(i, r)
            segment = text[span.start : span.end]
            assert segment == segment[::-1]
            if span.start > 0 and span.end < len(text):
                assert text[span.start - 1] != text[span.end]
        # reflection: inside any center's palindrome the mirror entry is a
        # lower bound, and an exact copy under strict containment
        for a, r in enumerate(radii):
            right = a + radii[a]
            for j in range(a + 1, right + 1):
                k = 2 * a - j
                if k - radii[k] > a - radii[a]:
                    assert radii[j] == radii[k]
                else:
                    assert radii[j] >= min(radii[k], right - j)
    print(
        "PASS [C3] invariants: parity, range, palindromicity, maximality, "
        f"reflection bound and equality on {len(sweep_tables)} tables"
    )


def test_c4_comparison_linearity(sweep_tables):
    for text, _, stats in sweep_tables:
        assert stats.comparisons <= 4 * (len(text) + 1)
    for exp in (4, 5, 6):
        length = 10**exp
        text = gen_text(GenSpec(length, 3, 1000 + exp))
        _, stats = compute_radii(text)
        assert stats.comparisons <= 4 * (length + 1)
    print(
        "PASS [C4] work linearity: comparisons <= 4(L+1) for the sweep "
        "and L in {1e4, 1e5, 1e6}"
    )


def test_c4_comparisons_at_most_3n_minus_4(sweep):
    # the bound python_radii's docstring proves, on both engines: the sweep,
    # then every string over 2, 3 and 4 symbols up to 12, 8 and 7 long
    small = [
        "".join(symbols)
        for alphabet, top in (("ab", 12), ("abc", 8), ("abcd", 7))
        for n in range(top + 1)
        for symbols in itertools.product(alphabet, repeat=n)
    ]
    for text in [*sweep, *small]:
        bound = max(3 * len(text) - 4, 0)  # N <= 1 makes no comparison
        for engine in (python_radii, native.compute_radii):
            assert engine(text)[1].comparisons <= bound, (engine.__name__, text)
    print(
        f"PASS [C4'] sharp work bound: comparisons <= 3L - 4 on both engines "
        f"for the sweep and {len(small)} exhaustive small texts"
    )


def test_c5_desk_scale_runtime_linearity():
    spec = BenchSpec(
        lengths=(10**6, 10**7),
        alphabet_sizes=(3,),
        repeats=1,
        impls=("indexmap",),
        seed=0,
    )
    records = run_bench(spec)
    seconds = {s.length: s.wall_seconds for s in summarize(records)}
    ratio = seconds[10**7] / seconds[10**6]
    assert 5.0 <= ratio <= 20.0
    print(
        f"PASS [C5] desk-scale linearity: {seconds[10**6]:.2f}s at 1e6, "
        f"{seconds[10**7]:.2f}s at 1e7, ratio {ratio:.1f} in [5, 20]"
    )


def test_c6_memory_contract(tmp_path):
    # structural half: the engine runs with its sibling modules absent, so
    # no augmentation code can be on its path
    script = tmp_path / "isolated_core.py"
    script.write_text(
        textwrap.dedent(
            """
            import importlib.util
            import sys

            spec = importlib.util.spec_from_file_location("isolated_core", sys.argv[1])
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            radii, _ = module.compute_radii("bananas")
            assert radii == [0, 1, 0, 1, 0, 3, 0, 5, 0, 3, 0, 1, 0, 1, 0]
            assert not any(name == "lps" or name.startswith("lps.") for name in sys.modules)
            print("isolated-ok")
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, str(script), lps.core.__file__],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "isolated-ok"

    # accounting half at L = 1e6: the engine's footprint is the integer
    # table alone; the augmented solver also pays for a 2N+1-symbol buffer
    length = 10**6
    size = 2 * length + 1
    text = gen_text(GenSpec(length, 3, 99))

    tracemalloc.start()
    compute_radii(text)
    _, core_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # the augmented solver's peak is taken in a child from ru_maxrss
    # (kilobytes on Linux): traced, its 2N+1 int allocations run about 25
    # times slower. Its table and buffer are fresh memory it fills.
    path = tmp_path / "text.txt"
    path.write_text(text, encoding="ascii")
    aug_peak = _rss_rise("lps.reference", "augmented_radii", path)

    table_bytes = 8 * size
    assert core_peak < table_bytes + size // 2
    assert aug_peak >= table_bytes + size
    print(
        f"PASS [C6] memory contract: isolated engine ok; peaks at L=1e6 "
        f"core {core_peak:,}B (table only) vs augmented {aug_peak:,}B "
        f"(table + symbol buffer)"
    )


# Reads the text file argv[3] and prints by how many bytes calling
# argv[1].argv[2] on it raises the child's ru_maxrss (kilobytes on Linux).
_RSS_CHILD = """
import importlib
import resource
import sys

sys.path.insert(0, sys.argv[4])
solve = getattr(importlib.import_module(sys.argv[1]), sys.argv[2])
solve("ab")  # imports, and the kernel's build and load, come before the measure
with open(sys.argv[3], encoding="ascii") as fh:
    text = fh.read()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
solve(text)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))
"""


def _rss_rise(module: str, function: str, path: Path) -> int:
    """The rise of a fresh child's peak resident memory over one call of
    ``module.function`` on the text in ``path``, in bytes. On Linux a
    child's ru_maxrss starts at the peak of the process it was forked
    from, so a small launcher starts it, not this process."""
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    root = Path(lps.core.__file__).parent.parent
    child = [sys.executable, "-c", _RSS_CHILD, module, function, str(path), str(root)]
    argv = [sys.executable, "-S", "-c", launcher, *child]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_c6_resident_table_follows_the_longest_radius(tmp_path):
    # the kernel's table is allocated at 4 bytes per center, but touched at
    # one while every radius fits 255: random text keeps it there, unary
    # text widens it at center 256 and touches all of it
    length = 10**6
    size = 2 * length + 1
    rises = {}
    for name, text in (("random", gen_text(GenSpec(length, 3, 99))), ("unary", "a" * length)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="ascii")
        rises[name] = _rss_rise("lps.native", "compute_radii", path)
    assert rises["random"] < 2 * size
    assert rises["unary"] >= 3 * size
    print(f"PASS [C6'] resident table at L=1e6: random {rises['random']:,}B, unary {rises['unary']:,}B")


def test_c6_longest_palindrome_leaves_the_tail_untouched(tmp_path):
    # the scan writes no entry right of a best palindrome that reaches the
    # end of the text, and only compute_radii fills them: on unary text
    # that is the second half of the int32 table. A rise counts from the
    # child's peak after reading the text, which is 2 MB above where the
    # call starts, so a table touched whole reads about 88% of it.
    length = 2**21
    table = 4 * (2 * length + 1)  # 16 MB
    path = tmp_path / "unary.txt"
    path.write_text("a" * length, encoding="ascii")
    longest = _rss_rise("lps.native", "longest_palindrome", path)
    radii = _rss_rise("lps.native", "compute_radii", path)
    assert longest <= 0.6 * table
    assert radii >= 0.75 * table
    print(f"PASS [C6''] resident table of 16 MB at L=2^21 unary: longest {longest:,}B, compute_radii {radii:,}B")


def test_c7_prng_golden_vectors():
    state, out = rng_next(0)
    assert out == 0xE220A8397B1DCDAF
    _, out = rng_next(state)
    assert out == 0x6E789E6AA1B965F4
    print("PASS [C7] PRNG goldens: seed 0 yields E220A8397B1DCDAF, 6E789E6AA1B965F4")


def _run_cli(*args, stdin=b""):
    return subprocess.run(
        [sys.executable, "-m", "lps", *args],
        input=stdin,
        capture_output=True,
        timeout=120,
    )


def test_c8_cli_contract():
    assert _run_cli("find", stdin=b"bananas").stdout == b"anana\n"
    assert _run_cli("find", "--span").stdout == b"\n0 0 0\n"
    assert _run_cli("find", "--span", stdin=b"abacdfgdcaba").stdout == b"aba\n0 3 3\n"
    assert _run_cli("radii", stdin=b"bananas").stdout == b"0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\n"
    assert _run_cli("radii").stdout == b"0\n"
    assert _run_cli("radii", stdin=b"aaaa").stdout == b"0,1,2,3,4,3,2,1,0\n"

    args = ("bench", "--lengths", "200,400", "--alphabets", "2,3", "--repeats", "2")
    first = _run_cli(*args)
    assert first.returncode == 0
    csv_text = first.stdout.decode()
    records, _ = parse_csv(csv_text)
    assert to_csv(records) == csv_text  # exact round trip, averages included

    second = _run_cli(*args).stdout.decode()

    def strip_wall(report):
        rows = [line.split(",") for line in report.strip().split("\n")]
        return [row[:4] + row[5:] for row in rows]

    assert strip_wall(csv_text) == strip_wall(second)
    print(
        "PASS [C8] CLI contract: find/radii examples end to end, "
        "bench CSV round-trips and is timing-invariant"
    )
