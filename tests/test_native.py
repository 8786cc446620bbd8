"""Tests for the compiled kernel (lps.native) and the default engine.

Radii and counts are checked against the Python engine here and in the
four-way sweeps of test_acceptance.py, test_properties.py and
test_registry.py. The build and fallback tests run ``python -m lps`` on a
fresh copy of the package, so each starts with no compiled library.
"""

from __future__ import annotations

import io
import itertools
import os
import shutil
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

import lps
from lps import cli, core, native
from lps.generator import GenSpec, gen_text

PACKAGE = Path(lps.__file__).resolve().parent


def test_exact_counts_at_one_million():
    text = gen_text(GenSpec(10**6, 3, 1))
    radii, stats = native.compute_radii(text)
    assert stats.comparisons == 2_036_777
    expected, _ = core.python_radii(text)
    assert list(radii) == expected
    _, stats = native.compute_radii("a" * 10**6)
    assert stats.comparisons == 999_999
    _, stats = native.compute_radii("a" + "b" * (10**6 - 2) + "c")  # the worst case, 3n - 6
    assert stats.comparisons == 2_999_994


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
    peaks = []
    for text in texts.values():
        assert len(text) == length
        tracemalloc.start()
        native.compute_radii(text)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    table = 4 * (2 * length + 1)  # the int32 radii table
    assert max(peaks) - min(peaks) < 1024
    assert table <= min(peaks) and max(peaks) < table + 64 * 1024


def test_typed_table_argmax_is_leftmost():
    native.load()
    assert native.owns(array("i", [0])) and not native.owns([0]) and not native.owns(array("q", [0]))
    assert core.argmax(array("i", [0, 1, 0, 3, 0, 3, 0, 1, 0])) == 3
    assert core.argmax(array("i", [0])) == 0
    table = array("i", [7, 2, 9, 9, 1, 9])
    assert core.argmax(table) == list(table).index(max(table)) == 2


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


def test_default_engine_runs_the_kernel_on_str_and_bytes_only():
    assert core.kernel is native
    for text in ("bananas", "b\xe4n\xe4n\xe4s", b"bananas"):
        radii, stats = core.compute_radii(text)
        assert isinstance(radii, array)
        assert list(radii) == core.python_radii(text)[0]
        assert stats.comparisons == core.python_radii(text)[1].comparisons
    radii, stats = core.compute_radii(tuple("bananas"))
    assert radii == core.python_radii("bananas")[0] and stats.comparisons == 11


def test_long_texts_stay_on_the_python_engine(monkeypatch):
    monkeypatch.setattr(native, "MAX_SYMBOLS", 6)
    for engine in (native.compute_radii, core.compute_radii):
        radii, stats = engine("bananas")
        assert radii == core.python_radii("bananas")[0]  # a list: the Python scan ran
        assert stats.comparisons == 11


TABLE_KINDS = {"kernel": lambda values: array("i", values), "list": list}


def _written(table) -> bytes:
    out = io.BytesIO()
    cli._write_radii(table, out)
    return out.getvalue()


TABLE_SIZES = [1, cli.RADII_CHUNK - 1, cli.RADII_CHUNK, cli.RADII_CHUNK + 1]


def _check_streamed(kind, size):
    native.load()
    table = TABLE_KINDS[kind](range(size))  # size 1 is the empty text's table, [0]
    assert native.owns(table) == (kind == "kernel")  # the C formatter or the str join
    assert _written(table) == (",".join(map(str, table)) + "\n").encode("ascii")


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_radii_output_streams_whole_table(size):
    _check_streamed("kernel", size)


@pytest.mark.parametrize("size", TABLE_SIZES)
def test_radii_output_streams_whole_list(size):
    _check_streamed("list", size)


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_radii_output_matches_str_at_digit_and_sign_edges(kind):
    native.load()
    values = [0, 9, 10, 99, 100, 2**31 - 1, -1, -(2**31)]
    table = TABLE_KINDS[kind](values)
    assert _written(table) == (",".join(map(str, values)) + "\n").encode()


def test_format_radii_checks_slice_and_buffer():
    native.load()
    table = array("i", [-(2**31)] * 3)
    out = array("B", [0]) * (3 * native.FORMAT_BYTES)
    assert native.format_radii(table, 1, 3, out) == 23
    assert bytes(out[:23]) == b"-2147483648,-2147483648"
    assert native.format_radii(table, 3, 3, out) == 0
    for start, stop in ((2, 1), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            native.format_radii(table, start, stop, out)
    with pytest.raises(ValueError):
        native.format_radii(table, 0, 3, out[:-1])
    for other in ([0, 1], array("h", [0, 1])):
        with pytest.raises(TypeError):
            native.format_radii(other, 0, 2, out)


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

    explicit = _lps(root, "find", "--impl", "native", path=path)
    assert explicit.returncode == 2
    assert explicit.stdout == b""
    assert explicit.stderr.startswith(b"lps: error: ") and reason in explicit.stderr
    assert _built(root) == []  # no library and no partial file left behind


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
    argv = [sys.executable, "-X", "importtime", "-m", "lps", "find", "--span"]
    for run in ("building", "loading"):
        proc = subprocess.run(argv, input=b"bananas", capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0 and proc.stdout == b"anana\n1 6 5\n", (run, proc.stderr)
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()]
        assert "lps.native" in imported and "ctypes" not in imported, run
        assert not {"dataclasses", "inspect", "lps.bench", "numpy"} & set(imported), run
        assert not any(line.startswith("lps: note") for line in imported), run  # the kernel ran
    assert len(_built(root)) == 1
