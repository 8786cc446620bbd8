"""End-to-end process tests for the lps command."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

from lps import bench, cli, core, native, reference
from lps.bench import IMPLS, parse_csv
from lps.generator import GenSpec, gen_text


def run_cli(*args, stdin=b""):
    return subprocess.run(
        [sys.executable, "-m", "lps", *args],
        input=stdin,
        capture_output=True,
        timeout=120,
    )


def test_find_bananas():
    proc = run_cli("find", stdin=b"bananas")
    assert proc.returncode == 0
    assert proc.stdout == b"anana\n"


def test_find_span_empty_input():
    proc = run_cli("find", "--span")
    assert proc.returncode == 0
    assert proc.stdout == b"\n0 0 0\n"


def test_find_span_leftmost_tie():
    proc = run_cli("find", "--span", stdin=b"abacdfgdcaba")
    assert proc.returncode == 0
    assert proc.stdout == b"aba\n0 3 3\n"


# the leftmost palindrome wins a tie whichever solver found it
FIND_SPANS = {
    b"bananas": b"anana\n1 6 5\n",
    b"abba xyyx": b"abba\n0 4 4\n",
    b"aXa bYb": b"aXa\n0 3 3\n",
    b"abcabc": b"a\n0 1 1\n",
    b"abacdfgdcaba": b"aba\n0 3 3\n",
}


@pytest.mark.parametrize("impl", ["naive", "augmented", "indexmap", "native"])
def test_find_impl_selection(impl):
    for text, expected in FIND_SPANS.items():
        proc = run_cli("find", "--span", "--impl", impl, stdin=text)
        assert proc.returncode == 0
        assert proc.stdout == expected, text


def test_radii_bananas():
    proc = run_cli("radii", stdin=b"bananas")
    assert proc.returncode == 0
    assert proc.stdout == b"0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\n"


def test_radii_empty():
    proc = run_cli("radii")
    assert proc.returncode == 0
    assert proc.stdout == b"0\n"


def test_radii_aaaa():
    proc = run_cli("radii", stdin=b"aaaa")
    assert proc.returncode == 0
    assert proc.stdout == b"0,1,2,3,4,3,2,1,0\n"


def test_radii_peak_matches_find_span_length():
    text = b"refactoring kayak racecar noon"
    radii = run_cli("radii", stdin=text).stdout.decode().strip().split(",")
    span_line = run_cli("find", "--span", stdin=text).stdout.decode().splitlines()[-1]
    assert max(map(int, radii)) == int(span_line.split()[-1])


def test_file_input(tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("bananas")
    proc = run_cli("find", str(path))
    assert proc.stdout == b"anana\n"


def test_find_naive_over_oracle_cap_exits_2():
    proc = run_cli("find", "--impl", "naive", stdin=b"a" * 100_001)
    assert proc.returncode == 2
    assert b"oracle cap" in proc.stderr


def test_augmented_without_free_dummy_exits_2():
    proc = run_cli("--bytes", "radii", "--impl", "augmented", stdin=bytes(range(256)))
    assert proc.returncode == 2
    assert b"256 byte values" in proc.stderr


def test_cli_import_does_not_load_numpy(tmp_path):
    # nor the bench harness, dataclasses, inspect, the generator or the
    # reference solvers; and running find and radii loads no argparse,
    # gettext or locale, nor (radii on a table of several chunks, which
    # the kernel formats) threading or queue, beyond what the interpreter
    # had at start-up
    heavy = "numpy", "dataclasses", "inspect", "lps.bench", "lps.generator", "lps.reference"
    unused = "argparse", "gettext", "locale", "threading", "queue"
    path = tmp_path / "input.txt"
    path.write_text("bananas")
    unary = tmp_path / "unary.txt"
    unary.write_text("a" * native.CHUNK)  # 2 * CHUNK + 1 entries: three chunks
    probe = (
        "import sys; before = set(sys.modules); import lps.cli; "
        f"print([name for name in {heavy!r} if name in sys.modules], flush=True); "
        f"assert lps.cli.main(['find', '--span', {str(path)!r}]) == 0; "
        f"assert lps.cli.main(['radii', {str(path)!r}]) == 0; "
        f"assert lps.cli.main(['radii', {str(unary)!r}]) == 0; "
        f"print([name for name in {heavy + unused!r} if name in sys.modules and name not in before])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    n = native.CHUNK
    radii = ",".join(str(min(j, 2 * n - j)) for j in range(2 * n + 1)).encode()
    assert proc.stdout == b"[]\nanana\n1 6 5\n0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\n" + radii + b"\n[]\n"
    # lps bench itself, run in-process, loads numpy (and with it inspect) but
    # no dataclasses
    bench_argv = ["bench", "--lengths", "20", "--alphabets", "2", "--repeats", "1", "--out", os.devnull]
    probe = (
        f"import sys, lps.cli; assert lps.cli.main({bench_argv!r}) == 0; "
        "print('dataclasses' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budget was measured on CPython 3.11's parser",
)
def test_find_and_radii_compile_no_large_module(tmp_path):
    # Under PYTHONDONTWRITEBYTECODE every run compiles the package from
    # source, and the memory the parser took stays resident, so the largest
    # module compiled sets a floor under the peak RSS of every run. No module
    # find or radii load may peak above 560 KiB in compile() (lps.cli alone
    # read 937 KiB while it also held the command-line syntax).
    path = tmp_path / "input.txt"
    path.write_text("bananas")
    probe = f"""
import sys, tracemalloc, lps.cli
assert lps.cli.main(['find', '--span', {str(path)!r}]) == 0
assert lps.cli.main(['radii', {str(path)!r}]) == 0
for name, module in sorted(sys.modules.items()):
    if name.partition('.')[0] == 'lps' and module.__file__.endswith('.py'):
        with open(module.__file__, 'rb') as fh:
            source = fh.read()
        tracemalloc.start()
        compile(source, module.__file__, 'exec')
        print(name, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[:3] == ["anana", "1 6 5", "0,1,0,1,0,3,0,5,0,3,0,1,0,1,0"]
    peaks = {name: int(peak) for name, peak in (line.split() for line in lines[3:])}
    assert max(peaks.values()) <= 560 * 1024, peaks
    assert sorted(peaks) == ["lps", "lps._cmdline", "lps.cli", "lps.core", "lps.native"]


def test_package_exports_the_engine_only():
    # importing the package loads neither the bench harness, the generator
    # nor the reference solvers, and a star import binds every name of __all__
    probe = (
        "import sys, lps; "
        "print([m for m in ('lps.bench', 'lps.generator', 'lps.reference') if m in sys.modules]); "
        "from lps import *; "
        "print(lps.__all__, [n for n in lps.__all__ if n not in globals()])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    engine = ["CompareStats", "LpsResult", "Span", "compute_radii", "longest_palindrome"]
    assert proc.stdout == f"[]\n{engine} []\n".encode()


def test_only_the_entrypoint_freezes_the_heap(tmp_path, monkeypatch, capsys):
    # the frozen heap is for interpreter exit: in-process callers of main()
    # keep a collector that sees every object
    path = tmp_path / "input.txt"
    path.write_text("bananas")
    assert gc.get_freeze_count() == 0
    for argv in (["find", "--span", str(path)], ["radii", str(path)], ["find", "--impl", "naive", str(path)]):
        assert cli.main(argv) == 0
        assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["lps", "find", str(path)])
    try:
        with pytest.raises(SystemExit) as caught:
            cli.entrypoint()
        assert caught.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out == "anana\n1 6 5\n0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\nanana\nanana\n"


def test_missing_file_exits_2():
    proc = run_cli("find", "/no/such/file")
    assert proc.returncode == 2
    assert b"error" in proc.stderr


def test_invalid_utf8_exits_2():
    proc = run_cli("find", stdin=b"ab\xff\xfeba")
    assert proc.returncode == 2
    assert b"--bytes" in proc.stderr


def test_bytes_mode():
    proc = run_cli("--bytes", "find", "--span", stdin=b"ab\xff\xfe\xffba")
    assert proc.returncode == 0
    assert proc.stdout == b"ab\xff\xfe\xffba\n0 7 7\n"


def test_find_writes_utf8_whatever_the_stdout_encoding():
    proc = subprocess.run(
        [sys.executable, "-m", "lps", "find"],
        input=b"x\xc3\xa9y\xc3\xa9x",
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"x\xc3\xa9y\xc3\xa9x\n"


def test_trailing_newline_stripped_by_default():
    # "abab\n" would otherwise have LPS "aba" shifted by pipeline noise;
    # stripped, it matches the bare string
    assert run_cli("find", stdin=b"abab\n").stdout == run_cli("find", stdin=b"abab").stdout


def test_raw_keeps_trailing_newline():
    stripped = run_cli("find", "--span", stdin=b"\n\n")
    raw = run_cli("find", "--span", "--raw", stdin=b"\n\n")
    assert stripped.stdout.endswith(b"0 1 1\n")
    assert raw.stdout.endswith(b"0 2 2\n")


def test_trailing_newline_of_a_million_symbols(tmp_path):
    # the line feed is left out of the decode, not sliced off the decoded
    # text: the answer is the bare text's, from a file or from stdin
    text = gen_text(GenSpec(10**6, 3, 1)).encode()
    bare, fed = tmp_path / "bare.txt", tmp_path / "fed.txt"
    bare.write_bytes(text)
    fed.write_bytes(text + b"\n")
    find, radii = run_cli("find", "--span", str(bare)).stdout, run_cli("radii", str(bare)).stdout
    assert find.endswith(b"283130 283155 25\n")
    for source, stdin in ((str(fed), b""), ("-", text + b"\n")):
        assert run_cli("find", "--span", source, stdin=stdin).stdout == find, source
        assert run_cli("radii", source, stdin=stdin).stdout == radii, source
        # --raw scans it as a symbol of its own: a palindrome of one, at the end
        assert run_cli("radii", "--raw", source, stdin=stdin).stdout == radii[:-1] + b",1,0\n", source
    # no third buffer beside the bytes read and the decoded text
    tracemalloc.start()
    cli._read_input(str(fed), as_bytes=False, raw=False)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * len(text) + 2**16


def test_carriage_return_before_the_stripped_newline_is_a_symbol():
    # text mode strips exactly one trailing "\n" and keeps "\r": "aba\r" is scanned
    assert run_cli("find", "--span", stdin=b"aba\r\n").stdout == b"aba\n0 3 3\n"
    assert run_cli("radii", stdin=b"aba\r\n").stdout == b"0,1,0,3,0,1,0,1,0\n"
    assert run_cli("find", "--span", "--raw", stdin=b"aba\r\n").stdout == b"aba\n0 3 3\n"
    assert run_cli("radii", "--raw", stdin=b"aba\r\n").stdout == b"0,1,0,3,0,1,0,1,0,1,0\n"


@pytest.mark.parametrize(
    "args, stdin",
    [
        ((), b""),
        ((), b"a" * 100_000),
        ((), "x\u00e9\U0001f600\u00e9x\U0001f600".encode()),
        (("--bytes",), b"\x00\xffa\xff\x00\x00"),
    ],
    ids=["empty", "unary-1e5", "astral", "bytes"],
)
def test_radii_default_engine_matches_indexmap_byte_for_byte(args, stdin):
    default = run_cli(*args, "radii", stdin=stdin)
    python = run_cli(*args, "radii", "--impl", "indexmap", stdin=stdin)
    assert (default.returncode, default.stderr) == (0, b"")  # no fallback note: the kernel ran
    assert python.returncode == 0
    assert default.stdout == python.stdout
    if not stdin:
        assert default.stdout == b"0\n"


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no-kernel"])
def test_radii_solves_through_the_default_engine_once(monkeypatch, tmp_path, capsys, kernel):
    # lps radii solves as lps find does, with one core.compute_radii call,
    # and then writes that table, whichever engine the call ran
    if not kernel:
        monkeypatch.setattr(native, "_module", None)
        monkeypatch.setattr(native, "_error", core.Unsupported("cannot load the compiled kernel: simulated"))
        monkeypatch.setattr(native, "_noted", True)
    solved = []
    solve = core.compute_radii
    monkeypatch.setattr(core, "compute_radii", lambda text: solved.append(text) or solve(text))
    inputs = {
        "empty": b"",
        "bananas": b"bananas",
        "unary": b"a" * native.CHUNK,  # three chunks, an int32 table
        "astral": "x\u00e9\U0001f600\u00e9x".encode(),
    }
    for name, data in inputs.items():
        path = tmp_path / name
        path.write_bytes(data)
        for args, text in (([], data.decode()), (["--bytes"], data)):
            solved.clear()
            assert cli.main([*args, "radii", str(path)]) == cli.EXIT_OK
            assert solved == [text], (name, args)
            radii = core.python_radii(text)[0]
            assert capsys.readouterr() == (",".join(map(str, radii)) + "\n", ""), (name, args)


def test_radii_into_a_closed_pipe_exits_0_quietly(tmp_path):
    path = tmp_path / "unary.txt"
    path.write_bytes(b"a" * 100_000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lps", "radii", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20) == b"0,1,2,3,4,5,6,7,8,9,"
    proc.stdout.close()  # the reader goes away while lps radii still has output to write
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_unknown_flag_exits_64():
    proc = run_cli("find", "--frobnicate")
    assert proc.returncode == 64


def test_unknown_impl_exits_64():
    proc = run_cli("find", "--impl", "turbo", stdin=b"x")
    assert proc.returncode == 64


def test_gen_golden():
    proc = run_cli("gen", "--length", "16", "--alphabet", "2", "--seed", "42")
    assert proc.returncode == 0
    assert proc.stdout == b"bbaaaabababaabaa"


def test_gen_empty():
    proc = run_cli("gen", "--length", "0", "--alphabet", "2", "--seed", "1")
    assert proc.returncode == 0
    assert proc.stdout == b""


def test_gen_unary():
    proc = run_cli("gen", "--length", "8", "--alphabet", "1", "--seed", "9")
    assert proc.stdout == b"aaaaaaaa"


def test_gen_newline_flag():
    proc = run_cli("gen", "--length", "4", "--alphabet", "1", "--seed", "0", "--newline")
    assert proc.stdout == b"aaaa\n"


def test_gen_invalid_alphabet_exits_64():
    proc = run_cli("gen", "--length", "4", "--alphabet", "27", "--seed", "0")
    assert proc.returncode == 64
    assert b"alphabet" in proc.stderr


def test_gen_negative_length_exits_64():
    proc = run_cli("gen", "--length", "-3", "--alphabet", "2", "--seed", "0")
    assert proc.returncode == 64


def test_gen_feeds_find():
    text = run_cli("gen", "--length", "200", "--alphabet", "2", "--seed", "5").stdout
    proc = run_cli("find", "--span", stdin=text)
    assert proc.returncode == 0
    start, end, length = map(int, proc.stdout.decode().splitlines()[-1].split())
    assert 0 < length <= 200
    segment = text[start:end]
    assert segment == segment[::-1]


def test_bench_csv_round_trips():
    proc = run_cli(
        "bench", "--lengths", "200,400", "--alphabets", "2", "--repeats", "2", "--seed", "3"
    )
    assert proc.returncode == 0
    records, summaries = parse_csv(proc.stdout.decode())
    assert len(records) == 2 * len(IMPLS) * 2
    assert len(summaries) == 2 * len(IMPLS)
    assert all(r.outcome == "ok" for r in records)


def test_bench_deterministic_modulo_timing():
    args = ("bench", "--lengths", "150", "--alphabets", "3", "--repeats", "2", "--seed", "7")
    first = run_cli(*args).stdout.decode()
    second = run_cli(*args).stdout.decode()

    def strip_wall(csv_text):
        rows = [line.split(",") for line in csv_text.strip().split("\n")]
        return [row[:4] + row[5:] for row in rows]

    assert strip_wall(first) == strip_wall(second)


def test_bench_table_format():
    proc = run_cli(
        "bench",
        "--lengths", "100",
        "--alphabets", "2",
        "--repeats", "1",
        "--impls", "indexmap",
        "--format", "table",
    )
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "alphabet=2" in out
    assert "indexmap" in out
    assert "naive" not in out


def test_bench_out_file(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli(
        "bench", "--lengths", "100", "--alphabets", "2", "--repeats", "1", "--out", str(out)
    )
    assert proc.returncode == 0
    assert proc.stdout == b""
    records, _ = parse_csv(out.read_text())
    assert len(records) == len(IMPLS)


def test_bench_unwritable_out_fails_before_running(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench, "run_bench", lambda *args, **kwargs: calls.append(args) or [])
    out = tmp_path / "missing" / "report.csv"
    code = cli.main(["bench", "--lengths", "10", "--alphabets", "2", "--out", str(out)])
    assert code == 2
    assert calls == []


def test_engine_value_error_is_not_a_usage_error(monkeypatch, tmp_path):
    def broken(text):
        raise ValueError("engine bug")

    monkeypatch.setitem(reference.SOLVERS, "indexmap", broken)
    path = tmp_path / "input.txt"
    path.write_text("abc")
    with pytest.raises(ValueError, match="engine bug"):
        cli.main(["find", "--impl", "indexmap", str(path)])


def test_bench_bad_lengths_exit_64():
    proc = run_cli("bench", "--lengths", "10,x", "--alphabets", "2")
    assert proc.returncode == 64


def test_bench_bad_grid_exits_64_and_keeps_out(tmp_path):
    # the grid is checked before --out is opened, so the file keeps its bytes
    out = tmp_path / "report.csv"
    out.write_bytes(b"earlier report\n")
    for bad in (["--alphabets", "27"], ["--lengths", "100,-3"], ["--seed", "-1"]):
        # a repeated option replaces the earlier value
        proc = run_cli("bench", "--lengths", "100", "--alphabets", "2", *bad, "--out", str(out))
        assert proc.returncode == 64, bad
        assert out.read_bytes() == b"earlier report\n", bad


def test_bench_bad_impls_exit_64():
    proc = run_cli("bench", "--lengths", "10", "--alphabets", "2", "--impls", "turbo")
    assert proc.returncode == 64


def test_no_command_exits_64():
    proc = run_cli()
    assert proc.returncode == 64


# command lines and what they parse to, or EXIT_USAGE or the error message: argparse's syntax
PARSES = [
    (["find", "--impl", "naive", "in.txt"], {"command": "find", "impl": "naive", "input": "in.txt", "span": False}),
    (["find", "--impl=naive"], {"impl": "naive", "input": "-"}),
    (["radii", "--impl", "naive", "--impl=indexmap"], {"impl": "indexmap"}),  # the last one wins
    (["gen", "--length", "-3", "--alphabet", "2", "--seed", "5", "--seed", "-1"], {"length": -3, "seed": -1}),
    (["bench", "--len", "1,2", "--alphabets=3", "--f", "table"], {"lengths": (1, 2), "alphabets": (3,), "format": "table"}),
    (["find", "--sp"], {"span": True}),
    (["--bytes", "radii", "--ra", "-"], {"as_bytes": True, "raw": True, "input": "-"}),
    (["find", "--", "-x"], {"input": "-x"}),
    (["find", "in.txt", "--span"], {"input": "in.txt", "span": True}),
    (["bench", "--lengths", "1", "--alphabets", "2", "--o", "5"], {"out": "5"}),
    (["bench", "--lengths", "1", "--alphabets", "2", "--oracle-cap", "5"], "unrecognized arguments: --oracle-cap 5"),
    (["--", "find"], "ambiguous option: -- could match --help, --bytes"),
    (["find", "--span=1"], cli.EXIT_USAGE),
    (["radii", "--impl"], cli.EXIT_USAGE),
    (["radii", "--impl", "--raw"], cli.EXIT_USAGE),
    (["find", "a", "b"], cli.EXIT_USAGE),
    (["gen", "--length", "3"], cli.EXIT_USAGE),
    (["gen", "--length", "x", "--alphabet", "2"], cli.EXIT_USAGE),
    ([], cli.EXIT_USAGE),
    (["turbo"], cli.EXIT_USAGE),
    (["find", "--bytes"], cli.EXIT_USAGE),  # a global option goes before the command
]


@pytest.mark.parametrize("argv, expected", PARSES, ids=[" ".join(argv) or "-" for argv, _ in PARSES])
def test_command_line_syntax(argv, expected, capsys):
    if not isinstance(expected, dict):
        assert cli.main(argv) == cli.EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage: lps") and "\nlps: error: " in out.err
        assert expected == cli.EXIT_USAGE or out.err.endswith(f"\nlps: error: {expected}\n")
    else:
        args = vars(cli._parse(argv))
        assert {name: args[name] for name in expected} == expected


@pytest.mark.parametrize("argv", [["-h"], ["find", "-h"], ["--bytes", "radii", "--help"], ["bench", "--he"]])
def test_help_prints_usage_and_exits_0(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr()
    assert out.out.startswith("usage: lps") and out.err == ""
    command = argv[-2] if len(argv) > 1 else None
    for option in cli._OPTIONS[command]:
        assert f"\n  {option}" in out.out


BENCH_ARGS = ["bench", "--lengths", "10", "--alphabets", "2", "--repeats", "1", "--impls", "indexmap"]
WRITES = {"find": ["find", "--span"], "radii": ["radii"], "gen": ["gen", "--length", "10", "--alphabet", "2"],
          "bench": BENCH_ARGS, "help": ["find", "-h"]}


def closed(stream: str, *args: str) -> list[str]:
    """A command running ``lps ARGS`` with descriptor 0 ("<"), 1 (">") or 2 ("2>") closed."""
    return ["sh", "-c", f'exec "$@" {stream}&-', "sh", sys.executable, "-m", "lps", *args]


@pytest.mark.parametrize(
    "args, stdout",
    [*((args, "/dev/full") for args in WRITES.values()), ([*BENCH_ARGS, "--out", "/dev/full"], "/dev/full"),
     *((args, None) for args in WRITES.values())],
    ids=[*WRITES, "bench-out", *(f"{name}-closed" for name in WRITES)],
)
def test_failed_write_exits_74(args, stdout):
    # a full device or a closed stdout is an output error, reported once,
    # not an input error or a traceback
    if stdout is None:
        proc = subprocess.run(closed(">", *args), input=b"bananas", stderr=subprocess.PIPE, timeout=120)
        reason = b"standard output is closed"
    elif not os.path.exists(stdout):
        pytest.skip(f"needs {stdout}")
    else:
        with open(stdout, "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "lps", *args], input=b"bananas", stdout=full, stderr=subprocess.PIPE,
                timeout=120,
            )
        reason = b"No space left on device"
    assert proc.returncode == cli.EXIT_OUTPUT
    assert proc.stderr.startswith(b"lps: error: cannot write the output: "), proc.stderr
    assert proc.stderr.count(b"\n") == 1 and reason in proc.stderr


@pytest.mark.parametrize(
    "args, code",
    [(["find", "/no/such/file"], cli.EXIT_INPUT), (["find", "--bogus"], cli.EXIT_USAGE),
     (["find", "input.txt"], cli.EXIT_OUTPUT)],
    ids=["input", "usage", "output"],
)
def test_closed_stderr_keeps_the_exit_code(args, code, tmp_path):
    # the error line is dropped: not written to stdout, not a traceback
    (tmp_path / "input.txt").write_text("bananas")
    if code != cli.EXIT_OUTPUT:
        proc = subprocess.run(closed("2>", *args), stdout=subprocess.PIPE, cwd=tmp_path, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, b"")
    elif not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    else:
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(closed("2>", *args), stdout=full, cwd=tmp_path, timeout=120)
        assert proc.returncode == code


def test_bench_out_needs_no_stdout(tmp_path):
    out = tmp_path / "bench.csv"
    proc = subprocess.run(closed(">", *BENCH_ARGS, "--out", str(out)), stderr=subprocess.PIPE, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    records, _ = parse_csv(out.read_text())
    assert [record.impl for record in records] == ["indexmap"]


def test_closed_stdin_exits_2(tmp_path):
    # only the input "-" needs stdin: a closed one is an input error
    proc = subprocess.run(closed("<", "find"), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INPUT, b"")
    assert proc.stderr == b"lps: error: cannot read the input: standard input is closed\n"
    path = tmp_path / "input.txt"
    path.write_text("bananas")
    proc = subprocess.run(closed("<", "find", str(path)), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"anana\n", b"")
