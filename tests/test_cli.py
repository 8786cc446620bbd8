"""End-to-end process tests for the lps command."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from lps import bench, cli, reference
from lps.bench import IMPLS, parse_csv


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


@pytest.mark.parametrize("impl", ["naive", "augmented", "indexmap", "native"])
def test_find_impl_selection(impl):
    proc = run_cli("find", "--impl", impl, stdin=b"bananas")
    assert proc.returncode == 0
    assert proc.stdout == b"anana\n"


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


def test_cli_import_does_not_load_numpy():
    # nor the bench harness, dataclasses or inspect
    heavy = "numpy", "dataclasses", "inspect", "lps.bench"
    probe = f"import sys, lps.cli; print([name for name in {heavy!r} if name in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"
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
