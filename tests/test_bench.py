"""Tests for the benchmark harness."""

from __future__ import annotations

import pytest

from lps import bench, cli, native, reference
from lps.bench import (
    CSV_HEADER,
    IMPLS,
    BenchRecord,
    BenchSpec,
    parse_csv,
    run_bench,
    summarize,
    to_csv,
    to_table,
)
from lps.core import Unsupported, compute_radii
from lps.generator import GenSpec, gen_text
from lps.reference import SOLVERS

SMALL = BenchSpec(lengths=(1000,), alphabet_sizes=(2,), repeats=3, seed=0)


def test_a_kernel_that_cannot_load_is_skipped(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_error", Unsupported("cannot load the compiled kernel: simulated"))
    # a grid does not load the kernel; its trials are skipped
    spec = BenchSpec(lengths=(10,), alphabet_sizes=(2,), repeats=2)
    assert spec.impls == IMPLS
    for grid in (spec, spec._replace(impls=("indexmap", "native"))):
        for record in run_bench(grid):
            assert (record.outcome == "skipped") == (record.impl == "native"), record
    assert capsys.readouterr().err == ""
    # lps bench --impls native fails before its --out file is opened
    out = tmp_path / "report.csv"
    out.write_text("earlier report\n")
    argv = ["bench", "--lengths", "10", "--alphabets", "2", "--impls", "indexmap,native", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "lps: error: cannot load the compiled kernel: simulated\n"
    assert out.read_text() == "earlier report\n"


@pytest.fixture(scope="module")
def small_records():
    return run_bench(SMALL)


def test_counting_contract(small_records):
    # 1 cell x every impl x 3 repeats
    assert len(small_records) == len(IMPLS) * 3
    lines = to_csv(small_records).rstrip("\n").split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(IMPLS) * 3 + len(IMPLS)  # header, trials, one avg row per impl
    avg_rows = [line for line in lines if ",avg," in line]
    assert len(avg_rows) == len(IMPLS)


def test_all_ok_and_comparisons_present(small_records):
    for record in small_records:
        assert record.outcome == "ok"
        assert record.comparisons is not None
        assert record.wall_seconds >= 0


def test_fairness_same_string_for_all_impls(small_records):
    # comparison counts are deterministic per string, so pinning each trial's
    # count to an out-of-band run on gen(seed + repeat) proves which string
    # the harness fed in
    for repeat in range(3):
        text = gen_text(GenSpec(1000, 2, repeat))
        _, stats = SOLVERS["naive"](text)
        (record,) = [
            r for r in small_records if r.impl == "naive" and r.repeat == repeat
        ]
        assert record.comparisons == stats.comparisons


def test_indexmap_linearity_from_records(small_records):
    for record in small_records:
        if record.impl == "indexmap":
            assert record.comparisons <= 4 * (record.length + 1)


def test_csv_round_trip(small_records):
    text = to_csv(small_records)
    records, summaries = parse_csv(text)
    assert records == small_records
    assert summaries == summarize(small_records)


def test_csv_deterministic_modulo_timing(small_records):
    other = run_bench(SMALL)

    def strip_wall(csv_text):
        rows = [line.split(",") for line in csv_text.rstrip("\n").split("\n")]
        return [row[:4] + row[5:] for row in rows]

    assert strip_wall(to_csv(small_records)) == strip_wall(to_csv(other))


def test_parse_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_csv("nope\n")


def test_summarize_averages():
    records = [
        BenchRecord("indexmap", 10, 2, 0, 1.0, 40, "ok"),
        BenchRecord("augmented", 10, 2, 0, 0.5, 60, "ok"),
        BenchRecord("indexmap", 10, 2, 1, 3.0, 44, "ok"),
        BenchRecord("augmented", 10, 2, 1, 0.1, None, "out_of_memory"),
    ]
    summary, mixed = summarize(records)
    assert summary == ("indexmap", 10, 2, "avg", 2.0, 42.0, "ok")
    # a mixed group averages its ok trials only and reports the failure
    assert mixed == ("augmented", 10, 2, "avg", 0.5, 60.0, "out_of_memory")


def test_summarize_all_failed_group():
    records = [BenchRecord("augmented", 10, 2, 0, 0.1, None, "out_of_memory")]
    (summary,) = summarize(records)
    assert summary.wall_seconds is None
    assert summary.comparisons is None
    assert summary.outcome == "out_of_memory"


def test_naive_skipped_above_cap(monkeypatch):
    monkeypatch.setattr(reference, "ORACLE_CAP", 100)
    spec = BenchSpec(lengths=(50, 200), alphabet_sizes=(2,), repeats=2, seed=1)
    records = run_bench(spec)
    for record in records:
        if record.impl == "naive" and record.length == 200:
            assert record.outcome == "skipped"
            assert record.comparisons is None
        else:
            assert record.outcome == "ok"


def test_unsupported_texts_are_skipped(monkeypatch):
    # every entry takes the text alone and raises Unsupported on one it
    # cannot run here; the bench records each such trial as skipped
    every_byte = bytes(range(256))
    monkeypatch.setattr(reference, "ORACLE_CAP", 255)
    monkeypatch.setattr(native, "MAX_SYMBOLS", 255)
    reasons = {
        "naive": "^text length 256 exceeds oracle cap 255$",
        "augmented": "^all 256 byte values occur in the text$",
        "native": "^the compiled kernel takes at most 255 symbols, got 256$",
    }
    for name, reason in reasons.items():
        with pytest.raises(Unsupported, match=reason):
            SOLVERS[name](every_byte)
    monkeypatch.setattr(bench, "gen_text", lambda spec: every_byte)
    records = run_bench(BenchSpec(lengths=(256,), alphabet_sizes=(2,), repeats=2, impls=IMPLS))
    assert len(records) == 2 * len(IMPLS)
    comparisons = SOLVERS["indexmap"](every_byte)[1].comparisons
    for record in records:
        expected = ("ok", comparisons) if record.impl == "indexmap" else ("skipped", None)
        assert (record.outcome, record.comparisons) == expected, record
    assert "naive,256,2,0,0.0,,skipped" in to_csv(records).splitlines()


def _out_of_memory(text):
    raise MemoryError(f"no room for {2 * len(text) + 1} symbols")


def test_out_of_memory_injection(monkeypatch):
    monkeypatch.setattr(reference, "augmented_radii", _out_of_memory)
    spec = BenchSpec(lengths=(100,), alphabet_sizes=(2,), repeats=2, seed=0)
    records = run_bench(spec)
    for record in records:
        if record.impl == "augmented":
            assert record.outcome == "out_of_memory"
            assert record.comparisons is None
        else:
            assert record.outcome == "ok"
    # the failure must not abort the run: every trial is still recorded
    assert len(records) == len(IMPLS) * 2


def test_out_of_memory_in_csv_and_table(monkeypatch):
    monkeypatch.setattr(reference, "augmented_radii", _out_of_memory)
    monkeypatch.setattr(reference, "ORACLE_CAP", 50)
    spec = BenchSpec(lengths=(100,), alphabet_sizes=(2,), repeats=1, seed=0)
    records = run_bench(spec)
    csv_text = to_csv(records)
    assert "out_of_memory" in csv_text
    assert "skipped" in csv_text
    table = to_table(records)
    assert "OutOfMemory" in table
    assert "skipped" in table
    assert "alphabet=2" in table


def test_table_layout():
    spec = BenchSpec(lengths=(50, 100), alphabet_sizes=(2, 3), repeats=1, seed=0)
    table = to_table(run_bench(spec))
    assert "alphabet=2" in table and "alphabet=3" in table
    header_lines = [line for line in table.split("\n") if line.startswith("length")]
    assert len(header_lines) == 2
    for line in header_lines:
        assert list(IMPLS) == line.split()[1:]
    # cells carry two-decimal seconds
    assert any(".0" in line or "." in line for line in table.split("\n")[2:])


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchSpec(lengths=(), alphabet_sizes=(2,))
    with pytest.raises(ValueError):
        BenchSpec(lengths=(10,), alphabet_sizes=())
    with pytest.raises(ValueError):
        BenchSpec(lengths=(10,), alphabet_sizes=(2,), repeats=0)
    with pytest.raises(ValueError):
        BenchSpec(lengths=(10,), alphabet_sizes=(2,), impls=("turbo",))
    # each length, alphabet size and the seed passes the generator's checks
    for bad in ({"lengths": (10, -3)}, {"alphabet_sizes": (2, 27)}, {"seed": -1}, {"seed": 1 << 64}):
        with pytest.raises(ValueError):
            BenchSpec(**{"lengths": (10,), "alphabet_sizes": (2,), **bad})
    with pytest.raises(ValueError):
        SMALL._replace(repeats=0)


def test_warmup_excluded_from_records():
    # repeats=1 must yield exactly one record per impl even though each
    # impl also ran once untimed
    spec = BenchSpec(lengths=(64,), alphabet_sizes=(2,), repeats=1, seed=5)
    records = run_bench(spec)
    assert len(records) == len(IMPLS)
    assert sorted(r.impl for r in records) == sorted(IMPLS)


def test_records_match_direct_computation():
    spec = BenchSpec(lengths=(300,), alphabet_sizes=(3,), repeats=1, impls=("indexmap",), seed=9)
    (record,) = run_bench(spec)
    _, stats = compute_radii(gen_text(GenSpec(300, 3, 9)))
    assert record.comparisons == stats.comparisons
