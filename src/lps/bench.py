"""Wall-clock benchmark harness for the radii implementations.

Protocol: for every (length, alphabet) cell one string is generated per
repeat (seed = base seed + repeat index) and every selected implementation
is timed on those same strings, so within a cell the comparison is
like-for-like. Each implementation gets one untimed warm-up pass per cell.
Trials run strictly sequentially.

Implementations are the entries of :data:`lps.reference.SOLVERS`: "naive"
(quadratic oracle), "augmented" (materialized dummy-interleaved buffer),
"indexmap" (the virtual augmentation engine) and "native" (the same scan
compiled, see :mod:`lps.native`). The naive one is skipped, not errored,
above the oracle cap; a MemoryError in any of them is recorded as an
out_of_memory outcome for that trial instead of aborting the run.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

from . import native, reference
from .generator import MASK64, GenSpec, UsageError, gen_text

IMPLS = tuple(reference.SOLVERS)

CSV_HEADER = "impl,length,alphabet,repeat,wall_seconds,comparisons,outcome"

__all__ = [
    "CSV_HEADER",
    "IMPLS",
    "BenchRecord",
    "BenchSpec",
    "default_impls",
    "parse_csv",
    "run_bench",
    "summarize",
    "to_csv",
    "to_table",
]


def default_impls() -> tuple[str, ...]:
    """Every implementation but "native" where the kernel cannot be built
    (which says so once on stderr)."""
    return tuple(name for name in IMPLS if name != "native" or native.available())


class _BenchFields(NamedTuple):
    lengths: tuple[int, ...]
    alphabet_sizes: tuple[int, ...]
    repeats: int
    impls: tuple[str, ...]
    seed: int


class BenchSpec(_BenchFields):
    """The grid to time: lengths x alphabet sizes, ``repeats`` strings per
    cell, the implementations (default: :func:`default_impls`) and the base
    seed. Every value is checked here, before anything runs."""

    __slots__ = ()

    def __new__(
        cls,
        lengths: tuple[int, ...],
        alphabet_sizes: tuple[int, ...],
        repeats: int = 3,
        impls: tuple[str, ...] | None = None,
        seed: int = 0,
    ) -> BenchSpec:
        if not lengths:
            raise UsageError("need at least one length")
        if not alphabet_sizes:
            raise UsageError("need at least one alphabet size")
        for length in lengths:
            for alphabet in alphabet_sizes:
                GenSpec(length, alphabet, seed)  # the generator's range checks
        if repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {repeats}")
        if impls is None:
            impls = default_impls()
        if not impls:
            raise UsageError("need at least one implementation")
        unknown = [name for name in impls if name not in IMPLS]
        if unknown:
            raise UsageError(f"unknown implementations: {unknown}; choose from {IMPLS}")
        return super().__new__(cls, lengths, alphabet_sizes, repeats, impls, seed)

    @classmethod
    def _make(cls, iterable) -> BenchSpec:
        # the tuple helpers (_replace too) build through __new__, so they check
        return cls(*iterable)


class BenchRecord(NamedTuple):
    """One CSV row. A trial has its repeat number, an int ``comparisons``
    when the outcome is ok and None otherwise. An average has repeat
    "avg", means over the group's ok trials (None if there are none) and
    the first failed outcome, or ok."""

    impl: str
    length: int
    alphabet_size: int
    repeat: int | str
    wall_seconds: float | None
    comparisons: float | None
    outcome: str


def _run_impl(impl: str, text: str, oracle_cap: int) -> tuple[float, int | None, str]:
    """Time one implementation on one string: (seconds, comparisons, outcome)."""
    limits = {"cap": oracle_cap} if impl == "naive" else {}
    start = perf_counter()
    try:
        _, stats = reference.SOLVERS[impl](text, **limits)
    except reference.OracleCapExceeded:
        return 0.0, None, "skipped"
    except MemoryError:
        return perf_counter() - start, None, "out_of_memory"
    return perf_counter() - start, stats.comparisons, "ok"


def run_bench(spec: BenchSpec, *, oracle_cap: int = reference.ORACLE_CAP) -> list[BenchRecord]:
    """Run the full grid and return one record per (length, alphabet, impl, repeat)."""
    records: list[BenchRecord] = []
    for length in spec.lengths:
        for alphabet in spec.alphabet_sizes:
            texts = [
                gen_text(GenSpec(length, alphabet, (spec.seed + repeat) & MASK64))
                for repeat in range(spec.repeats)
            ]
            for impl in spec.impls:
                _run_impl(impl, texts[0], oracle_cap)  # warm-up pass, discarded
                for repeat, text in enumerate(texts):
                    trial = _run_impl(impl, text, oracle_cap)
                    records.append(BenchRecord(impl, length, alphabet, repeat, *trial))
    return records


def _groups(records: list[BenchRecord]) -> list[list[BenchRecord]]:
    """The records of each (impl, length, alphabet), in first-seen order."""
    groups: dict[tuple[str, int, int], list[BenchRecord]] = {}
    for record in records:
        groups.setdefault(record[:3], []).append(record)
    return list(groups.values())


def _average(group: list[BenchRecord]) -> BenchRecord:
    ok = [r for r in group if r.outcome == "ok"]
    return group[0]._replace(
        repeat="avg",
        wall_seconds=sum(r.wall_seconds for r in ok) / len(ok) if ok else None,
        comparisons=sum(r.comparisons for r in ok) / len(ok) if ok else None,
        outcome=next((r.outcome for r in group if r.outcome != "ok"), "ok"),
    )


def summarize(records: list[BenchRecord]) -> list[BenchRecord]:
    """The average row of each (impl, length, alphabet) group, in first-seen order."""
    return [_average(group) for group in _groups(records)]


def _csv_row(record: BenchRecord) -> str:
    return ",".join("" if p is None else repr(p) if isinstance(p, float) else str(p) for p in record)


def to_csv(records: list[BenchRecord]) -> str:
    """Records as CSV, one averaged row (repeat column "avg") after each group.

    Floats are written with repr() so parse_csv round-trips them exactly.
    """
    lines = [CSV_HEADER]
    for group in _groups(records):
        lines.extend(_csv_row(record) for record in [*group, _average(group)])
    return "\n".join(lines) + "\n"


def _parse_row(line: str) -> BenchRecord:
    impl, length, alphabet, repeat, seconds, comparisons, outcome = line.split(",")
    avg = repeat == "avg"
    return BenchRecord(
        impl,
        int(length),
        int(alphabet),
        repeat if avg else int(repeat),
        float(seconds) if seconds else None,
        (float if avg else int)(comparisons) if comparisons else None,
        outcome,
    )


def parse_csv(text: str) -> tuple[list[BenchRecord], list[BenchRecord]]:
    """Inverse of to_csv: (trial records, average records)."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    rows = [_parse_row(line) for line in lines[1:]]
    return [r for r in rows if r.repeat != "avg"], [r for r in rows if r.repeat == "avg"]


def _cell_text(summary: BenchRecord) -> str:
    if summary.outcome == "out_of_memory":
        return "OutOfMemory"
    if summary.outcome == "skipped":
        return "skipped"
    return f"{summary.wall_seconds:.2f}"


def to_table(records: list[BenchRecord]) -> str:
    """Human-readable report: one block per alphabet size, rows = lengths,
    columns = implementations, cells = averaged seconds (two decimals)."""
    summaries = summarize(records)
    by_cell = {(s.alphabet_size, s.length, s.impl): s for s in summaries}
    alphabets = sorted({s.alphabet_size for s in summaries})
    lengths = sorted({s.length for s in summaries})
    impls = [name for name in IMPLS if any(s.impl == name for s in summaries)]

    blocks = []
    for alphabet in alphabets:
        rows = [["length"] + list(impls)]
        for length in lengths:
            row = [str(length)]
            for impl in impls:
                summary = by_cell.get((alphabet, length, impl))
                row.append(_cell_text(summary) if summary else "-")
            rows.append(row)
        widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
        lines = [f"alphabet={alphabet}"]
        lines.extend(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in rows
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
