"""Wall-clock benchmark harness for the radii implementations.

Protocol: for every (length, alphabet) cell one string is generated per
repeat (seed = base seed + repeat index) and every selected implementation
is timed on those same strings, so within a cell the comparison is
like-for-like. Each implementation gets one untimed warm-up pass per cell.
Trials run strictly sequentially.

Implementations are the entries of :data:`lps.reference.SOLVERS`: "naive"
(quadratic oracle), "augmented" (materialized dummy-interleaved buffer),
"indexmap" (the virtual augmentation engine) and "native" (the same scan
compiled, see :mod:`lps.native`). The naive one is
skipped, not errored, above the oracle cap; an allocation failure in the
augmented one is recorded as an out_of_memory outcome for that trial
instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from . import native, reference
from .generator import MASK64, GenSpec, UsageError, gen_text

IMPLS = tuple(reference.SOLVERS)

CSV_HEADER = "impl,length,alphabet,repeat,wall_seconds,comparisons,outcome"

__all__ = [
    "CSV_HEADER",
    "IMPLS",
    "BenchRecord",
    "BenchSpec",
    "BenchSummary",
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


@dataclass(frozen=True)
class BenchSpec:
    lengths: tuple[int, ...]
    alphabet_sizes: tuple[int, ...]
    repeats: int = 3
    impls: tuple[str, ...] = field(default_factory=default_impls)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lengths:
            raise UsageError("need at least one length")
        if not self.alphabet_sizes:
            raise UsageError("need at least one alphabet size")
        if self.repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {self.repeats}")
        if not self.impls:
            raise UsageError("need at least one implementation")
        unknown = [name for name in self.impls if name not in IMPLS]
        if unknown:
            raise UsageError(f"unknown implementations: {unknown}; choose from {IMPLS}")


@dataclass(frozen=True)
class BenchRecord:
    """One timed trial. ``comparisons`` is None unless the outcome is ok."""

    impl: str
    length: int
    alphabet_size: int
    repeat: int
    wall_seconds: float
    comparisons: int | None
    outcome: str


@dataclass(frozen=True)
class BenchSummary:
    """Per (impl, length, alphabet) averages over the ok trials."""

    impl: str
    length: int
    alphabet_size: int
    wall_seconds: float | None
    comparisons: float | None
    outcome: str


def _run_impl(
    impl: str,
    text: str,
    *,
    oracle_cap: int,
    augmented_alloc_cap: int | None,
) -> tuple[float, int | None, str]:
    """Time one implementation on one string: (seconds, comparisons, outcome)."""
    if impl == "naive" and len(text) > oracle_cap:
        return 0.0, None, "skipped"
    limits = {"naive": {"cap": oracle_cap}, "augmented": {"alloc_cap": augmented_alloc_cap}}
    start = perf_counter()
    try:
        _, stats = reference.SOLVERS[impl](text, **limits.get(impl, {}))
    except MemoryError:
        return perf_counter() - start, None, "out_of_memory"
    return perf_counter() - start, stats.comparisons, "ok"


def run_bench(
    spec: BenchSpec,
    *,
    oracle_cap: int = reference.ORACLE_CAP,
    augmented_alloc_cap: int | None = None,
) -> list[BenchRecord]:
    """Run the full grid and return one record per (length, alphabet, impl, repeat).

    ``augmented_alloc_cap`` bounds the augmented implementation's buffer
    allocation (in symbols); trials over the cap come back as out_of_memory.
    """

    def trial(impl: str, text: str) -> tuple[float, int | None, str]:
        return _run_impl(impl, text, oracle_cap=oracle_cap, augmented_alloc_cap=augmented_alloc_cap)

    records: list[BenchRecord] = []
    for length in spec.lengths:
        for alphabet in spec.alphabet_sizes:
            texts = [
                gen_text(GenSpec(length, alphabet, (spec.seed + repeat) & MASK64))
                for repeat in range(spec.repeats)
            ]
            for impl in spec.impls:
                trial(impl, texts[0])  # warm-up pass, discarded
                for repeat, text in enumerate(texts):
                    seconds, comparisons, outcome = trial(impl, text)
                    records.append(
                        BenchRecord(
                            impl=impl,
                            length=length,
                            alphabet_size=alphabet,
                            repeat=repeat,
                            wall_seconds=seconds,
                            comparisons=comparisons,
                            outcome=outcome,
                        )
                    )
    return records


def _group_key(record: BenchRecord) -> tuple[str, int, int]:
    return record.impl, record.length, record.alphabet_size


def summarize(records: list[BenchRecord]) -> list[BenchSummary]:
    """Average each (impl, length, alphabet) group, in first-seen order."""
    groups: dict[tuple[str, int, int], list[BenchRecord]] = {}
    for record in records:
        groups.setdefault(_group_key(record), []).append(record)
    summaries = []
    for (impl, length, alphabet), group in groups.items():
        ok = [r for r in group if r.outcome == "ok"]
        bad = [r.outcome for r in group if r.outcome != "ok"]
        summaries.append(
            BenchSummary(
                impl=impl,
                length=length,
                alphabet_size=alphabet,
                wall_seconds=sum(r.wall_seconds for r in ok) / len(ok) if ok else None,
                comparisons=sum(r.comparisons for r in ok) / len(ok) if ok else None,
                outcome="ok" if not bad else bad[0],
            )
        )
    return summaries


def _csv_row(parts: list[object]) -> str:
    return ",".join("" if p is None else repr(p) if isinstance(p, float) else str(p) for p in parts)


def to_csv(records: list[BenchRecord]) -> str:
    """Records as CSV, one averaged row (repeat column "avg") after each group.

    Floats are written with repr() so parse_csv round-trips them exactly.
    """
    lines = [CSV_HEADER]
    for summary in summarize(records):
        for record in records:
            if _group_key(record) != (summary.impl, summary.length, summary.alphabet_size):
                continue
            lines.append(
                _csv_row(
                    [
                        record.impl,
                        record.length,
                        record.alphabet_size,
                        record.repeat,
                        record.wall_seconds,
                        record.comparisons,
                        record.outcome,
                    ]
                )
            )
        lines.append(
            _csv_row(
                [
                    summary.impl,
                    summary.length,
                    summary.alphabet_size,
                    "avg",
                    summary.wall_seconds,
                    summary.comparisons,
                    summary.outcome,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> tuple[list[BenchRecord], list[BenchSummary]]:
    """Inverse of to_csv: (trial records, averaged summaries)."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    records: list[BenchRecord] = []
    summaries: list[BenchSummary] = []
    for line in lines[1:]:
        impl, length, alphabet, repeat, seconds, comparisons, outcome = line.split(",")
        if repeat == "avg":
            summaries.append(
                BenchSummary(
                    impl=impl,
                    length=int(length),
                    alphabet_size=int(alphabet),
                    wall_seconds=float(seconds) if seconds else None,
                    comparisons=float(comparisons) if comparisons else None,
                    outcome=outcome,
                )
            )
        else:
            records.append(
                BenchRecord(
                    impl=impl,
                    length=int(length),
                    alphabet_size=int(alphabet),
                    repeat=int(repeat),
                    wall_seconds=float(seconds),
                    comparisons=int(comparisons) if comparisons else None,
                    outcome=outcome,
                )
            )
    return records, summaries


def _cell_text(summary: BenchSummary) -> str:
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
