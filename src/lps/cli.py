"""Command-line front end.

Subcommands: find (print the longest palindromic substring), radii (dump
the 2N+1 radii table), gen (emit a seeded random string), bench (time the
implementations and report CSV or a table).

Input comes from a file path argument or "-" for stdin. Text mode strips
exactly one trailing line feed (shell pipelines add one); --raw keeps it.
A carriage return is an ordinary symbol and is never stripped, so the
input "aba\\r\\n" is scanned as "aba\\r". The global --bytes flag switches
the symbol model to raw bytes, in which case nothing is stripped.

find and radii run lps.core.compute_radii by default: the compiled kernel
(lps.native), or where it cannot be built the pure-Python indexmap engine
after one note on stderr. --impl picks an implementation of
lps.reference.SOLVERS explicitly. Without it, find and radii import
neither lps.reference nor lps.generator; the commands and error paths
that use them import them.

Exit codes: 0 success, 2 input error (including --impl native where the
kernel cannot be built), 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

from . import core, native

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64

RADII_CHUNK = 65_536  # table entries formatted per write, so output memory stays bounded

__all__ = ["EXIT_INPUT", "EXIT_OK", "EXIT_USAGE", "entrypoint", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; reserve 2 for input errors instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _cap(raw: str) -> int:
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {raw!r}")
    return cap


def _impl(name: str) -> str:
    from .reference import SOLVERS

    if name not in SOLVERS:
        raise argparse.ArgumentTypeError(f"unknown implementation {name!r}, expected one of {tuple(SOLVERS)}")
    return name


def _build_parser() -> _Parser:
    parser = _Parser(prog="lps", description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--bytes",
        dest="as_bytes",
        action="store_true",
        help="treat input as raw bytes instead of UTF-8 text",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    find = sub.add_parser("find", help="print the longest palindromic substring")
    radii = sub.add_parser("radii", help="print the radii table, comma separated")
    for cmd in (find, radii):
        cmd.add_argument(
            "input", nargs="?", default="-", help="input file path, or - for stdin (default)"
        )
        cmd.add_argument(
            "--impl",
            type=_impl,
            help="implementation to run, by name; an unknown name lists them "
            "(default: native, or indexmap where it cannot be built)",
        )
        cmd.add_argument(
            "--raw",
            action="store_true",
            help="keep a trailing newline instead of stripping it",
        )
    find.add_argument(
        "--span",
        action="store_true",
        help="also print 'start end length' on a second line",
    )

    gen = sub.add_parser("gen", help="emit a seeded random string")
    gen.add_argument("--length", type=int, required=True, help="number of symbols")
    gen.add_argument(
        "--alphabet",
        type=int,
        required=True,
        help="alphabet size, 1..26 (symbols start at 'a')",
    )
    gen.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    gen.add_argument("--newline", action="store_true", help="append a trailing newline")

    bench = sub.add_parser("bench", help="time the implementations on random strings")
    bench.add_argument(
        "--lengths", type=_int_list, required=True, help="comma-separated string lengths"
    )
    bench.add_argument(
        "--alphabets", type=_int_list, required=True, help="comma-separated alphabet sizes"
    )
    bench.add_argument("--repeats", type=int, default=3, help="trials per cell (default 3)")
    bench.add_argument(
        "--impls",
        type=lambda raw: tuple(raw.split(",")),
        help="comma-separated implementation names, as for find --impl (default: all that load)",
    )
    bench.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    bench.add_argument(
        "--oracle-cap",
        type=_cap,
        help="skip the naive implementation above this length (default: lps.reference.ORACLE_CAP)",
    )
    bench.add_argument("--format", choices=("csv", "table"), default="csv")
    bench.add_argument("--out", help="write the report to a file instead of stdout")

    return parser


def _read_input(path: str, *, as_bytes: bool, raw: bool) -> str | bytes:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    if as_bytes:
        return data
    text = data.decode("utf-8")
    if not raw and text.endswith("\n"):
        text = text[:-1]
    return text


def _solve(args, text):
    """The ``(radii, stats)`` pair of the chosen implementation."""
    if not args.impl:
        return core.compute_radii(text)
    from .reference import SOLVERS

    return SOLVERS[args.impl](text)


def _write_radii(table, out) -> None:
    """Write ``table`` comma separated with a closing newline, formatting
    RADII_CHUNK entries at a time instead of one string for all of them.

    The kernel formats the tables it owns into one reused buffer; any other
    table is formatted by ``str`` per entry."""
    owned = native.owns(table)
    if owned:
        buffer = bytearray(native.FORMAT_BYTES * min(RADII_CHUNK, len(table)))
    for start in range(0, len(table), RADII_CHUNK):
        stop = min(start + RADII_CHUNK, len(table))
        if start:
            out.write(b",")
        if owned:
            out.write(memoryview(buffer)[: native.format_radii(table, start, stop, buffer)])
        else:
            out.write(",".join(map(str, table[start:stop])).encode("ascii"))
    out.write(b"\n")


def _cmd_find(args) -> int:
    text = _read_input(args.input, as_bytes=args.as_bytes, raw=args.raw)
    result = core.result_from_radii(*_solve(args, text))
    sub = result.substring(text)
    lines = [sub if args.as_bytes else sub.encode("utf-8")]
    if args.span:
        span = result.span
        lines.append(b"%d %d %d" % (span.start, span.end, span.length))
    # bytes straight to the buffer: the output is UTF-8 whatever the
    # locale's stdout encoding is, like the input
    sys.stdout.buffer.write(b"\n".join(lines) + b"\n")
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_radii(args) -> int:
    text = _read_input(args.input, as_bytes=args.as_bytes, raw=args.raw)
    _write_radii(_solve(args, text)[0], sys.stdout.buffer)
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .generator import GenSpec, iter_chunks

    spec = GenSpec(length=args.length, alphabet_size=args.alphabet, seed=args.seed)
    for chunk in iter_chunks(spec):
        sys.stdout.write(chunk)
    if args.newline:
        sys.stdout.write("\n")
    sys.stdout.flush()
    return EXIT_OK


def _cmd_bench(args) -> int:
    # imported here: find and radii do not pay for the harness
    from .bench import BenchSpec, run_bench, to_csv, to_table
    from .reference import ORACLE_CAP

    spec = BenchSpec(
        lengths=args.lengths,
        alphabet_sizes=args.alphabets,
        repeats=args.repeats,
        impls=args.impls,
        seed=args.seed,
    )
    # open --out before the grid runs, so an unwritable path fails at once
    sink = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as out:
        records = run_bench(spec, oracle_cap=ORACLE_CAP if args.oracle_cap is None else args.oracle_cap)
        out.write(to_csv(records) if args.format == "csv" else to_table(records))
    return EXIT_OK


_COMMANDS = {
    "find": _cmd_find,
    "radii": _cmd_radii,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except native.NativeUnavailable as exc:
        print(f"lps: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"lps: error: input is not valid UTF-8 ({exc}); try --bytes", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # the reference solvers' input errors, and bad parameter values that
        # argparse's type checks can't see (InvalidAlphabet is one); any
        # other ValueError is a bug and propagates
        from .generator import UsageError
        from .reference import DummyUnavailable, OracleCapExceeded

        if not isinstance(exc, (OracleCapExceeded, DummyUnavailable, UsageError)):
            raise
        print(f"lps: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_INPUT
    except BrokenPipeError:
        raise
    except OSError as exc:
        print(f"lps: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); suppress the noise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    # Move every object alive now out of the collector's reach, so the
    # collections of interpreter finalization skip them; atexit handlers,
    # stream flushes and module teardown still run. main() keeps a normal
    # collector for in-process callers.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
