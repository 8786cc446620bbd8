"""Command-line front end.

Subcommands: find (print the longest palindromic substring), radii (dump
the 2N+1 radii table), gen (emit a seeded random string), bench (time the
implementations and report CSV or a table).

Input comes from a file path argument or "-" for stdin. Text mode strips
exactly one trailing line feed (shell pipelines add one); --raw keeps it.
A carriage return is an ordinary symbol and is never stripped, so the
input "aba\\r\\n" is scanned as "aba\\r". The global --bytes flag switches
the symbol model to raw bytes, in which case nothing is stripped.

By default find runs lps.core.longest_palindrome and radii
lps.core.compute_radii(text, fill=False): the compiled kernel
(lps.native), or where it cannot be built the pure-Python indexmap
engine after one note on stderr. Neither has the kernel write the tail
of the table: the longest palindrome does not need it, and the radii
text formats it from the mirrors. With --impl both run the
implementation of lps.reference.SOLVERS it names, and find takes the
result from its table. radii frees the text and passes the table to
lps.radii_text.write_table, which has the kernel format its own tables
and formats any other engine's with str.
Without --impl, find and radii import neither lps.reference nor
lps.generator, and find does not import lps.radii_text; the commands
that use them import them.

Command lines are read, and -h's help printed, by lps._cmdline, whose
docstring says why that is a module of its own.

Exit codes, stderr closed or not: 0 success, 2 input error (lps.core.Unsupported,
such as --impl native where the kernel cannot be built, and an --out file
that cannot be opened), 64 usage error (lps.core.UsageError too), 74 output
error (a failed write, -h included; a closed pipe exits 0 quietly).
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys

from . import core, native
from ._cmdline import _parse, _usage, _UsageError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64
EXIT_OUTPUT = 74

__all__ = ["EXIT_INPUT", "EXIT_OK", "EXIT_OUTPUT", "EXIT_USAGE", "entrypoint", "main"]


class _WriteError(Exception):
    """Writing the output failed."""


def _read_input(path: str, *, as_bytes: bool, raw: bool) -> str | bytes:
    if path == "-":
        if sys.stdin is None:  # descriptor 0 was closed when Python started
            raise OSError("cannot read the input: standard input is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    if as_bytes:
        return data
    if not raw and data.endswith(b"\n"):
        # a line feed byte is always the character in UTF-8: decoding a
        # view without it makes no copy of the text
        return str(memoryview(data)[:-1], "utf-8")
    return data.decode("utf-8")


def _stdout():
    """sys.stdout, which is None (a failed write) if descriptor 1 was closed at start-up."""
    if sys.stdout is None:
        raise _WriteError("cannot write the output: standard output is closed")
    return sys.stdout


@contextlib.contextmanager
def _writing():
    """Report an OSError raised inside, other than a closed pipe, as a failed write."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _WriteError(f"cannot write the output: {exc}") from exc


def _solve(args, text):
    """The ``(radii, stats)`` pair of the implementation --impl names."""
    from .reference import SOLVERS

    return SOLVERS[args.impl](text)


def _cmd_find(args) -> int:
    text = _read_input(args.input, as_bytes=args.as_bytes, raw=args.raw)
    result = core.result_from_radii(*_solve(args, text)) if args.impl else core.longest_palindrome(text)
    sub = result.substring(text)
    answer = sub if args.as_bytes else sub.encode("utf-8")
    # bytes straight to the buffer: the output is UTF-8 whatever the
    # locale's stdout encoding is, like the input; each piece is written
    # as it is, with no joined copy of the answer
    with _writing():
        out = _stdout().buffer
        out.write(answer)
        out.write(b"\n")
        if args.span:
            span = result.span
            out.write(b"%d %d %d\n" % (span.start, span.end, span.length))
        out.flush()
    return EXIT_OK


def _cmd_radii(args) -> int:
    from .radii_text import write_table

    text = _read_input(args.input, as_bytes=args.as_bytes, raw=args.raw)
    radii, _ = _solve(args, text) if args.impl else core.compute_radii(text, fill=False)
    del text  # freed before its table is written
    with _writing():
        out = _stdout().buffer
        write_table(radii, out.write)
        out.flush()
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .generator import GenSpec, iter_chunks

    spec = GenSpec(length=args.length, alphabet_size=args.alphabet, seed=args.seed)
    with _writing():
        out = _stdout()
        for chunk in iter_chunks(spec):
            out.write(chunk)
        if args.newline:
            out.write("\n")
        out.flush()
    return EXIT_OK


def _cmd_bench(args) -> int:
    # imported here: find and radii do not pay for the harness
    from .bench import BenchSpec, run_bench, to_csv, to_table

    spec = BenchSpec(lengths=args.lengths, alphabet_sizes=args.alphabets, repeats=args.repeats,
                     impls=args.impls, seed=args.seed)
    if "native" in (args.impls or ()):
        native.load()  # a kernel named but not built exits 2 here, as --impl native does
    # open --out before the grid runs, so an unwritable path fails at once
    sink = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(_stdout())
    with sink as out:
        records = run_bench(spec)
        with _writing():
            out.write(to_csv(records) if args.format == "csv" else to_table(records))
            # close a file here, where a failed flush is a failed write
            out.close() if args.out else out.flush()
    return EXIT_OK


def _cmd_help(args) -> int:
    with _writing():
        _stdout().write(_usage(args.command, full=True) + "\n")
        sys.stdout.flush()
    return EXIT_OK


_COMMANDS = {"find": _cmd_find, "radii": _cmd_radii, "gen": _cmd_gen, "bench": _cmd_bench}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        message, command = exc.args
        native.report(f"{_usage(command)}\nlps: error: {message}")
        return EXIT_USAGE
    try:
        return (_cmd_help if args.help else _COMMANDS[args.command])(args)
    except _WriteError as exc:
        message, code = exc, EXIT_OUTPUT
    except UnicodeDecodeError as exc:
        message, code = f"input is not valid UTF-8 ({exc}); try --bytes", EXIT_INPUT
    except core.UsageError as exc:  # any other ValueError is a bug and propagates
        message, code = exc, EXIT_USAGE
    except BrokenPipeError:
        raise
    except (core.Unsupported, OSError) as exc:
        message, code = exc, EXIT_INPUT
    native.report(f"lps: error: {message}")
    return code


def entrypoint() -> None:
    try:
        code = main()
    except BrokenPipeError:  # downstream closed the pipe (e.g. | head): exit quietly
        code = None
    if code in (None, EXIT_OUTPUT) and sys.stdout is not None:
        # stdout may hold bytes it cannot write: send them to /dev/null, or
        # the flush at exit fails again with a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # Move every object alive now out of the collector's reach, so the
    # collections of interpreter finalization skip them; atexit handlers,
    # stream flushes and module teardown still run. main() keeps a normal
    # collector for in-process callers.
    gc.freeze()
    sys.exit(code)  # None exits 0


if __name__ == "__main__":
    entrypoint()
