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

Command lines are read with argparse's syntax from one table, _OPTIONS,
whose help -h prints; importing argparse would cost a short run 5-8 ms.

Exit codes: 0 success, 2 input error (including --impl native where the
kernel cannot be built, and an --out file that cannot be opened), 64 usage
error, 74 output error (a failed write; a closed pipe exits 0 quietly).
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
from types import SimpleNamespace

from . import core, native

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64
EXIT_OUTPUT = 74

RADII_CHUNK = 65_536  # table entries formatted per write, so output memory stays bounded

__all__ = ["EXIT_INPUT", "EXIT_OK", "EXIT_OUTPUT", "EXIT_USAGE", "entrypoint", "main"]


class _UsageError(Exception):
    """A command line that does not parse: ``args`` is (message, command)."""


class _WriteError(Exception):
    """Writing the output failed."""


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


def _cap(raw: str) -> int:
    if int(raw) < 0:
        raise ValueError(f"expected an integer >= 0, got {raw!r}")
    return int(raw)


def _choice(name: str, choices) -> str:
    if name not in choices:
        raise ValueError(f"unknown name {name!r}, expected one of {tuple(choices)}")
    return name


def _impl(name: str) -> str:
    from .reference import SOLVERS

    return _choice(name, SOLVERS)


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
    text = data.decode("utf-8")
    if not raw and text.endswith("\n"):
        text = text[:-1]
    return text


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
    with _writing():
        _stdout().buffer.write(b"\n".join(lines) + b"\n")
        sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_radii(args) -> int:
    text = _read_input(args.input, as_bytes=args.as_bytes, raw=args.raw)
    radii = _solve(args, text)[0]
    with _writing():
        _write_radii(radii, _stdout().buffer)
        sys.stdout.buffer.flush()
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
    from .reference import ORACLE_CAP

    spec = BenchSpec(lengths=args.lengths, alphabet_sizes=args.alphabets, repeats=args.repeats,
                     impls=args.impls, seed=args.seed)
    # open --out before the grid runs, so an unwritable path fails at once
    sink = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(_stdout())
    with sink as out:
        records = run_bench(spec, oracle_cap=ORACLE_CAP if args.oracle_cap is None else args.oracle_cap)
        with _writing():
            out.write(to_csv(records) if args.format == "csv" else to_table(records))
            # close a file here, where a failed flush is a failed write
            out.close() if args.out else out.flush()
    return EXIT_OK


_COMMANDS = {"find": _cmd_find, "radii": _cmd_radii, "gen": _cmd_gen, "bench": _cmd_bench}

# The options of each command, and under None those before it: name ->
# (attribute, converter, default, help). A name without a leading "-" is a
# positional argument; a _SWITCH takes no value and sets True.
_SWITCH = None
_REQUIRED = object()
_HELP = {"--help": ("help", _SWITCH, False, "show this help and exit (also -h)")}
_INPUT = {
    **_HELP,
    "--impl": ("impl", _impl, None, "implementation to run, by name (default: native, else indexmap)"),
    "--raw": ("raw", _SWITCH, False, "keep a trailing newline instead of stripping it"),
    "input": ("input", str, "-", "input file path, or - for stdin (default)"),
}
_OPTIONS = {
    None: {
        **_HELP,
        "--bytes": ("as_bytes", _SWITCH, False, "treat input as raw bytes instead of UTF-8 text"),
        "command": ("command", lambda name: _choice(name, _COMMANDS), _REQUIRED, "find, radii, gen or bench"),
    },
    "find": {**_INPUT, "--span": ("span", _SWITCH, False, "also print 'start end length' on a second line")},
    "radii": _INPUT,
    "gen": {
        **_HELP,
        "--length": ("length", int, _REQUIRED, "number of symbols"),
        "--alphabet": ("alphabet", int, _REQUIRED, "alphabet size, 1..26 (symbols start at 'a')"),
        "--seed": ("seed", int, 0, "64-bit seed (default 0)"),
        "--newline": ("newline", _SWITCH, False, "append a trailing newline"),
    },
    "bench": {
        **_HELP,
        "--lengths": ("lengths", _int_list, _REQUIRED, "comma-separated string lengths"),
        "--alphabets": ("alphabets", _int_list, _REQUIRED, "comma-separated alphabet sizes"),
        "--repeats": ("repeats", int, 3, "trials per cell (default 3)"),
        "--impls": ("impls", lambda raw: tuple(raw.split(",")), None, "comma-separated --impl names (default: all)"),
        "--seed": ("seed", int, 0, "base seed (default 0)"),
        "--oracle-cap": ("oracle_cap", _cap, None, "skip naive above this length (default: reference.ORACLE_CAP)"),
        "--format": ("format", lambda name: _choice(name, ("csv", "table")), "csv", "csv (default) or table"),
        "--out": ("out", str, None, "write the report to a file instead of stdout"),
    },
}


def _option(token: str, command: str | None) -> str | None:
    """The option of ``command`` that ``token`` names, in full or by a
    prefix only it has (up to any "="); "" for an unknown option; None for
    a value. As in argparse, "-", a negative number and a token with a space
    that names no option are values."""
    if not token.startswith("-") or token == "-":
        return None
    name = "--help" if token == "-h" else token.partition("=")[0]
    found = [name] if name in _OPTIONS[command] else [opt for opt in _OPTIONS[command] if opt.startswith(name)]
    if len(found) > 1:
        raise _UsageError(f"ambiguous option: {name} could match {', '.join(found)}", command)
    if found:
        return found[0]
    number = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    return None if number or " " in token else ""


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The values of a command line, read by _OPTIONS; None once -h has
    printed the help. Raises _UsageError."""
    command, given, free, options = None, {}, ["command"], True
    unknown = []  # reported after the last token, so that a later -h still prints the help
    tokens = iter(argv)
    for token in tokens:
        if options and token == "--" and command:
            options = False  # every later token is a positional argument
            continue
        option = _option(token, command) if options else None
        _, eq, value = token.partition("=")
        if option is None and free:
            option, value = free.pop(), token
        elif not option:
            unknown.append(token)
            continue
        elif _OPTIONS[command][option][1] is _SWITCH:
            if eq:
                raise _UsageError(f"argument {option}: ignored explicit argument {value!r}", command)
            if option == "--help":
                print(_usage(command, full=True))
                return None
        elif not eq:
            value = next(tokens, "--")  # a missing value reads as "--", which is no value
            if value == "--" or _option(value, command) is not None:
                raise _UsageError(f"argument {option}: expected one argument", command)
        attr, convert, _, _ = _OPTIONS[command][option]
        try:
            given[attr] = True if convert is _SWITCH else convert(value)
        except ValueError as exc:
            raise _UsageError(f"argument {option}: {exc}", command) from None
        if option == "command":
            command, free = value, [name for name in _OPTIONS[value] if name[0] != "-"]
    entries = {**_OPTIONS[None], **_OPTIONS[command]}
    values = {attr: given.get(attr, default) for attr, _, default, _ in entries.values()}
    missing = [option for option, (attr, *_) in entries.items() if values[attr] is _REQUIRED]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}", command)
    return SimpleNamespace(**values)


def _usage(command: str | None, full: bool = False) -> str:
    """The usage line of ``command`` (of lps itself for None) and, if
    ``full``, a line of help for each of its options."""
    usage, rows = "usage: lps" if command is None else f"usage: lps {command}", [""]
    for option, (attr, convert, default, text) in _OPTIONS[command].items():
        label = option if convert is _SWITCH or option[0] != "-" else f"{option} {attr.upper()}"
        usage += f" {label}" if default is _REQUIRED else f" [{label}]"
        rows.append(f"  {label:<25}{text}")
    return "\n".join([usage, *rows]) if full else usage


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        message, command = exc.args
        print(f"{_usage(command)}\nlps: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:  # -h printed the help
        return EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except _WriteError as exc:
        message, code = exc, EXIT_OUTPUT
    except UnicodeDecodeError as exc:
        message, code = f"input is not valid UTF-8 ({exc}); try --bytes", EXIT_INPUT
    except ValueError as exc:
        # the reference solvers' input errors, and bad parameter values that
        # the option converters can't see (GenSpec's alphabet range is one); any
        # other ValueError is a bug and propagates
        from .generator import UsageError
        from .reference import DummyUnavailable, OracleCapExceeded

        if not isinstance(exc, (OracleCapExceeded, DummyUnavailable, UsageError)):
            raise
        message, code = exc, EXIT_USAGE if isinstance(exc, UsageError) else EXIT_INPUT
    except BrokenPipeError:
        raise
    except (native.NativeUnavailable, OSError) as exc:
        message, code = exc, EXIT_INPUT
    print(f"lps: error: {message}", file=sys.stderr)
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
