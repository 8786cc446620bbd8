"""Command-line syntax: one table, _OPTIONS, of each command's options.

_parse reads a command line from it by argparse's syntax, and _usage
prints it as help, without importing argparse (5-8 ms of a short run).
lps.cli runs the commands. Each run compiles both under
PYTHONDONTWRITEBYTECODE, and the parser's resident peak follows the
largest module compiled: as one module the two peaked at twice either.
"""

from __future__ import annotations

from types import SimpleNamespace


class _UsageError(Exception):
    """A command line that does not parse: ``args`` is (message, command)."""


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


def _choice(name: str, choices) -> str:
    if name not in choices:
        raise ValueError(f"unknown name {name!r}, expected one of {tuple(choices)}")
    return name


def _impl(name: str) -> str:
    from .reference import SOLVERS

    return _choice(name, SOLVERS)


def _command(name: str) -> str:
    return _choice(name, [command for command in _OPTIONS if command])


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
        "command": ("command", _command, _REQUIRED, "find, radii, gen or bench"),
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


def _parse(argv: list[str]) -> SimpleNamespace:
    """The values of a command line, read by _OPTIONS; once -h is read,
    only ``command`` and ``help``. Raises _UsageError."""
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
                return SimpleNamespace(command=command, help=True)
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
