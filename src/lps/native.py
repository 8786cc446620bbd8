"""The index-mapped scan compiled from ``_manacher.c`` as an extension module.

The kernel is :func:`lps.core.python_radii` line for line. It reads a
``str`` in place, through the 1, 2 or 4 bytes per code point CPython
stores it in, and ``bytes`` through the buffer protocol, so no copy of the
symbols is made. It writes an ``int32`` radii table, so its memory is
4 bytes per center whatever the text holds. It returns the same
comparison count as the Python engine, and the leftmost center of the
longest palindrome, which it keeps as it scans.

The repository has no native build step, so the source is compiled on
first use with the system ``cc`` against the interpreter's headers into
this package's own ``__pycache__`` directory, under a name keyed by the
source's CRC-32 and the interpreter's extension suffix; later runs only
load it. A new build deletes the interpreter's earlier ones.

The package plugs this module into :data:`lps.core.kernel`, so
``core.compute_radii`` runs the kernel on the texts it :func:`takes`;
``lps radii`` formats the tables it :func:`owns` with :func:`format_radii`.
When no compiler or no ``Python.h`` is found or the build fails,
:func:`takes` is false after one note on stderr and the default engine
stays pure Python, while an explicit :func:`compute_radii` call raises
:class:`NativeUnavailable`.
"""

from __future__ import annotations

import os
import sys
import zlib
from array import array
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

from . import core
from .core import CompareStats

__all__ = [
    "FORMAT_BYTES", "MAX_SYMBOLS", "NativeUnavailable", "available",
    "compute_radii", "format_radii", "load", "owns", "takes",
]

# 2N+1 centers must index an int32 table; longer texts stay on lps.core.
MAX_SYMBOLS = 2**30 - 1
# output bytes format_radii needs per entry: "-2147483648" and a comma
FORMAT_BYTES = 12

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_manacher.c")

_module = None
_error = None
_noted = False


class NativeUnavailable(RuntimeError):
    """The kernel could not be built or loaded; the message says why."""


def _build(source: bytes, library: str) -> None:
    """Compile ``source`` to ``library``, atomically: concurrent first runs
    each write their own temporary file and the last rename wins."""
    import subprocess
    import sysconfig
    import tempfile

    include = sysconfig.get_paths()["include"]
    fd, partial = tempfile.mkstemp(suffix=".so.tmp", dir=os.path.dirname(library))
    os.close(fd)
    try:
        # the source goes in on stdin, so the built bytes are the hashed bytes
        command = ("cc", "-O2", "-shared", "-fPIC", f"-I{include}", "-x", "c", "-", "-o", partial)
        done = subprocess.run(command, input=source, capture_output=True, timeout=120)
        if done.returncode != 0:
            # one line, so the fallback note stays one line
            lines = done.stderr.decode(errors="replace").strip().splitlines() or ["no output"]
            detail = next((line for line in lines if "error" in line), lines[-1])
            raise NativeUnavailable(f"compiling {_SOURCE} failed: {detail}")
        os.replace(partial, library)
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"cannot compile {_SOURCE} with cc: {exc}") from exc
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _open():
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    cache = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
    prefix = f"_manacher.{sys.implementation.cache_tag}-"
    library = os.path.join(cache, f"{prefix}{zlib.crc32(source):08x}{EXTENSION_SUFFIXES[0]}")
    os.makedirs(cache, exist_ok=True)
    # in a directory anyone can write to, the library could be swapped before we load it
    if os.stat(cache).st_mode & 0o002:
        raise NativeUnavailable(f"{cache} is world-writable; not building or loading the kernel there")
    if not os.path.exists(library):
        _build(source, library)
        # earlier builds for this interpreter are stale now; another
        # process's partial (tmp*.so.tmp) does not carry the prefix
        for entry in os.listdir(cache):
            if entry.startswith(prefix) and entry != os.path.basename(library):
                try:
                    os.unlink(os.path.join(cache, entry))
                except OSError:  # a concurrent first run removed it first
                    pass
    loader = ExtensionFileLoader(f"{__package__}._manacher", library)
    module = loader.create_module(ModuleSpec(loader.name, loader, origin=library))
    loader.exec_module(module)
    return module


def load():
    """The loaded kernel module, built first if needed; raises NativeUnavailable.

    The outcome is kept for the life of the process, failures included.
    """
    global _module, _error
    if _module is None and _error is None:
        try:
            if array("i").itemsize != 4:
                raise NativeUnavailable("C int is not 32 bits wide on this platform")
            _module = _open()
        except (OSError, ImportError) as exc:  # unreadable source, unwritable cache, failed load
            _error = NativeUnavailable(f"cannot load the compiled kernel: {exc}")
        except NativeUnavailable as exc:
            _error = exc
    if _error is not None:
        raise _error
    return _module


def available() -> bool:
    """Whether the kernel loads. The first failure writes one note on stderr."""
    global _noted
    try:
        load()
    except NativeUnavailable as exc:
        if not _noted:
            _noted = True
            print(f"lps: note: {exc}; using the pure-Python indexmap engine", file=sys.stderr)
        return False
    return True


def takes(text) -> bool:
    """Whether the default engine runs ``text`` here: ``str`` or ``bytes``
    of at most :data:`MAX_SYMBOLS` symbols, and a kernel that loads."""
    return isinstance(text, (str, bytes, bytearray)) and len(text) <= MAX_SYMBOLS and available()


def compute_radii(text: str | bytes) -> tuple[array, CompareStats]:
    """Radii, comparison count and best center of :func:`lps.core.python_radii`,
    from the kernel, with the radii as an ``array('i')``. Takes ``str`` and
    ``bytes`` only; texts over :data:`MAX_SYMBOLS` symbols go to the Python
    engine."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise TypeError(f"the compiled kernel takes str and bytes, got {type(text).__name__}")
    if len(text) > MAX_SYMBOLS:
        return core.python_radii(text)
    radii = array("i", [0]) * (2 * len(text) + 1)
    stats = CompareStats()
    stats.comparisons, stats.center = load().scan(text, radii)
    return radii, stats


def owns(radii) -> bool:
    """Whether ``radii`` is a table the loaded kernel can format: an ``array('i')``."""
    return _module is not None and isinstance(radii, array) and radii.typecode == "i"


def format_radii(radii: array, start: int, stop: int, out) -> int:
    """Write ``radii[start:stop]`` of an ``array('i')`` into the writable
    buffer ``out`` as comma-separated decimals, the text
    ``",".join(map(str, ...))`` gives, and return the number of bytes
    written. ``out`` must hold :data:`FORMAT_BYTES` bytes per entry: a
    smaller buffer or a slice outside the table raises ``ValueError``, any
    other table ``TypeError``."""
    return load().format_radii(radii, start, stop, out)
