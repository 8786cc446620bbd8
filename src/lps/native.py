"""The index-mapped scan compiled from ``_manacher.c`` as an extension module.

The kernel is :func:`lps.core.python_radii` line for line. It reads a
``str`` in place, through the 1, 2 or 4 bytes per code point CPython
stores it in, and ``bytes`` through the buffer protocol, so no copy of the
symbols is made. It allocates its own ``int32`` radii table, with no zero
fill, so its memory is 4 bytes per center whatever the text holds. It
returns the same comparison count as the Python engine, and the leftmost
center of the longest palindrome, which it keeps as it scans. It has two
entry points: ``scan``, behind :func:`compute_radii`, returns the whole
table, and ``write_radii``, behind :func:`write_radii`, writes it. Each
runs at most one thread besides the calling one: ``scan`` splits a table
of at least ``SPLIT_SIZE`` (2^17) entries between two threads, and
``write_radii`` scans on one while the caller writes.

The repository has no native build step, so the source is compiled on
first use with the system ``cc`` against the interpreter's headers into
this package's own ``__pycache__`` directory, under a name keyed by the
source's CRC-32 and the interpreter's extension suffix; later runs only
load it. A new build deletes the interpreter's earlier ones.

The package plugs this module into :data:`lps.core.kernel`, so
``core.compute_radii`` runs the kernel on the texts it :func:`takes`.
``lps radii`` runs :func:`write_radii` on them instead, which formats and
writes the table chunk by chunk while a second thread is still scanning
it. When no compiler or no ``Python.h`` is found or the build fails,
:func:`takes` is false after one note on stderr and the default engine
stays pure Python, while an explicit :func:`compute_radii` or
:func:`write_radii` call raises :class:`lps.core.Unsupported`.
"""

from __future__ import annotations

import os
import sys
import zlib
from array import array
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

from .core import CompareStats, Unsupported

__all__ = [
    "FORMAT_BYTES", "MAX_SYMBOLS", "available",
    "compute_radii", "load", "report", "takes", "write_radii",
]

# 2N+1 centers must index an int32 table; longer texts stay on lps.core.
MAX_SYMBOLS = 2**30 - 1
# output bytes write_radii needs per entry: "1073741823" and a comma
FORMAT_BYTES = 11

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_manacher.c")

_module = None
_error = None
_noted = False


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
        command = ("cc", "-O2", "-shared", "-fPIC", "-pthread", f"-I{include}", "-x", "c", "-", "-o", partial)
        done = subprocess.run(command, input=source, capture_output=True, timeout=120)
        if done.returncode != 0:
            # one line, so the fallback note stays one line
            lines = done.stderr.decode(errors="replace").strip().splitlines() or ["no output"]
            detail = next((line for line in lines if "error" in line), lines[-1])
            raise Unsupported(f"compiling {_SOURCE} failed: {detail}")
        os.replace(partial, library)
    except (OSError, subprocess.SubprocessError) as exc:
        raise Unsupported(f"cannot compile {_SOURCE} with cc: {exc}") from exc
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
        raise Unsupported(f"{cache} is world-writable; not building or loading the kernel there")
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
    """The loaded kernel module, built first if needed; raises lps.core.Unsupported.

    The outcome is kept for the life of the process, failures included.
    """
    global _module, _error
    if _module is None and _error is None:
        try:
            if array("i").itemsize != 4:
                raise Unsupported("C int is not 32 bits wide on this platform")
            _module = _open()
        except (OSError, ImportError) as exc:  # unreadable source, unwritable cache, failed load
            _error = Unsupported(f"cannot load the compiled kernel: {exc}")
        except Unsupported as exc:
            _error = exc
    if _error is not None:
        raise _error
    return _module


def report(lines: str) -> None:
    """Print ``lines`` on stderr, unless it is closed or fails: neither a
    note nor an error line may reach stdout or raise. ``lps`` prints its
    own error lines here too; its exit code names the failure."""
    if sys.stderr is not None:
        try:
            print(lines, file=sys.stderr, flush=True)
        except OSError:
            pass


def available() -> bool:
    """Whether the kernel loads. The first failure writes one note on stderr."""
    global _noted
    try:
        load()
    except Unsupported as exc:
        if not _noted:
            _noted = True
            report(f"lps: note: {exc}; using the pure-Python indexmap engine")
        return False
    return True


def takes(text) -> bool:
    """Whether the default engine runs ``text`` here: ``str`` or ``bytes``
    of at most :data:`MAX_SYMBOLS` symbols, and a kernel that loads."""
    return isinstance(text, (str, bytes, bytearray)) and len(text) <= MAX_SYMBOLS and available()


def _kernel(text):
    """The loaded module, if it takes ``text``; raises lps.core.Unsupported."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise TypeError(f"the compiled kernel takes str and bytes, got {type(text).__name__}")
    if len(text) > MAX_SYMBOLS:
        raise Unsupported(f"the compiled kernel takes at most {MAX_SYMBOLS} symbols, got {len(text)}")
    return load()


def compute_radii(text: str | bytes) -> tuple[memoryview, CompareStats]:
    """Radii, comparison count and best center of :func:`lps.core.python_radii`,
    from the kernel, with the radii as a memoryview of format ``i`` over
    the table the kernel allocated. Takes ``str`` and ``bytes`` of at most
    :data:`MAX_SYMBOLS` symbols; a longer text raises
    :class:`lps.core.Unsupported`.

    On a table of at least ``SPLIT_SIZE`` (2^17) entries, with two
    differing symbols next to each other near the middle of the text, one
    helper thread scans the second half from the middle on while this
    thread scans the first half; this thread then joins the helper and
    picks up its scan where the two agree. The helper is the only extra
    thread, and it has ended when this call returns. The GIL is held
    throughout."""
    table, comparisons, center = _kernel(text).scan(text)
    return memoryview(table).cast("i"), CompareStats(comparisons, center)


def write_radii(text: str | bytes, write, chunk: int) -> CompareStats:
    """Scan ``text`` as :func:`compute_radii` does and pass its table to
    ``write`` as the ASCII bytes of ``",".join(map(str, radii)) + "\\n"``,
    one memoryview per ``chunk`` entries, and return the stats.

    The table is never a Python object: the kernel allocates it, and on a
    table of more than ``chunk`` entries scans it on a thread of its own,
    while this thread formats and writes each chunk the scan has passed.
    Memory is the 4-byte table and :data:`FORMAT_BYTES` per chunk entry.
    An exception from ``write`` stops the scan and propagates. Takes the
    texts :func:`compute_radii` takes."""
    return CompareStats(*_kernel(text).write_radii(text, write, chunk))

