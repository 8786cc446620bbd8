"""The index-mapped scan compiled from ``_manacher.c``.

The kernel is :func:`lps.core.python_radii` line for line, except where
it compares no symbol; the comments of ``_manacher.c`` give its design:
the one-byte table that widens, the split between two threads, and the
tail of centers inside a palindrome that beats the best and reaches the
end of the text, which no scan writes: the kernel fills it from the
mirrors once a whole table is asked for, and leaves it where only the
longest palindrome or the radii text is asked for. This module builds
and loads it, says which texts it takes, and makes its three scans:
:func:`compute_radii` scans a text into its table, with the signature of
every other solver, filled (``scan``) or, behind ``lps radii``, with the
tail left to its mirrors (``scan_unfilled``, a
:class:`lps.radii_text.MirrorTable`); and :func:`longest_palindrome`
scans it for the longest palindrome alone (``longest``). The radii text
is :mod:`lps.radii_text`'s, which only ``lps radii`` imports.

The repository has no native build step, so the source is compiled on
first use with the system ``cc`` against the interpreter's headers into
this package's own ``__pycache__`` directory, under a name keyed by the
source's CRC-32 and the interpreter's extension suffix; later runs only
load it. A new build deletes the interpreter's earlier ones.

The kernel runs ``str``, ``bytes`` and ``bytearray`` of at most
:data:`MAX_SYMBOLS` symbols, where it loads; :func:`compute_radii` raises
:class:`lps.core.Unsupported` on anything else (a token tuple, a longer
text, any text where the kernel cannot be built), and :func:`takes` is
whether it runs. The package plugs this module into
:data:`lps.core.kernel`. When no compiler or no ``Python.h`` is found or
the build fails, :func:`takes` writes one note on stderr, the first
time, and the default engine stays pure Python.
"""

from __future__ import annotations

import os
import sys
import zlib
from collections.abc import Sequence
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

from .core import CompareStats, LpsResult, Unsupported, result_from_radii

__all__ = ["MAX_SYMBOLS", "compute_radii", "load", "longest_palindrome", "report", "takes"]

# 2N+1 centers must index an int32 table, and the kernel's allocations
# of FORMAT_BYTES (11) per center fit a Py_ssize_t; longer texts stay on
# lps.core.
MAX_SYMBOLS = min(2**30 - 1, (sys.maxsize // 11 - 1) // 2)

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


def _kernel(text):
    """The loaded module, if it takes ``text``: ``str``, ``bytes`` or
    ``bytearray`` of at most :data:`MAX_SYMBOLS` symbols; raises
    lps.core.Unsupported."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise Unsupported(f"the compiled kernel takes str and bytes, got {type(text).__name__}")
    if len(text) > MAX_SYMBOLS:
        raise Unsupported(f"the compiled kernel takes at most {MAX_SYMBOLS} symbols, got {len(text)}")
    return load()


def takes(text) -> bool:
    """Whether the kernel runs ``text`` here. The first refusal for a
    kernel that does not load writes one note on stderr."""
    global _noted
    try:
        _kernel(text)
    except Unsupported as exc:
        if exc is _error and not _noted:
            _noted = True
            report(f"lps: note: {exc}; using the pure-Python indexmap engine")
        return False
    return True


def compute_radii(text: str | bytes, *, fill: bool = True) -> tuple[Sequence[int], CompareStats]:
    """Radii, comparison count and best center of :func:`lps.core.python_radii`,
    from the kernel, with the radii as a memoryview over the table the
    kernel allocated: of format ``B`` if every radius fits 255, else of
    format ``i``. With ``fill=False`` the kernel writes no tail into the
    table, and the radii are a :class:`lps.radii_text.MirrorTable` over
    it. Raises :class:`lps.core.Unsupported` where :func:`takes` is false.
    The kernel scans on at most one thread besides this one and joins it
    before it returns."""
    kernel = _kernel(text)
    if not fill:
        from .radii_text import MirrorTable  # not at the top: lps find never compiles the writer

        table, wide, comparisons, center, ref, tail = kernel.scan_unfilled(text)
        radii = memoryview(table).cast("i" if wide else "B")[: 2 * len(text) + 1]
        return MirrorTable(radii, ref, tail), CompareStats(comparisons, center)
    table, comparisons, center = kernel.scan(text)
    radii = memoryview(table)
    return (radii if len(radii) == 2 * len(text) + 1 else radii.cast("i")), CompareStats(comparisons, center)


def longest_palindrome(text: str | bytes) -> LpsResult:
    """:func:`lps.core.longest_palindrome` from the kernel, which scans as
    :func:`compute_radii` does but never writes the tail and frees the
    table before it returns. Raises :class:`lps.core.Unsupported` where
    :func:`takes` is false."""
    comparisons, center, length = _kernel(text).longest(text)
    # the one entry of the table that result_from_radii reads
    return result_from_radii({center: length}, CompareStats(comparisons, center))
