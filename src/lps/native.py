"""The index-mapped scan compiled from ``_manacher.c``, loaded with ctypes.

The kernel is :func:`lps.core.python_radii` line for line over a flat
symbol buffer: ASCII ``str`` and ``bytes`` go in as ``uint8``, any other
``str`` as UTF-32 code points. It writes an ``int32`` radii table, so its
memory is 4 bytes per center whatever the text holds, and it returns the
same comparison count as the Python engine.

The repository has no native build step, so the source is compiled on
first use with the system ``cc`` into this package's own ``__pycache__``
directory, under a name keyed by the source's CRC-32 and the interpreter's
cache tag; later runs only load it.

The package plugs this module into :data:`lps.core.kernel`, so
``core.compute_radii`` runs the kernel on the texts it :func:`takes` and
``core.argmax`` scans the tables it :func:`owns`; ``lps radii`` formats
such tables with :func:`format_radii`. When no compiler is
found or the build fails, :func:`takes` is false after one note on
stderr and the default engine stays pure Python, while an explicit
:func:`compute_radii` call raises :class:`NativeUnavailable`.
"""

from __future__ import annotations

import os
import sys
import zlib
from array import array

from . import core
from .core import CompareStats

__all__ = [
    "FORMAT_BYTES", "MAX_SYMBOLS", "NativeUnavailable", "argmax", "available",
    "compute_radii", "format_radii", "load", "owns", "takes",
]

# 2N+1 centers must index an int32 table; longer texts stay on lps.core.
MAX_SYMBOLS = 2**30 - 1
# output bytes format_radii needs per entry: "-2147483648" and a comma
FORMAT_BYTES = 12

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_manacher.c")
_COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-x", "c", "-")

_lib = None
_error = None
_noted = False


class NativeUnavailable(RuntimeError):
    """The kernel could not be built or loaded; the message says why."""


def _build(source: bytes, library: str) -> None:
    """Compile ``source`` to ``library``, atomically: concurrent first runs
    each write their own temporary file and the last rename wins."""
    import subprocess
    import tempfile

    fd, partial = tempfile.mkstemp(suffix=".so.tmp", dir=os.path.dirname(library))
    os.close(fd)
    try:
        done = subprocess.run([*_COMPILE, "-o", partial], input=source, capture_output=True, timeout=120)
        if done.returncode != 0:
            detail = done.stderr.decode(errors="replace").strip()
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
    library = os.path.join(cache, f"_manacher.{sys.implementation.cache_tag}-{zlib.crc32(source):08x}.so")
    os.makedirs(cache, exist_ok=True)
    # in a directory anyone can write to, the library could be swapped before we load it
    if os.stat(cache).st_mode & 0o002:
        raise NativeUnavailable(f"{cache} is world-writable; not building or loading the kernel there")
    if not os.path.exists(library):
        _build(source, library)
    import ctypes

    lib = ctypes.CDLL(library)
    for scan in (lib.lps_radii_u8, lib.lps_radii_u32):
        scan.argtypes = (ctypes.c_char_p, ctypes.c_int64, ctypes.c_void_p)
        scan.restype = ctypes.c_int64
    lib.lps_argmax.argtypes = (ctypes.c_void_p, ctypes.c_int64)
    lib.lps_argmax.restype = ctypes.c_int64
    lib.lps_format_radii.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    lib.lps_format_radii.restype = ctypes.c_int64
    return lib


def load():
    """The loaded kernel, built first if needed; raises NativeUnavailable.

    The outcome is kept for the life of the process, failures included.
    """
    global _lib, _error
    if _lib is None and _error is None:
        try:
            if array("i").itemsize != 4:
                raise NativeUnavailable("C int is not 32 bits wide on this platform")
            _lib = _open()
        except OSError as exc:  # unreadable source, unwritable cache, dlopen failure
            _error = NativeUnavailable(f"cannot load the compiled kernel: {exc}")
        except NativeUnavailable as exc:
            _error = exc
    if _error is not None:
        raise _error
    return _lib


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
    """Radii and comparison count of :func:`lps.core.python_radii`, from
    the kernel, as an ``array('i')``. Takes ``str`` and ``bytes`` only;
    texts over :data:`MAX_SYMBOLS` symbols go to the Python engine."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise TypeError(f"the compiled kernel takes str and bytes, got {type(text).__name__}")
    if len(text) > MAX_SYMBOLS:
        return core.python_radii(text)
    lib = load()
    scan = lib.lps_radii_u8
    if not isinstance(text, str):
        symbols = bytes(text)
    elif text.isascii():
        symbols = text.encode("ascii")
    else:
        symbols, scan = text.encode("utf-32-le", "surrogatepass"), lib.lps_radii_u32
    radii = array("i", [0]) * (2 * len(text) + 1)
    stats = CompareStats()
    stats.comparisons = scan(symbols, len(text), radii.buffer_info()[0])
    return radii, stats


def owns(radii) -> bool:
    """Whether ``radii`` is a table the loaded kernel can scan: an ``array('i')``.

    ``max`` plus ``index`` over a 2N+1-entry array boxes every entry and
    costs far more than the scan that filled it.
    """
    return _lib is not None and isinstance(radii, array) and radii.typecode == "i"


def argmax(radii: array) -> int:
    """Leftmost index of the maximum of a non-empty table it :func:`owns`."""
    if not radii:
        raise ValueError("argmax of an empty radii table")
    return load().lps_argmax(*radii.buffer_info())


def format_radii(radii: array, start: int, stop: int, out: array) -> int:
    """Write ``radii[start:stop]`` of a table it :func:`owns` into the
    writable array ``out`` as comma-separated decimals, the text
    ``",".join(map(str, ...))`` gives, and return the number of bytes
    written. ``out`` must hold :data:`FORMAT_BYTES` bytes per entry."""
    lib = load()
    if not owns(radii):
        raise TypeError(f"the kernel formats array('i') tables, got {type(radii).__name__}")
    if not 0 <= start <= stop <= len(radii):
        raise ValueError(f"slice {start}:{stop} outside a table of {len(radii)} entries")
    if len(out) * out.itemsize < FORMAT_BYTES * (stop - start):
        raise ValueError(f"{len(out) * out.itemsize} bytes cannot hold {stop - start} formatted entries")
    address = radii.buffer_info()[0] + start * radii.itemsize
    return lib.lps_format_radii(address, stop - start, out.buffer_info()[0])
