"""The radii text of ``lps radii``, the one command that imports this module.

:func:`write_table` writes any engine's table: the kernel formats its
own tables, a :class:`MirrorTable`'s tail from the mirrors, and ``str``
every other engine's. Only this module and ``_manacher.c`` know the
format.
"""

from __future__ import annotations

from collections.abc import Sequence

from .native import load

__all__ = ["CHUNK", "MirrorTable", "write_table"]

CHUNK = 65_536  # table entries formatted per write, so output memory stays bounded


class MirrorTable(Sequence):
    """The radii of a kernel table whose tail, entries ``tail`` on, the
    scan left unwritten: right of ``ref``, whose palindrome reaches the
    end, entry ``j`` is the smaller of its mirror entry ``2 ref - j`` and
    its distance to the end, and is read so. :func:`write_table` has the
    kernel format it, the tail from the mirrors."""

    __slots__ = ("table", "ref", "tail")

    def __init__(self, table: memoryview, ref: int, tail: int) -> None:
        self.table, self.ref, self.tail = table, ref, tail

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(*j.indices(len(self)))]
        j = range(len(self))[j]  # a negative index counts from the end; outside, IndexError
        return self.table[j] if j < self.tail else min(self.table[2 * self.ref - j], len(self) - 1 - j)


def write_table(table, write) -> None:
    """Pass any engine's ``table``, its 2n+1 radii, to ``write`` as the
    ASCII bytes of ``",".join(map(str, table)) + "\\n"``, :data:`CHUNK`
    entries at a time, as a bytes-like object per chunk; an exception
    from ``write`` propagates. The kernel formats its own tables,
    memoryviews of format ``B`` or ``i`` and :class:`MirrorTable`, into
    one reused buffer; every other table is formatted with ``str``."""
    if isinstance(table, MirrorTable):
        load().write_table(table.table, write, CHUNK, table.ref, table.tail)
        return
    if isinstance(table, memoryview) and table.format in ("B", "i"):
        load().write_table(table, write, CHUNK)
        return
    for start in range(0, len(table), CHUNK):
        if start:
            write(b",")
        write(",".join(map(str, table[start : start + CHUNK])).encode("ascii"))
    write(b"\n")
