#!/usr/bin/env python3
"""Interleaved in-process timings of two builds of the compiled kernel.

Run from the repository root:

    python3 scripts/kernel_pair.py HEAD~1 --rounds 101 [--texts random-1e6 unary-1e7] [--fork]

The script builds ``git show REV:src/lps/_manacher.c`` (the parent) and
the working tree's ``src/lps/_manacher.c`` (the change) with
``lps.native._build`` into a temporary directory and loads both into this
process. Each round times ``scan(text)``, the write path and
``longest(text)`` of both builds on random-1e6 (1e6 random ternary symbols), late-1e6 (the same
with a 300-symbol palindrome at 7/8 of the text, whose radius does not
fit the kernel's one-byte table, so the table widens past the point
where the calling thread takes over the helper's scan), unary-1e6 (1e6
copies of one symbol, widened at center 256), period-2-1e6 (``ab``
repeated, whose palindrome that reaches the end only ties the longest),
suffix-1e6 (5e5 random ternary symbols, then 5e5 copies of one symbol),
random-1e7 and unary-1e7, or on the texts ``--texts`` names. The write
path, row ``write``, is the kernel's ``scan_unfilled(text)`` followed by
``write_table(table, write, chunk, ref, tail)``, which formats the tail
from the mirrors, as ``lps radii`` runs it. It writes to a file in the
temporary directory, ``lps.radii_text.CHUNK`` (65,536) entries per
chunk. Row ``find`` is ``longest(text)``, as ``lps find`` runs it.
Within a round the side that runs first alternates, so a drift of the
host falls on both sides.

Before the rounds it prints each function whose address or size differs
between the two builds, as ``nm -S --defined-only`` lists them, or that
only one of them has; where there is no ``nm`` it says so instead. Where
GCC places ``scan_text`` moves the scan's time by up to 7-12%, and
nothing in the source keeps its address fixed (see ``scan_text`` in
``_manacher.c``), so every change to the C shows here whether it moved.

For each call it prints two columns per side, wall time
(``time.perf_counter``) and the process's CPU time
(``time.process_time``, which counts both threads): each column's
minimum and first quartile in ms (``statistics.quantiles``, exclusive
method) and in how many rounds that side was lower. Then comes the
median number of minor page faults the call made (``ru_minflt``, both
threads). Claim a cut in work (instructions, comparisons, faults) on CPU
time, and a gain from parallelism on wall time. The helper thread of a
split scan overlaps the calling thread only where it runs on another
core, so wall time moves with where it runs while CPU time stays. A
kernel that starts its helper with a plain ``pthread_create`` leaves it
on the calling thread's CPU, and on a 2-core x86_64 host random-1e6
``scan`` read min wall 13.4 / CPU 13.3 ms in one run (no overlap), and
wall 6.5 / CPU 12.6 ms in the next; one that starts it on the other CPU
read wall 5.4 / CPU 10.5 ms against 10.7 / 10.7 ms for the former in the
same 101 rounds. The median is left out: at 1e6 the wall times of the
former are bimodal, and the median moves between runs of the same build
far more than the differences the script is used to resolve.

Each round starts with a probe of the second core: two threads, each
pinned to a CPU of its own, each run ``zlib.crc32`` over 8 MiB, about
2 ms, with the GIL released, and the probe overlapped if the span from
the first start to the last end is below 1.5 times the longer thread's
CPU time. The wall columns are printed twice: over all rounds, and over
the rounds whose probe overlapped, when the second core was most likely
free. Claim a gain from parallelism on the second, on a text whose table
the kernel splits between two threads; on the others the two read alike.
Unpinned, the probe measured where its threads were placed, not how busy
the host was: both started on one CPU, and on an idle 2-core x86_64 host
it overlapped in 0 of 41 rounds, pinned in 41 of 41.

In process, at 1e6 the faults column depends on what ran before. Until
a table of 8 MB or more has been freed, glibc maps each table afresh,
and the 2 MB a one-byte table touches fault on every call: about 490
pages on random-1e6. Once one has been freed, as after the first unary-1e6
call, glibc serves a 1e6 table from memory already faulted in, and the
column reads 0. The times do not follow the faults: on a 2-core x86_64
host, with the helper started by a plain ``pthread_create``, random-1e6
``scan`` read min 12.2 ms at 490 faults timed alone here and 6.0 ms at 0
faults after unary-1e6, but in a plain loop 6.1 ms at 490 faults and
11.2 ms at 0, the two modes of the bimodal wall times above, which the
CPU column tells apart.
At 1e7 every call maps and faults a fresh 80 MB table. Perfbench runs
whole processes and scales by the host's speed; this compares the two
kernels with everything else held equal, which shows differences of a
few percent that perfbench's spread hides. Its ``write`` rows at 1e6 can
reuse a table that is already faulted in, and they have read a unary
cost for a change to the write path that fresh processes did not show,
so time such a change with ``scripts/bench_pair.py`` too, or with
``--fork``.

``--fork`` times each call in a child forked for that call, which
reports its wall time, CPU time and faults to this process and exits;
the kernel joins its helper thread before it returns, so this process
has one thread when it forks. The child starts with this process's
heap, copy-on-write, so every page
the call writes faults in the child: the table's pages always, and
those of glibc's free lists too, whatever ran before. At 1e6 the faults
then show on every call, as they do in a fresh ``lps`` process; the
times include them, and the fork's own cost falls outside them.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lps import native  # noqa: E402
from lps.radii_text import CHUNK  # noqa: E402
from lps.generator import GenSpec, gen_text  # noqa: E402

KERNEL = "src/lps/_manacher.c"


def late(n: int) -> str:
    """Random ternary text with a 300-symbol palindrome centered at 7n/8."""
    text, at = gen_text(GenSpec(n, 3, 1)), 7 * n // 8
    half = text[:150]
    return text[: at - 150] + half + half[::-1] + text[at + 150 :]


TEXTS = {
    "random-1e6": lambda: gen_text(GenSpec(10**6, 3, 1)),
    "late-1e6": lambda: late(10**6),
    "unary-1e6": lambda: "a" * 10**6,
    "period-2-1e6": lambda: "ab" * (10**6 // 2),
    "suffix-1e6": lambda: gen_text(GenSpec(10**6 // 2, 3, 1)) + "a" * (10**6 // 2),
    "random-1e7": lambda: gen_text(GenSpec(10**7, 3, 1)),
    "unary-1e7": lambda: "a" * 10**7,
}


SPIN = bytes(8 << 20)  # zlib.crc32 of it takes about 2 ms, with the GIL released


def overlapped() -> bool:
    """Whether two threads, each pinned to a CPU of its own and running
    ``zlib.crc32(SPIN)``, ran at once: the span from the first start to
    the last end is below 1.5 times the longer thread's CPU time; where one
    CPU is allowed, both run on it. A new thread starts on its creator's
    CPU, so unpinned the two threads ran one after the other on an idle
    host as well."""
    barrier, spans, cpus = threading.Barrier(2), [], sorted(os.sched_getaffinity(0))

    def spin(core: int) -> None:
        os.sched_setaffinity(0, {core})  # this thread only
        barrier.wait()
        cpu, start = time.thread_time(), time.perf_counter()
        zlib.crc32(SPIN)
        spans.append((start, time.perf_counter(), time.thread_time() - cpu))

    threads = [threading.Thread(target=spin, args=(core,)) for core in (cpus[0], cpus[-1])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    span = max(end for _, end, _ in spans) - min(start for start, _, _ in spans)
    return span < 1.5 * max(cpu for _, _, cpu in spans)


def load(source: bytes, directory: str, side: str):
    """``source`` built into ``directory`` and loaded as ``side._manacher``."""
    library = os.path.join(directory, f"{side}{EXTENSION_SUFFIXES[0]}")
    native._build(source, library)
    loader = ExtensionFileLoader(f"{side}._manacher", library)
    module = loader.create_module(ModuleSpec(loader.name, loader, origin=library))
    loader.exec_module(module)
    return module


def functions(library: str) -> dict[str, tuple[int, int]]:
    """The address and size of each function ``nm -S --defined-only`` lists in ``library``."""
    listing = subprocess.run(["nm", "-S", "--defined-only", library], capture_output=True, text=True, check=True)
    fields = (line.split() for line in listing.stdout.splitlines())
    return {name: (int(address, 16), int(size, 16)) for address, size, kind, name in
            (f for f in fields if len(f) == 4) if kind in "tT"}


def layout(parent: str, change: str) -> list[str]:
    """A count, then one line for each function that lies at a different
    address or has a different size in the ``change`` library than in
    ``parent``."""
    if shutil.which("nm") is None:
        return ["code layout: no nm, not compared"]
    before, after = functions(parent), functions(change)

    def place(entry: tuple[int, int] | None) -> str:
        return "absent" if entry is None else f"{entry[0]:#07x} size {entry[1]:#06x}"

    order = sorted(before.keys() | after.keys(), key=lambda name: (before.get(name) or after[name])[0])
    moved = [name for name in order if before.get(name) != after.get(name)]
    return [f"code layout: {len(moved)} of {len(order)} functions moved or resized"] + [
        f"  {name:<28} {place(before.get(name))} -> {place(after.get(name))}" for name in moved
    ]


def forked(measure):
    """``measure()``, a tuple of two floats and an int, run in a child
    forked for it, which sends it back through a pipe."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: no cleanup of the parent's objects on the way out
        try:
            os.write(write, struct.pack("ddq", *measure()))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return struct.unpack("ddq", data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision whose kernel is compared with the working tree's")
    parser.add_argument("--rounds", type=int, default=101)
    parser.add_argument("--texts", nargs="+", choices=TEXTS, default=list(TEXTS), help="the texts to time (default: all)")
    parser.add_argument("--fork", action="store_true", help="time each call in a child forked for it")
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "show", f"{args.rev}:{KERNEL}"], cwd=ROOT, capture_output=True, check=True).stdout
    change = (ROOT / KERNEL).read_bytes()
    texts = {name: TEXTS[name]() for name in args.texts}
    with tempfile.TemporaryDirectory() as directory, open(os.path.join(directory, "radii"), "wb") as out:
        kernels = {"parent": load(parent, directory, "parent"), "change": load(change, directory, "change")}
        print("\n".join(layout(kernels["parent"].__file__, kernels["change"].__file__)), flush=True)

        def measure(kernel, call: str, text) -> tuple[float, float, int]:
            out.seek(0)
            out.truncate()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cpu, start = time.process_time(), time.perf_counter()
            if call == "find":
                kernel.longest(text)
            elif call == "scan":
                kernel.scan(text)
            else:
                table, wide, _, _, ref, tail = kernel.scan_unfilled(text)
                radii = memoryview(table).cast("i" if wide else "B")[: 2 * len(text) + 1]
                kernel.write_table(radii, out.write, CHUNK, ref, tail)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            return wall, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

        def run(kernel, call: str, text) -> tuple[float, float, int]:
            if args.fork:
                return forked(lambda: measure(kernel, call, text))
            return measure(kernel, call, text)

        calls = [(name, call) for name in texts for call in ("scan", "write", "find")]
        walls = {(name, call, side): [] for name, call in calls for side in kernels}
        cpus = {key: [] for key in walls}
        faults = {key: [] for key in walls}
        free = []  # the rounds whose probe overlapped
        for round_ in range(args.rounds):
            if overlapped():
                free.append(round_)
            order = list(kernels) if round_ % 2 == 0 else list(kernels)[::-1]
            for name, call in calls:
                for side in order:
                    wall, cpu, made = run(kernels[side], call, texts[name])
                    walls[name, call, side].append(wall)
                    cpus[name, call, side].append(cpu)
                    faults[name, call, side].append(made)

    def columns(times: dict, key: tuple, side: str, rounds: list[int]) -> str:
        """Min, q1 and lower-in of ``side`` in ``times`` over ``rounds``, against the other side."""
        values = [times[(*key, side)][i] for i in rounds]
        other = [times[(*key, "change" if side == "parent" else "parent")][i] for i in rounds]
        if len(values) < 2:
            return f"{len(values)} rounds, too few"
        q1 = statistics.quantiles(values, n=4)[0]
        lower = sum(mine < theirs for mine, theirs in zip(values, other))
        return f"min {1e3 * min(values):7.2f}  q1 {1e3 * q1:7.2f}  lower in {lower:>3}/{len(rounds)}"

    where = "each call in a forked child" if args.fork else "in process"
    print(f"{args.rounds} rounds, parent {args.rev}, change the working tree, {where}; ms")
    print(f"second core free (probe overlapped) in {len(free)}/{args.rounds} rounds")
    every = list(range(args.rounds))
    for key in calls:
        for side in kernels:
            print(
                f"{key[0]:<12} {key[1]:<6} {side:<7} wall {columns(walls, key, side, every)}"
                f"  cpu {columns(cpus, key, side, every)}  faults {statistics.median(faults[(*key, side)]):g}"
            )
            print(f"{'':<12} {'':<6} {side:<7} wall {columns(walls, key, side, free)}  (second core free)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
