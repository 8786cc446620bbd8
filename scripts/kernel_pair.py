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
path, row ``write``, is ``scan(text)`` followed by the kernel's
``write_table(table, write, chunk)``, as ``lps radii`` runs them; a REV
whose kernel has no ``write_table`` runs ``scan(text, write, chunk)``
there. It writes to a file in the temporary directory,
``lps.native.CHUNK`` (65,536) entries per chunk. Row ``find`` is
``longest(text)``, as ``lps find`` runs it; a REV whose kernel has no
``longest`` runs ``scan(text)`` there. Within a round the side that runs
first alternates, so a drift of the host falls on both sides.

For each call it prints two columns per side, wall time
(``time.perf_counter``) and the process's CPU time
(``time.process_time``, which counts both threads): each column's
minimum and first quartile in ms (``statistics.quantiles``, exclusive
method) and in how many rounds that side was lower. Then comes the
median number of minor page faults the call made (``ru_minflt``, both
threads). Claim a cut in work (instructions, comparisons, faults) on CPU
time, and a gain from parallelism on wall time. The helper thread of a
split scan overlaps the calling thread only while the second core is
free, so wall time moves with the host while CPU time stays: on a 2-core
x86_64 host random-1e6 ``scan`` read min wall 13.4 / CPU 13.3 ms in one
run (no overlap), and wall 6.5 / CPU 12.6 ms in the next. The median
is left out: at 1e6 the wall times are bimodal, and the median moves
between runs of the same build far more than the differences the script
is used to resolve. In process, at 1e6 the faults column depends on
what ran before. Until a table of 8 MB or more has been freed, glibc
maps each table afresh, and the 2 MB a one-byte table touches fault on
every call: about 490 pages
on random-1e6. Once one has been freed, as after the first unary-1e6
call, glibc serves a 1e6 table from memory already faulted in, and the
column reads 0. The times do not follow the faults: on a 2-core x86_64
host random-1e6 ``scan`` read min 12.2 ms at 490 faults timed alone here
and 6.0 ms at 0 faults after unary-1e6, but in a plain loop 6.1 ms at
490 faults and 11.2 ms at 0, the two modes of the bimodal wall times
above, which the CPU column tells apart.
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
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lps import native  # noqa: E402
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


def load(source: bytes, directory: str, side: str):
    """``source`` built into ``directory`` and loaded as ``side._manacher``."""
    library = os.path.join(directory, f"{side}{EXTENSION_SUFFIXES[0]}")
    native._build(source, library)
    loader = ExtensionFileLoader(f"{side}._manacher", library)
    module = loader.create_module(ModuleSpec(loader.name, loader, origin=library))
    loader.exec_module(module)
    return module


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

        def measure(kernel, call: str, text) -> tuple[float, float, int]:
            out.seek(0)
            out.truncate()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cpu, start = time.process_time(), time.perf_counter()
            if call == "find" and hasattr(kernel, "longest"):
                kernel.longest(text)
            elif call != "write":
                kernel.scan(text)
            elif hasattr(kernel, "write_table"):
                table = memoryview(kernel.scan(text)[0])
                radii = table if len(table) == 2 * len(text) + 1 else table.cast("i")
                kernel.write_table(radii, out.write, native.CHUNK)
            else:  # a kernel whose scan formats, given write
                kernel.scan(text, out.write, native.CHUNK)
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
        for round_ in range(args.rounds):
            order = list(kernels) if round_ % 2 == 0 else list(kernels)[::-1]
            for name, call in calls:
                for side in order:
                    wall, cpu, made = run(kernels[side], call, texts[name])
                    walls[name, call, side].append(wall)
                    cpus[name, call, side].append(cpu)
                    faults[name, call, side].append(made)

    def columns(times: dict, key: tuple, side: str) -> str:
        """Min, q1 and lower-in of ``side`` in ``times``, against the other side."""
        values, other = times[(*key, side)], times[(*key, "change" if side == "parent" else "parent")]
        q1 = statistics.quantiles(values, n=4)[0]
        lower = sum(mine < theirs for mine, theirs in zip(values, other))
        return f"min {1e3 * min(values):7.2f}  q1 {1e3 * q1:7.2f}  lower in {lower:>3}/{args.rounds}"

    where = "each call in a forked child" if args.fork else "in process"
    print(f"{args.rounds} rounds, parent {args.rev}, change the working tree, {where}; ms")
    for key in calls:
        for side in kernels:
            print(
                f"{key[0]:<12} {key[1]:<6} {side:<7} wall {columns(walls, key, side)}"
                f"  cpu {columns(cpus, key, side)}  faults {statistics.median(faults[(*key, side)]):g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
