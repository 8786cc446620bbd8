#!/usr/bin/env python3
"""Paired parent/change runs of perfbench, summarized as a BENCH_*.json file.

Run from the repository root:

    python3 scripts/bench_pair.py --parent HEAD~1 --change HEAD --out BENCH_6.json \\
        random-1e6=1-10 short-1e3=11-20 unary-1e6=21,22,23 random-1e6/trace1=24

Each positional argument names a perfbench workload, optionally with
``/trace1`` for traced runs, and its seeds (a range ``A-B`` or a comma
list). For every seed the script runs one pair: each
revision is exported with ``git archive`` into its own fresh directory
under the temporary directory, so every run starts with no compiled
library, and ``python3 perfbench/run.py --workload W --seed S --seconds 25
--trace T`` runs there (25 s is the benchmark's fixed run length,
``SECONDS``). Pairs alternate which side goes first, so a drift of the
host falls on both sides.

The output keeps the schema of the earlier BENCH files: ``description``,
``parent`` and ``change`` (the resolved commits), ``summary`` and
``runs``. ``parent_src`` and ``change_src`` name each commit's ``src``
tree (``git rev-parse <commit>:src``): a change measured from an
unmerged commit, say one made with ``git stash create``, ran the merged
commit's program when the two trees are equal. ``runs`` holds one record
per run with the metrics perfbench reported (host-scaled medians, their
quartiles and ``raw_median``). ``summary`` has, per
``workload/traceT/metric``, the median and quartiles of the run medians
on each side (``statistics.quantiles``, exclusive method), the number of
pairs, and in how many of them the change was lower. It also applies the
rule a claimed gain must meet, for a metric where lower is better (every
metric perfbench reports): ``parent_spread`` is q3 - q1 of the parent's
run medians, ``gap`` is the parent median minus the change median, and
``claim_met`` holds when the change was lower in at least 9 of every 10
pairs and ``gap > parent_spread``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25


def seeds(raw: str) -> list[int]:
    if "-" in raw:
        first, last = map(int, raw.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in raw.split(",")]


def workload_seeds(raw: str) -> tuple[str, int, list[int]]:
    """``WORKLOAD[/trace1]=SEEDS`` as (workload, trace, seeds)."""
    name, sep, spec = raw.partition("=")
    workload, _, trace = name.partition("/")
    if not sep or trace not in ("", "trace1"):
        raise argparse.ArgumentTypeError(f"expected WORKLOAD[/trace1]=SEEDS, got {raw!r}")
    return workload, int(trace == "trace1"), seeds(spec)


def rev_parse(name: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", name], capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def run_side(commit: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in a fresh export of ``commit``: its report."""
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(SECONDS), "--trace", str(trace)]
        done = subprocess.run(argv, cwd=tmp, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"bench_pair: {' '.join(argv)} at {commit[:12]} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
        report = Path(tmp, ".perfbench_work", f"{workload}-seed{seed}-trace{trace}.report.json")
        return json.loads(report.read_text())


def record(side: str, workload: str, seed: int, trace: int, pair: int, first: bool, report: dict) -> dict:
    env = report["env"]
    return {
        "side": side, "workload": workload, "seed": seed, "trace": trace, "pair": pair, "ran_first": first,
        "attempted": report["attempted"], "failed": report["failed"], "host_factor": env["host_factor"],
        "loadavg_1m": [env["loadavg_1m_start"], env["loadavg_1m_end"]],
        "metrics": {name: {k: v for k, v in m.items() if k != "values"} for name, m in report["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list[dict]) -> dict:
    groups: dict[str, dict[int, dict[str, float]]] = {}  # key -> pair -> side -> run median
    for run in runs:
        for name, metric in run["metrics"].items():
            key = f"{run['workload']}/trace{run['trace']}/{name}"
            groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = metric["value"]
    summary = {}
    for key, pairs in groups.items():
        both = [p for p in pairs.values() if "parent" in p and "change" in p]
        entry = {}
        for side in ("parent", "change"):
            values = [p[side] for p in both]
            q1, q3 = quartiles(values)
            entry.update({f"{side}_median": statistics.median(values), f"{side}_q1": q1, f"{side}_q3": q3})
        entry["pairs"] = len(both)
        entry["change_lower_in_pairs"] = lower = sum(p["change"] < p["parent"] for p in both)
        entry["parent_spread"] = spread = entry["parent_q3"] - entry["parent_q1"]
        entry["gap"] = gap = entry["parent_median"] - entry["change_median"]
        entry["claim_met"] = 10 * lower >= 9 * len(both) and gap > spread
        summary[key] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json file to write")
    parser.add_argument("workloads", nargs="+", type=workload_seeds, metavar="WORKLOAD[/trace1]=SEEDS")
    args = parser.parse_args(argv)

    sides = {"parent": rev_parse(f"{args.parent}^{{commit}}"), "change": rev_parse(f"{args.change}^{{commit}}")}
    trees = {side: rev_parse(f"{commit}:src") for side, commit in sides.items()}
    runs = []
    pair = 0
    for workload, trace, seed_list in args.workloads:
        for seed in seed_list:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"bench_pair: pair {pair} {workload} seed {seed} trace {trace} {side}", file=sys.stderr)
                report = run_side(sides[side], workload, seed, trace)
                runs.append(record(side, workload, seed, trace, pair, side == order[0], report))
            pair += 1

    cc = shutil.which("cc")
    compiler = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout.split("\n")[0] if cc else "none"
    description = (
        f"Paired runs of `python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
        "--trace T`, parent commit vs change, each run in its own fresh `git archive` export "
        "(no compiled library at the start); pairs alternate which side runs first. Timings are host-scaled "
        "medians as perfbench reports them (raw_median is unscaled); summary quartiles are over the runs' "
        f"medians (Python statistics.quantiles, exclusive method). Made by scripts/bench_pair.py. Host: "
        f"{platform.machine()} {platform.system()}, {len(os.sched_getaffinity(0))} cores, "
        f"Python {platform.python_version()}, {compiler}."
    )
    result = {
        "description": description,
        "parent": sides["parent"], "parent_src": trees["parent"],
        "change": sides["change"], "change_src": trees["change"],
        "summary": summarize(runs), "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"bench_pair: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
