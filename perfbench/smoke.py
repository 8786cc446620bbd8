#!/usr/bin/env python3
"""Quick self-tests of the benchmark on tiny inputs; run from the repository root:

    python3 perfbench/smoke.py

Checks that
1. every metric BENCHMARK.json names is reported, with its unit, in both
   modes and for every workload shape, and the report also prints fail_frac;
2. a tampered reference answer counts as a failure instead of being dropped;
3. the traced pass records the spans the per-layer metrics are built from;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Prints "smoke: ok" and exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from spawner import Spawner

TINY = {
    "random-1e6": {"length": 3000},
    "unary-1e6": {"length": 2000},
    "short-1e3": {"length": 60, "files": 3},
}
SECONDS = 0.3
SEED = 7
TRACED_SPANS = {
    "setup",
    "check",
    "cli.main",
    "core.compute_radii",
    "core.argmax",
    "reference.augmented_radii",
    "generator.gen_text",
}


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], name=f"smoke-{name}", **TINY[name])


def quiet_run(lps, spawner, workload, trace, tamper=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run.run(lps, spawner, workload, SEED, SECONDS, trace, tamper)
    return result, out.getvalue(), err.getvalue()


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED {what}")


def check_metrics(lps, spawner, declared) -> None:
    for name in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, report, _ = quiet_run(lps, spawner, tiny(name), trace)
            what = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{what}: clean run reported failures")
            check(json.loads(report.strip().splitlines()[-1]) == result, f"{what}: last line is not the result")
            expected = {m["name"]: m["unit"] for m in declared[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == expected, f"{what}: metrics {got} != declared {expected}")
            for metric, value in result["metrics"].items():
                number = value["value"]
                check(isinstance(number, (int, float)) and math.isfinite(number), f"{what}: {metric} = {number!r}")
            lines = report.splitlines()
            for metric, unit in {**expected, "fail_frac": "frac"}.items():
                check(
                    any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines),
                    f"{what}: report has no '{metric} <value> {unit}' line",
                )


def check_tampered(lps, spawner) -> None:
    def tamper(cases):
        case = cases[0]
        case.radii_out = b"9" + case.radii_out[1:]
        case.find_out = b"x" + case.find_out
        case.span = (case.span[0], case.span[1], case.span[2] + 1)

    for trace in (False, True):
        result, report, errors = quiet_run(lps, spawner, tiny("random-1e6"), trace, tamper)
        what = f"tampered trace={int(trace)}"
        check(not result["correct"] and result["failed"] > 0, f"{what}: failures not counted: {result}")
        check("FAILED" in errors, f"{what}: failures not reported on stderr")
        fail_line = next(line for line in report.splitlines() if line.startswith("fail_frac"))
        check(float(fail_line.split()[1]) > 0, f"{what}: fail_frac stayed 0")


def check_spans(lps, spawner) -> None:
    workload = tiny("short-1e3")
    quiet_run(lps, spawner, workload, True)
    with open(run.WORK / f"{workload.name}-seed{SEED}-trace1.spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    check(TRACED_SPANS <= names, f"missing spans {TRACED_SPANS - names}")
    for s in spans:
        check(s["start"] <= s["end"], f"span {s} ends before it starts")
        parent = by_id.get(s["parent"])
        if parent is None:
            check(s["name"] in ("setup", "check", "cli.main"), f"root span {s['name']}")
        else:
            check(s["invocation"] == parent["invocation"], f"span {s} left its invocation")
            check(parent["start"] <= s["start"] and s["end"] <= parent["end"], f"span {s} outside its parent")
    parents = {(s["name"], by_id[s["parent"]]["name"]) for s in spans if s["parent"] is not None}
    for pair in [
        ("core.compute_radii", "cli.main"),
        ("core.argmax", "cli.main"),
        ("core.compute_radii", "check"),
        ("reference.augmented_radii", "check"),
        ("generator.gen_text", "setup"),
    ]:
        check(pair in parents, f"no {pair[0]} span under {pair[1]}")
    roots = [s["invocation"] for s in spans if s["parent"] is None]
    check(len(roots) == len(set(roots)), "two root spans share an invocation id")


def check_bare_directory() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "short-1e3", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "bare directory run exited 0")
    check('"correct"' not in done.stdout, "bare directory run printed a result")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    with Spawner(run.ROOT, dict(os.environ, PYTHONPATH=str(run.SRC))) as spawner:
        lps = run.load_lps()
        check_metrics(lps, spawner, declared)
        check_tampered(lps, spawner)
        check_spans(lps, spawner)
    check_bare_directory()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
