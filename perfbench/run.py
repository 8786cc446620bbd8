#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``lps find`` and ``lps radii``.

Run from the repository root:

    python3 perfbench/run.py --workload random-1e6 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload random-1e6 --seed 1 --seconds 25 --trace 1

``--trace 0`` times subprocess runs of ``python -m lps find --span`` and
``python -m lps radii`` on generated input files, plus in-process
``lps.longest_palindrome``: one call at a time, a closed loop with one
client. ``--trace 1`` instead runs ``lps.cli.main`` in process, once under
the span wrappers of spans.py and once without, and reports per-layer
numbers. Every output is checked against a reference computed during
set-up by a solver that shares no code with the engine.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it are a
readable report: the environment record, then every metric with its unit,
sample count, quartiles and raw wall-clock median (see hostspeed.py). The
same report, with every sample, and in traced runs the spans,
are written as JSON under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

from hostspeed import CAL_NOMINAL_S, HostSpeed
from spawner import Spawner
from spans import Recorder, duration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_ROUNDS = 3  # set-up runs this often per run; setup_s is the median
PROBE_REPEATS = 7  # fresh interpreters behind python.startup_s and cli.import_s
MB = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    alphabet: int  # GenSpec alphabet size; 1 gives "a" * length for every seed
    files: int  # input i comes from GenSpec(length, alphabet, seed + i)
    oracle: str  # reference solver: "naive" (quadratic) or "augmented"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-1e6", 1_000_000, 3, 1, "augmented"),
        Workload("unary-1e6", 1_000_000, 1, 1, "augmented"),
        Workload("short-1e3", 1_000, 3, 200, "naive"),
    )
}

END_TO_END = {
    "find_s": "s",
    "radii_s": "s",
    "find_rss_mb": "MB",
    "radii_rss_mb": "MB",
    "lib_find_s": "s",
    "setup_s": "s",
}

FIND_ARGS = ("find", "--span")
RADII_ARGS = ("radii",)


@dataclass
class Case:
    """One input file and the answers the reference solver gave for it."""

    path: Path
    text: str
    span: tuple[int, int, int]  # start, end, length of the leftmost longest palindrome
    find_out: bytes  # expected stdout of `lps find --span`
    radii_out: bytes  # expected stdout of `lps radii`


class Tally:
    """Attempted and failed operations over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def load_lps():
    """Import lps from the checkout's src/ and from nowhere else."""
    if not (SRC / "lps" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lps package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lps
    import lps.cli
    import lps.core
    import lps.generator
    import lps.reference

    if Path(lps.__file__).resolve().parent != SRC / "lps":
        raise SystemExit(f"perfbench: imported lps from {lps.__file__}, not from {SRC}")
    return lps


def encode_radii(radii) -> bytes:
    return (",".join(map(str, radii)) + "\n").encode()


def set_up(lps, workload: Workload, seed: int, workdir: Path) -> list[Case]:
    """Generate and write the inputs and compute their reference answers."""
    cases = []
    for i in range(workload.files):
        spec = lps.generator.GenSpec(workload.length, workload.alphabet, seed + i)
        text = lps.generator.gen_text(spec)
        path = workdir / f"in{i}.txt"
        path.write_bytes(text.encode("utf-8"))
        if workload.oracle == "naive":
            radii = lps.reference.naive_radii(text)
        else:
            radii, _ = lps.reference.augmented_radii(text)
        center = radii.index(max(radii))
        length = radii[center]
        start = (center - length) // 2
        end = start + length
        find_out = f"{text[start:end]}\n{start} {end} {length}\n".encode()
        cases.append(Case(path, text, (start, end, length), find_out, encode_radii(radii)))
    return cases


def set_up_rounds(lps, workload, seed, workdir, host, recorder=None):
    """Run set-up SETUP_ROUNDS times: (cases of the last round, seconds per round)."""
    seconds = []
    for _ in range(SETUP_ROUNDS):
        host.mark()
        span = recorder.span("setup", recorder.new_invocation()) if recorder else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            cases = set_up(lps, workload, seed, workdir)
        seconds.append(time.perf_counter() - start)
    return cases, seconds


def check_engine(lps, workload: Workload, cases: list[Case], tally: Tally) -> None:
    """Library-level gate: radii equal the reference, comparisons <= 4(N+1).

    Where the reference is the naive oracle, the augmented solver is
    checked against it as well.
    """
    for i, case in enumerate(cases):
        radii, stats = lps.core.compute_radii(case.text)
        bound = 4 * (len(case.text) + 1)
        tally.record(
            encode_radii(radii) == case.radii_out and stats.comparisons <= bound,
            f"core.compute_radii on input {i} ({stats.comparisons} comparisons, bound {bound})",
        )
        if workload.oracle == "naive":
            radii, _ = lps.reference.augmented_radii(case.text)
            tally.record(encode_radii(radii) == case.radii_out, f"reference.augmented_radii on input {i}")


def closed_loop(cases: list[Case], seconds: float):
    """Yield ``(i, case)`` with input ``i % len(cases)``, one at a time, and
    start another pass while less than ``seconds`` have passed."""
    begin = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - begin < seconds:
        yield i % len(cases), cases[i % len(cases)]
        i += 1


def lps_argv(*args) -> list[str]:
    return [sys.executable, "-m", "lps", *args]


def measure(lps, spawner, host, cases: list[Case], seconds: float, workdir: Path, tally: Tally) -> dict:
    """The untraced closed loop: samples of every end-to-end metric but setup_s."""
    samples = {name: [] for name in END_TO_END if name != "setup_s"}
    out, err = workdir / "out.txt", workdir / "err.txt"
    for i, case in closed_loop(cases, seconds):
        for args, expected, key in (
            (FIND_ARGS, case.find_out, "find"),
            (RADII_ARGS, case.radii_out, "radii"),
        ):
            host.mark()
            wall, peak, code = spawner.run(lps_argv(*args, str(case.path)), out, err)
            samples[f"{key}_s"].append(wall)
            samples[f"{key}_rss_mb"].append(peak)
            ok = code == 0 and out.read_bytes() == expected
            tally.record(ok, f"lps {' '.join(args)} on input {i}: exit {code} {err.read_bytes()[-500:]!r}")
        host.mark()
        start = time.perf_counter()
        result = lps.longest_palindrome(case.text)
        samples["lib_find_s"].append(time.perf_counter() - start)
        got = (result.span.start, result.span.end, result.length)
        tally.record(got == case.span, f"lps.longest_palindrome on input {i}: {got} != {case.span}")
    return samples


def call_main(lps, args, out_path: Path, span=contextlib.nullcontext):
    """``lps.cli.main(args)`` in process, stdout to ``out_path``: (seconds, exit code)."""
    with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        with span():
            try:
                code = lps.cli.main(list(args))
            except Exception:  # a crash is a failed invocation, the run goes on
                traceback.print_exc()
                code = -1
        return time.perf_counter() - start, code


def traced_peak_mb(lps, text) -> float:
    """tracemalloc peak of one untimed, unwrapped ``core.compute_radii`` call."""
    tracemalloc.start()
    try:
        lps.core.compute_radii(text)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def probe(spawner, host, code: str, workdir: Path) -> tuple[float, str]:
    """A fresh interpreter running ``code``: (seconds from spawn to exit, its stdout)."""
    out, err = workdir / "probe.out", workdir / "probe.err"
    host.mark()
    seconds, _, status = spawner.run([sys.executable, "-c", code], out, err)
    if status != 0:
        raise RuntimeError(f"probe {code!r} exited {status}: {err.read_text()[-500:]}")
    return seconds, out.read_text()


IMPORT_PROBE = "import time; t = time.perf_counter(); import lps.cli; print(time.perf_counter() - t)"


def span_targets(lps):
    return [
        (lps.core, "compute_radii", "core.compute_radii"),
        (lps.core, "argmax", "core.argmax"),
        (lps.reference, "augmented_radii", "reference.augmented_radii"),
        (lps.generator, "gen_text", "generator.gen_text"),
    ]


def stat(values, unit: str) -> dict:
    """Median with its sample count, quartiles and, from 20 samples, the
    highest percentile that still has ten samples beyond it. ``values``
    keeps the samples in the order they were taken."""
    out = {"value": statistics.median(values), "unit": unit, "samples": len(values), "values": list(values)}
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        pct = int(100 * (len(values) - 10) / len(values))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def exact(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scale_timings(metrics: dict, factor: float) -> None:
    """Scale each timing's median, quartiles and percentile to the nominal
    host speed; ``raw_median`` and ``values`` stay as measured."""
    for metric in metrics.values():
        if metric["unit"] == "s":
            metric["raw_median"] = metric["value"]
            for key in list(metric):
                if key in ("value", "q1", "q3") or key.startswith("p"):
                    metric[key] *= factor


def plain_run(lps, spawner, host, workload, seed, seconds, workdir, tally, tamper) -> dict:
    cases, setup_seconds = set_up_rounds(lps, workload, seed, workdir, host)
    if tamper:
        tamper(cases)
    check_engine(lps, workload, cases, tally)
    samples = measure(lps, spawner, host, cases, seconds, workdir, tally)
    samples["setup_s"] = setup_seconds
    return {name: stat(samples[name], unit) for name, unit in END_TO_END.items()}


def traced_run(lps, spawner, host, workload, seed, seconds, workdir, tally, tamper, recorder) -> dict:
    targets = span_targets(lps)
    with recorder.patched(targets):
        cases, _ = set_up_rounds(lps, workload, seed, workdir, host, recorder)
        if tamper:
            tamper(cases)
        with recorder.span("check", recorder.new_invocation()) as check_root:
            check_engine(lps, workload, cases, tally)
    peak_mb = traced_peak_mb(lps, cases[0].text)
    startup = [probe(spawner, host, "pass", workdir)[0] for _ in range(PROBE_REPEATS)]
    imports = [float(probe(spawner, host, IMPORT_PROBE, workdir)[1]) for _ in range(PROBE_REPEATS)]

    def traced_span(command):
        return lambda: recorder.span("cli.main", recorder.new_invocation(), command=command)

    overheads = []  # per pass: traced over untraced time of the same calls, minus 1
    out = workdir / "out.txt"
    for i, case in closed_loop(cases, seconds):
        host.mark()
        pass_seconds = {True: 0.0, False: 0.0}
        for args, expected in ((FIND_ARGS, case.find_out), (RADII_ARGS, case.radii_out)):
            command = args[0]
            # alternate which side goes first, so drift falls on both equally
            for traced in (True, False) if i % 2 == 0 else (False, True):
                if traced:
                    with recorder.patched(targets):
                        took, code = call_main(lps, [*args, str(case.path)], out, traced_span(command))
                else:
                    took, code = call_main(lps, [*args, str(case.path)], out)
                pass_seconds[traced] += took
                ok = code == 0 and out.read_bytes() == expected
                tally.record(ok, f"cli.main {' '.join(args)} on input {i} (traced={traced}, exit {code})")
        overheads.append(pass_seconds[True] / pass_seconds[False] - 1)

    roots = recorder.named("cli.main")
    setups = recorder.named("setup")
    core_s = [duration(s) for s in recorder.named("core.compute_radii")]
    aug_s = [duration(s) for s in recorder.named("reference.augmented_radii")]
    aug_root = check_root if workload.oracle == "naive" else setups[-1]
    return {
        "core.compute_radii_s": stat(core_s, "s"),
        "core.compute_radii.comparisons": exact(
            sum(s["comparisons"] for s in recorder.descendants(check_root["id"], "core.compute_radii")), "count"
        ),
        "core.compute_radii.peak_mb": exact(peak_mb, "MB"),
        "core.argmax_s": stat([duration(s) for s in recorder.named("core.argmax")], "s"),
        "cli.import_s": stat(imports, "s"),
        "python.startup_s": stat(startup, "s"),
        "cli.find.self_s": stat([recorder.self_time(s) for s in roots if s["command"] == "find"], "s"),
        "cli.radii.self_s": stat([recorder.self_time(s) for s in roots if s["command"] == "radii"], "s"),
        "cli.radii.out_bytes": exact(sum(len(case.radii_out) for case in cases), "bytes"),
        "reference.augmented_radii_s": stat(aug_s, "s"),
        "reference.augmented_radii.comparisons": exact(
            sum(s["comparisons"] for s in recorder.descendants(aug_root["id"], "reference.augmented_radii")), "count"
        ),
        "core.vs_augmented": exact(statistics.median(core_s) / statistics.median(aug_s), "ratio"),
        "generator.gen_text_s": stat(
            [sum(duration(g) for g in recorder.descendants(s["id"], "generator.gen_text")) for s in setups], "s"
        ),
        "trace.overhead_frac": stat(overheads, "frac"),
    }


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not let git search parent directories
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(workload),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def describe(name: str, metric: dict) -> str:
    detail = ""
    if "samples" in metric:
        detail = f"median of {metric['samples']}"
        extra = [
            f"{key} {value:.6g}" for key, value in metric.items() if key not in ("value", "unit", "samples", "values")
        ]
        if extra:
            detail += f" ({', '.join(extra)})"
    return f"{name:<40} {metric['value']:>14.6g} {metric['unit']:<6} {detail}"


def run(lps, spawner, workload: Workload, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    """One benchmark run; prints the report and returns the result object.

    ``tamper``, when given, is called with the set-up cases before any
    check, so a test can corrupt a reference answer.
    """
    env = environment(workload, seed, seconds, trace)
    run_id = f"{workload.name}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    host = HostSpeed()
    recorder = Recorder() if trace else None
    try:
        if trace:
            metrics = traced_run(lps, spawner, host, workload, seed, seconds, workdir, tally, tamper, recorder)
        else:
            metrics = plain_run(lps, spawner, host, workload, seed, seconds, workdir, tally, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["host_calibration_s"] = stat(host.calibrations, "s")
    env["host_factor"] = host.factor()
    env["cal_nominal_s"] = CAL_NOMINAL_S
    scale_timings(metrics, host.factor())
    fail_frac = exact(tally.failed / tally.attempted, "frac")

    print(f"perfbench {run_id}")
    print("env " + json.dumps(env))
    for name, metric in {**metrics, "fail_frac": fail_frac}.items():
        print(describe(name, metric))
    report = {"env": env, "attempted": tally.attempted, "failed": tally.failed, "fail_frac": fail_frac, "metrics": metrics}
    with open(WORK / f"{run_id}.report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if recorder:
        recorder.dump(WORK / f"{run_id}.spans.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # the helper starts first, while this process is still small (see spawner.py)
    with Spawner(ROOT, dict(os.environ, PYTHONPATH=str(SRC))) as spawner:
        lps = load_lps()
        run(lps, spawner, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
