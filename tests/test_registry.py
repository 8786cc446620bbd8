"""Tests for the solver registry and the shared result builder."""

from __future__ import annotations

from collections import Counter

import pytest

import lps.core
from lps import cli
from lps.bench import IMPLS, BenchSpec, run_bench
from lps.core import CompareStats, Unsupported, result_from_radii
from lps.generator import GenSpec, gen_text
from lps.reference import SOLVERS, naive_radii

CORPUS = {
    "empty": "",
    "unary": "a" * 200,
    "ab-periodic": "ab" * 100,
    "aab-periodic": "aab" * 67,
    "random-a2": gen_text(GenSpec(300, 2, 11)),
    "random-a3": gen_text(GenSpec(300, 3, 12)),
    "random-a26": gen_text(GenSpec(300, 26, 13)),
    "bytes": b"\x00xyzzyx\xff\xfe\xffabba",
    "tokens": ("to", "be", "or", "not", "or", "be", "to", "be"),
}


@pytest.mark.parametrize("name", SOLVERS)
@pytest.mark.parametrize("case", CORPUS)
def test_every_solver_matches_naive_oracle(name, case):
    text = CORPUS[case]
    if name == "native" and isinstance(text, tuple):
        # the compiled kernel reads flat str and bytes buffers only
        with pytest.raises(Unsupported, match="got tuple$"):
            SOLVERS[name](text)
        return
    radii, stats = SOLVERS[name](text)
    assert list(radii) == naive_radii(text)
    assert stats == CompareStats(stats.comparisons, list(radii).index(max(radii)))
    assert type(stats) is CompareStats and type(stats.comparisons) is int
    assert result_from_radii(radii, stats) == result_from_radii(*SOLVERS["naive"](text))


def test_registry_names_every_implementation_once(capsys):
    assert tuple(SOLVERS) == IMPLS == ("naive", "augmented", "indexmap", "native")
    # --impl takes exactly the registry's names, and an unknown one lists them
    for command in ("find", "radii"):
        for name in SOLVERS:
            assert cli._parse([command, "--impl", name]).impl == name
        assert cli.main([command, "--impl", "turbo"]) == cli.EXIT_USAGE
        assert str(tuple(SOLVERS)) in capsys.readouterr().err


def test_engine_is_looked_up_at_call_time(monkeypatch, tmp_path, capsys):
    # The benchmark's tracer replaces these module attributes; every entry
    # point must reach the replacement, not a reference bound at import.
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module, name in ((lps.core, "compute_radii"), (lps.core, "argmax"), (lps.core, "longest_palindrome")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name in ("compute_radii", "longest_palindrome"):
        monkeypatch.setattr(lps.native, name, counting(f"native.{name}", getattr(lps.native, name)))
    path = tmp_path / "input.txt"
    path.write_text("bananas")
    kernel = lps.native.takes("bananas")

    assert cli.main(["find", str(path)]) == 0
    # the default engine runs the kernel through lps.core.kernel, which is
    # lps.native, and takes its result through argmax as every engine does
    solved = {"native.longest_palindrome": 1} if kernel else {"compute_radii": 1}
    assert calls == {"longest_palindrome": 1, "argmax": 1, **solved}

    calls.clear()
    assert cli.main(["radii", str(path)]) == 0
    # radii solves for the table, its tail left to the mirrors, and only writes it after
    assert calls == {"compute_radii": 1, **({"native.compute_radii": 1} if kernel else {})}

    # the default engine may run the Python scan too (no kernel); count it from here on
    monkeypatch.setattr(lps.core, "python_radii", counting("python_radii", lps.core.python_radii))
    calls.clear()
    assert cli.main(["find", "--impl", "indexmap", str(path)]) == 0
    assert calls == {"python_radii": 1, "argmax": 1}

    calls.clear()
    run_bench(BenchSpec(lengths=(20,), alphabet_sizes=(2,), repeats=1, impls=("indexmap",)))
    assert calls == {"python_radii": 2}  # warm-up pass plus one trial

    assert capsys.readouterr().out == "anana\n0,1,0,1,0,3,0,5,0,3,0,1,0,1,0\nanana\n"
