"""In-memory span recorder for the benchmark's traced pass.

Spans are recorded from outside the program: :meth:`Recorder.patched`
replaces public functions on the ``lps`` modules with wrappers that open a
span around each call and restores the originals on exit. The modules look
these functions up as module attributes at call time (``cli.main`` calls
``core.compute_radii``, ``core.longest_palindrome`` calls ``argmax``), so
the wrappers see the calls the CLI itself makes.

Each span records its name, start and end (``time.perf_counter`` seconds),
the id of the span that caused it, the id of the invocation it belongs
to, and any counts returned at that boundary. Nothing is written until
:meth:`Recorder.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._children: dict[int, list[dict]] = {}
        self._stack: list[int] = []
        self._invocations = 0

    def new_invocation(self) -> int:
        self._invocations += 1
        return self._invocations

    @contextlib.contextmanager
    def span(self, name: str, invocation: int | None = None, **attrs):
        """Record one span; the innermost open span becomes its parent."""
        parent = self._stack[-1] if self._stack else None
        if invocation is None:
            invocation = self.spans[parent]["invocation"] if parent is not None else 0
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "invocation": invocation,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._children.setdefault(parent, []).append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = func(*args, **kwargs)
                # the solvers return (radii, CompareStats): keep the count
                stats = result[1] if isinstance(result, tuple) and len(result) == 2 else None
                if hasattr(stats, "comparisons"):
                    rec["comparisons"] = stats.comparisons
                return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install span wrappers on ``(module, attribute, span_name)`` targets."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for (module, attr, name), (_, _, original) in zip(targets, saved):
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def children(self, span_id: int) -> list[dict]:
        return self._children.get(span_id, [])

    def descendants(self, span_id: int, name: str) -> list[dict]:
        found = []
        for child in self.children(span_id):
            if child["name"] == name:
                found.append(child)
            found.extend(self.descendants(child["id"], name))
        return found

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        """Span duration minus the part of it that its child spans cover."""
        covered = 0.0
        reach = span["start"]
        for child in sorted(self.children(span["id"]), key=lambda s: s["start"]):
            lo = max(child["start"], reach)
            if child["end"] > lo:
                covered += child["end"] - lo
                reach = child["end"]
        return (span["end"] - span["start"]) - covered

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
