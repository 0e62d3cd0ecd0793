"""Outside-in tracer: spans around the public functions of the systolic layers.

Nothing inside the program is changed.  ``Tracer.install`` replaces module
attributes (and two ``CubicRibbonGraph`` methods) with wrappers that record a
span per call: name, start, end, the enclosing span on the same thread, and
optional exact counters computed from the return value.  The library calls
these functions through their module (``ribbon.girth``, ``census.N_of``) or
through module globals (``systole`` inside ``scanner``), so both routes see
the wrappers.  Spans stay in memory until ``write_spans``.

``layer_metrics`` turns the spans of one traced call into the per-layer
metrics that ``BENCHMARK.json`` lists, and ``add_ratios`` adds the two ratio
metrics once the calls of a pass are summed.  Self time is a span's duration minus the union of
the intervals its direct children cover.  ``trace.overhead_s`` is the time
the wrappers themselves took outside the calls they wrap: stack upkeep, the
result counters and span records.  It is positive whenever a span exists.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    counts: dict | None = None
    overhead: float = 0.0  # wrapper time outside [start, end]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _classes(found) -> dict:
    return {"classes": len(found), "empty": int(not found)}


def _members(reach) -> dict:
    return {"members": len(reach.members)}


def _word_nodes(counts) -> dict:
    return {"word_nodes": sum(counts.values())}


# (module name, owner attribute or None, function name, counter of the result)
TARGETS = (
    ("cli", None, "main", None),
    ("builder", None, "build", None),
    ("builder", None, "make_seed", None),
    ("builder", None, "forbidden_reach", _members),
    ("ribbon", "CubicRibbonGraph", "degree2_vertices", None),
    ("ribbon", "CubicRibbonGraph", "num_edges", None),
    ("ribbon", None, "girth", None),
    ("ribbon", None, "genus_closed", None),
    ("ribbon", None, "faces", None),
    ("ribbon", None, "serialize", None),
    ("ribbon", None, "deserialize", None),
    ("scanner", None, "low_trace_cycles", _classes),
    ("scanner", None, "systole", None),
    ("scanner", None, "bottom_spectrum", None),
    ("scanner", None, "certify", None),
    ("scanner", None, "report", None),
    ("census", None, "N_of", None),
    ("census", None, "count_words_by_trace", _word_nodes),
    ("census", None, "n_by_formula", None),
    ("census", None, "n_by_enumeration", None),
    ("words", None, "canonical", None),
    ("words", None, "trace_of", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr: str, name: str, counter) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # spans of calls that raised are dropped with the exception
            span = Span(span_id, parent, name, start, end, threading.get_ident(),
                        counter(result) if counter else None)
            span.overhead = (start - entered) + (time.perf_counter() - end)
            tracer.spans.append(span)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every target in the imported ``systolic`` package."""
        for module_name, owner_name, attr, counter in TARGETS:
            owner = importlib.import_module(f"systolic.{module_name}")
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self._wrap(owner, attr, f"{module_name}.{attr}", counter)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "thread": s.thread,
                    "counts": s.counts, "overhead": s.overhead,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: list[Span], build_report: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced operation; absent layers read 0.

    ``build_report`` is the ``--report`` JSON of a construct run, the only
    source of the iteration and Case-2 counts.  Ratios are left to
    ``add_ratios``, so that the metrics of several operations can be summed
    first; ``scanner.systole.calls`` and ``scanner.systole_scans`` are the
    parts of ``scanner.scans_per_systole``.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def calls(name: str) -> int:
        return len(named(name))

    def seconds(name: str) -> float:
        return sum(s.duration for s in named(name))

    def self_seconds(name: str) -> float:
        return sum(
            s.duration - _covered([(c.start, c.end) for c in children.get(s.id, ())])
            for s in named(name)
        )

    def counted(name: str, key: str) -> int:
        return sum(s.counts[key] for s in named(name))

    def under(span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    return {
        "builder.build.s": seconds("builder.build"),
        "builder.self_s": self_seconds("builder.build"),
        "builder.make_seed.s": seconds("builder.make_seed"),
        "builder.forbidden_reach.calls": calls("builder.forbidden_reach"),
        "builder.forbidden_reach.s": seconds("builder.forbidden_reach"),
        "builder.forbidden_reach.members": counted("builder.forbidden_reach", "members"),
        "builder.iterations": build_report["iterations"] if build_report else 0,
        "builder.case2": build_report["case2"] if build_report else 0,
        "ribbon.degree2_vertices.calls": calls("ribbon.degree2_vertices"),
        "ribbon.degree2_vertices.s": seconds("ribbon.degree2_vertices"),
        "ribbon.num_edges.calls": calls("ribbon.num_edges"),
        "ribbon.num_edges.s": seconds("ribbon.num_edges"),
        "ribbon.girth.calls": calls("ribbon.girth"),
        "ribbon.girth.s": seconds("ribbon.girth"),
        "ribbon.genus_closed.s": seconds("ribbon.genus_closed"),
        "ribbon.faces.calls": calls("ribbon.faces"),
        "ribbon.faces.s": seconds("ribbon.faces"),
        "ribbon.serialize.calls": calls("ribbon.serialize"),
        "ribbon.serialize.s": seconds("ribbon.serialize"),
        "ribbon.deserialize.s": seconds("ribbon.deserialize"),
        "scanner.low_trace_cycles.calls": calls("scanner.low_trace_cycles"),
        "scanner.low_trace_cycles.s": seconds("scanner.low_trace_cycles"),
        "scanner.low_trace_cycles.classes": counted("scanner.low_trace_cycles", "classes"),
        "scanner.empty_scans": counted("scanner.low_trace_cycles", "empty"),
        "scanner.systole.s": seconds("scanner.systole"),
        "scanner.systole.calls": calls("scanner.systole"),
        "scanner.systole_scans": sum(1 for s in named("scanner.low_trace_cycles")
                                     if under(s, "scanner.systole")),
        "scanner.bottom_spectrum.s": seconds("scanner.bottom_spectrum"),
        "scanner.certify.s": seconds("scanner.certify"),
        "scanner.report.self_s": self_seconds("scanner.report"),
        "census.N_of.calls": calls("census.N_of"),
        "census.count_words_by_trace.s": seconds("census.count_words_by_trace"),
        "census.word_nodes": counted("census.count_words_by_trace", "word_nodes"),
        "census.n_by_formula.s": seconds("census.n_by_formula"),
        "census.n_by_enumeration.s": seconds("census.n_by_enumeration"),
        "words.canonical.calls": calls("words.canonical"),
        "words.canonical.s": seconds("words.canonical"),
        "words.trace_of.calls": calls("words.trace_of"),
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": self_seconds("cli.main"),
        "trace.overhead_s": sum(s.overhead for s in spans),
    }


def add_ratios(values: dict[str, float]) -> dict[str, float]:
    """The ratio metrics, from (summed) ``layer_metrics`` values."""
    iterations = values["builder.iterations"]
    systoles = values["scanner.systole.calls"]
    return dict(
        values,
        **{
            "builder.reach_per_iteration":
                values["builder.forbidden_reach.calls"] / iterations if iterations else 0,
            "scanner.scans_per_systole": values["scanner.systole_scans"] / systoles if systoles else 0,
        },
    )
