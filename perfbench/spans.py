"""In-memory span tracing around calls into each layer's public functions.

The traced run wraps a fixed set of functions at the names their callers
look up (class attributes, or module globals imported by name) and records
one span per call: name, start, end and the parent span open on the same
thread.  Nothing in ``src/`` changes; :meth:`SpanRecorder.restore` puts the
originals back.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans; keeps them in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, *,
             root: bool = False):
        """Run ``fn`` inside a span.  Non-root spans are recorded only under
        an open span of the same thread, so calls made outside the measured
        region (or on guest threads) are not attributed."""
        stack = self._stack()
        if not stack and not root:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), stack[-1].id if stack else None, name,
                    time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, *, root: bool = False) -> None:
        """Replace ``owner.attr`` (a class or module) with a spanning wrapper."""
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, root=root)

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = []
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children[span.id], key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.duration - covered)
        return out

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the layer entry points the traced run attributes time to."""
    from repro.core import npkernel, suppress, tool, trace
    from repro.core.segments import SegmentGraph
    from repro.machine.machine import Machine

    recorder.wrap(Machine, "run", "machine.run")
    recorder.wrap(SegmentGraph, "prepare_queries", "segments.prepare_queries")
    for module in (tool, trace):
        # both modules import these by name, so wrap each module's binding
        recorder.wrap(module, "find_races_indexed", "analysis.find_races")
        recorder.wrap(module, "build_report", "reports.build_report")
    recorder.wrap(npkernel.KernelContext, "check_pairs",
                  "analysis.check_pairs")
    recorder.wrap(suppress.SuppressionEngine, "filter_all",
                  "suppress.filter_all")
    for attr, name in (("save_trace", "trace.save"),
                       ("load_trace_full", "trace.load"),
                       ("analyze_loaded", "trace.analyze")):
        recorder.wrap(trace, attr, name, root=True)


#: span name -> per-layer self-time metric, for spans under a verdict root
SELF_TIME_METRICS = {
    "verdict": "unattributed_s",
    "machine.run": "machine.run_s",
    "segments.prepare_queries": "segments.prepare_s",
    "analysis.find_races": "analysis.candidates_self_s",
    "analysis.check_pairs": "analysis.pairs_s",
    "suppress.filter_all": "suppress.s",
    "reports.build_report": "reports.s",
}

#: root span name -> metric of its total duration
ROOT_METRICS = {
    "verdict": "traced.verdict_s",
    "trace.save": "trace.save_s",
    "trace.load": "trace.load_s",
    "trace.analyze": "trace.analyze_s",
}


def check_coverage(recorder: SpanRecorder, *, verdicts: int,
                   roundtrips: int, numpy_verdicts: int,
                   survived: int) -> List[str]:
    """Check that every wrapped layer fired as often as the pass implies.

    A binding that callers stop looking up (say ``finalize`` switching to
    another analysis entry point) would otherwise read as 0 s in its layer
    and move its time into ``unattributed_s``.  Returns one message per
    (root, span) count that differs from the expected one.
    """
    fired: Dict[Tuple[str, str], int] = defaultdict(int)
    for span in recorder.spans:
        fired[recorder.root_of(span).name, span.name] += 1
    expected = {("verdict", "verdict"): verdicts,
                ("verdict", "machine.run"): verdicts,
                ("verdict", "segments.prepare_queries"): verdicts,
                ("verdict", "analysis.find_races"): verdicts,
                ("verdict", "analysis.check_pairs"): numpy_verdicts,
                ("verdict", "suppress.filter_all"): verdicts,
                ("verdict", "reports.build_report"): survived,
                ("trace.analyze", "analysis.find_races"): roundtrips,
                ("trace.analyze", "suppress.filter_all"): roundtrips,
                ("trace.analyze", "reports.build_report"): survived}
    for name in ("trace.save", "trace.load", "trace.analyze"):
        expected[name, name] = roundtrips
    return [f"span {name} under {root}: {fired[root, name]} calls, "
            f"expected {want}"
            for (root, name), want in expected.items()
            if fired[root, name] != want]


def layer_times(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer seconds from the recorded spans.

    Self times under ``verdict`` roots partition the traced verdict time, so
    the ``SELF_TIME_METRICS`` values sum to ``traced.verdict_s``.
    ``analysis.s`` is the inclusive time of the analysis entry point.
    """
    out = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    out.update({name: 0.0 for name in ROOT_METRICS.values()})
    out["analysis.s"] = 0.0
    selfs = recorder.self_times()
    for span in recorder.spans:
        root = recorder.root_of(span)
        if span.parent is None:
            out[ROOT_METRICS[span.name]] += span.duration
        if root.name != "verdict":
            continue
        out[SELF_TIME_METRICS[span.name]] += selfs[span.id]
        if span.name == "analysis.find_races":
            out["analysis.s"] += span.duration
    return out
