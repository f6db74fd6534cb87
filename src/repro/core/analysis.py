"""Determinacy-race analysis passes (the paper's Algorithm 1).

Three interchangeable implementations, all producing identical candidate
sets (property-tested against each other):

* :func:`find_races_naive` — the faithful Algorithm 1: for every ordered pair
  of segments with no happens-before path, intersect
  ``s1.w ∩ (s2.r ∪ s2.w)``.  :math:`O(n^2)` pairs; used on the
  microbenchmarks and as the oracle.
* :func:`find_races_indexed` — address-indexed candidate generation: a sweep
  over all write intervals finds only the segment pairs that actually share
  bytes, then applies the same happens-before filter.  This is what the
  harness uses for LULESH-sized graphs.
* :func:`find_races_parallel` — the paper's future-work item ("the analysis
  is embarrassingly parallel, but currently run sequentially"): the indexed
  candidate set is partitioned across worker threads.  Benchmarked by the A1
  ablation.

The parallel pass runs under a supervisor (:func:`find_races_supervised`):
each chunk of candidate pairs gets a bounded number of retries with
exponential backoff and an optional per-chunk deadline; chunks that keep
failing are quarantined rather than allowed to take down the whole pass, and
the result is a :class:`PartialAnalysis` that states exactly how many
candidate pairs went unchecked.  A worker exception therefore degrades the
analysis instead of discarding every completed chunk.

The passes produce *raw* :class:`RaceCandidate` conflicts; the Section IV
suppressions are applied afterwards by
:class:`repro.core.suppress.SuppressionEngine` so ablations can toggle them
independently.  The one exception is the segment-local (stack) rule: given
the engine, the indexed and supervised passes split every access interval
at the segment's stack-local range and never pair two stack-local pieces.
Such a pair's whole conflict set would lie in bytes the rule suppresses on
both sides, so the engine would drop it anyway; pairs that also conflict on
shared bytes are still formed, with their full conflict set, and filtered as
before.  The naive pass stays unpruned as the oracle.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.core.segments import Segment, SegmentGraph
from repro.faults.inject import get_injector
from repro.obs.metrics import get_registry
from repro.util.intervals import IntervalSet

if TYPE_CHECKING:
    from repro.core.suppress import SuppressionEngine

_FAULTS = get_injector()


@dataclass
class RaceCandidate:
    """An unordered segment pair conflicting on ``ranges`` (pre-suppression)."""

    s1: Segment
    s2: Segment
    ranges: IntervalSet

    def key(self) -> Tuple[int, int]:
        a, b = self.s1.id, self.s2.id
        return (a, b) if a <= b else (b, a)


def _conflict_ranges(s1: Segment, s2: Segment) -> IntervalSet:
    """``(s1.w ∩ (s2.r ∪ s2.w)) ∪ (s2.w ∩ s1.r)`` as a normalized set.

    Uses each segment's cached flat :class:`IntervalSet` view, so each of the
    three intersections is one linear merge of sorted interval lists instead
    of a tree-stabbing walk; the results are unioned in one pass.
    """
    w1, w2 = s1.writes_set(), s2.writes_set()
    out = w1.intersection(w2)
    for part in (w1.intersection(s2.reads_set()),
                 w2.intersection(s1.reads_set())):
        for lo, hi in part.pairs():
            out.add(lo, hi)
    return out


def _conflict_ranges_tree(s1: Segment, s2: Segment) -> IntervalSet:
    """Legacy tree-walk conflict computation (bench baseline / test oracle)."""
    out = s1.writes.intersection_tree(s2.writes)
    out = out.union(s1.writes.intersection_tree(s2.reads))
    out = out.union(s2.writes.intersection_tree(s1.reads))
    return out


def find_races_naive(graph: SegmentGraph) -> List[RaceCandidate]:
    """Faithful Algorithm 1: all-pairs with happens-before filtering."""
    reg = get_registry()
    out: List[RaceCandidate] = []
    with reg.phase("analysis"):
        with reg.phase("analysis.prepare"):
            graph.prepare_queries()
        segs = [s for s in graph.segments if s.has_accesses]
        checked = ordered = 0
        with reg.phase("analysis.pairs"):
            for i in range(len(segs)):
                s1 = segs[i]
                for j in range(i + 1, len(segs)):
                    s2 = segs[j]
                    if not s1.writes and not s2.writes:
                        continue
                    checked += 1
                    if graph.ordered(s1, s2):
                        ordered += 1
                        continue
                    ranges = _conflict_ranges(s1, s2)
                    if ranges:
                        out.append(RaceCandidate(s1, s2, ranges))
        _record_pass(reg, "naive", checked, ordered, len(out))
    return out


def _record_pass(reg, mode: str, checked: int, ordered: int,
                 conflicts: int) -> None:
    """Publish one analysis pass's pair-work counters."""
    reg.counter("analysis.pairs_checked").inc(checked)
    reg.counter("analysis.pairs_ordered").inc(ordered)
    reg.counter("analysis.conflicts").inc(conflicts)
    reg.gauge("analysis.last_mode").set(mode)


def _access_events(segs: Sequence[Segment],
                   local: Optional[Sequence[Optional[Tuple[int, int]]]]
                   ) -> List[Tuple[int, int, int, bool, bool]]:
    """Flatten every access interval into (lo, hi, seg_index, is_write,
    is_local), sorted by address.

    With per-segment ``local`` ranges, an interval is cut at its segment's
    range into a stack-local piece and up to two shared pieces.
    """
    events: List[Tuple[int, int, int, bool, bool]] = []
    add = events.append
    for idx, seg in enumerate(segs):
        rng = local[idx] if local is not None else None
        for tree, is_write in ((seg.writes, True), (seg.reads, False)):
            if rng is None:
                for iv in tree:
                    add((iv.lo, iv.hi, idx, is_write, False))
                continue
            llo, lhi = rng
            for iv in tree:
                lo, hi = iv.lo, iv.hi
                if hi <= llo or lhi <= lo:
                    add((lo, hi, idx, is_write, False))
                    continue
                if lo < llo:
                    add((lo, llo, idx, is_write, False))
                add((max(lo, llo), min(hi, lhi), idx, is_write, True))
                if lhi < hi:
                    add((lhi, hi, idx, is_write, False))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def _candidate_pairs(segs: Sequence[Segment],
                     suppression: Optional["SuppressionEngine"] = None
                     ) -> Set[Tuple[int, int]]:
    """Segment index pairs that share at least one byte with >=1 write.

    Sweep over sorted intervals with active sets pruned by end address.
    With a ``suppression`` engine whose stack rule is on, overlaps between
    two stack-local pieces (:meth:`SuppressionEngine.stack_local_range`) are
    skipped: a new local piece is checked against active shared pieces only,
    so a pair is emitted only if it conflicts on a byte that is shared on at
    least one side.
    """
    local = None
    if suppression is not None:
        local = [suppression.stack_local_range(s) for s in segs]
        if not any(local):
            local = None
    pairs: Set[Tuple[int, int]] = set()
    shared: List[Tuple[int, int, bool]] = []      # (hi, idx, is_write)
    withheld: List[Tuple[int, int, bool]] = []    # stack-local pieces
    n_local = 0
    for lo, hi, idx, is_write, is_local in _access_events(segs, local):
        shared = [a for a in shared if a[0] > lo]     # drop non-overlapping
        hits = shared
        if is_local:
            n_local += 1
        elif withheld:
            # locals are pruned lazily, only when a shared piece scans them
            withheld = [a for a in withheld if a[0] > lo]
            hits = shared + withheld
        for _ahi, aidx, awrite in hits:
            if aidx != idx and (is_write or awrite):
                pairs.add((aidx, idx) if aidx < idx else (idx, aidx))
        (withheld if is_local else shared).append((hi, idx, is_write))
    if local is not None:
        suppression.book_pruned(n_local)
    return pairs


def _resolve_kernel(reg, kernel: str, graph: SegmentGraph,
                    n_pairs: int) -> str:
    """Pick the pair-check kernel for this pass and publish the choice."""
    from repro.core import npkernel
    used = npkernel.resolve_kernel(kernel, graph, n_pairs)
    if kernel == "numpy" and used == "python":
        # requested but unavailable: degrade loudly, not fatally
        reg.counter("analysis.kernel_fallbacks").inc()
    reg.gauge("analysis.kernel").set(used)
    return used


def find_races_indexed(graph: SegmentGraph, *,
                       kernel: str = "auto",
                       suppression: Optional["SuppressionEngine"] = None
                       ) -> List[RaceCandidate]:
    """Address-indexed Algorithm 1 (same result set as the naive pass).

    ``kernel`` selects the pair-check backend: ``python`` (the oracle loop),
    ``numpy`` (batched array sweeps, :mod:`repro.core.npkernel`) or ``auto``.
    Both kernels produce identical candidate lists.  With ``suppression``,
    pairs conflicting only on bytes stack-local to both segments are never
    formed (see :func:`_candidate_pairs`); after ``suppression.filter_all``
    the result equals the naive pass's after the same filter.
    """
    reg = get_registry()
    out: List[RaceCandidate] = []
    with reg.phase("analysis"):
        with reg.phase("analysis.prepare"):
            graph.prepare_queries()
        segs = [s for s in graph.segments if s.has_accesses]
        with reg.phase("analysis.candidates"):
            pairs = _candidate_pairs(segs, suppression)
        reg.counter("analysis.candidate_pairs").inc(len(pairs))
        ordered = 0
        used = _resolve_kernel(reg, kernel, graph, len(pairs))
        if used == "numpy":
            from repro.core.npkernel import KernelContext
            with reg.phase("analysis.pairs"):
                ctx = KernelContext(graph, segs)
                found, ordered = ctx.check_pairs(list(pairs))
                out = [RaceCandidate(segs[i], segs[j], ranges)
                       for i, j, ranges in found]
        else:
            # iterate unsorted and sort only the (much smaller) surviving
            # candidate list — segment ids increase with segs-list index, so
            # sorting by key() yields the same deterministic order as sorting
            # all pairs up front
            with reg.phase("analysis.pairs"):
                for i, j in pairs:
                    s1, s2 = segs[i], segs[j]
                    if graph.ordered(s1, s2):
                        ordered += 1
                        continue
                    ranges = _conflict_ranges(s1, s2)
                    if ranges:
                        out.append(RaceCandidate(s1, s2, ranges))
        out.sort(key=lambda c: c.key())
        _record_pass(reg, "indexed", len(pairs), ordered, len(out))
    return out


#: fixed chunk size for the parallel pass — independent of the worker count
#: so the work partition (and therefore any fp-free result assembly) is
#: deterministic on every machine
_PARALLEL_CHUNK = 64


@dataclass
class QuarantinedChunk:
    """One chunk the supervisor gave up on after exhausting retries."""

    index: int
    pairs: int
    attempts: int
    error: str

    def to_dict(self) -> dict:
        return {"index": self.index, "pairs": self.pairs,
                "attempts": self.attempts, "error": self.error}


@dataclass
class PartialAnalysis:
    """The supervised pass's result: candidates + explicit coverage.

    ``candidates`` is always the deterministic sorted list over every chunk
    that *did* complete; ``unchecked_pairs`` says exactly how much of the
    candidate space the quarantined chunks cover.  A fault-free run has
    ``complete == True`` and quarantines nothing.
    """

    candidates: List[RaceCandidate] = field(default_factory=list)
    chunks_total: int = 0
    chunks_ok: int = 0
    pairs_total: int = 0
    pairs_checked: int = 0
    retries: int = 0
    deadline_hits: int = 0
    quarantined: List[QuarantinedChunk] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.quarantined and self.pairs_checked == self.pairs_total

    @property
    def unchecked_pairs(self) -> int:
        return self.pairs_total - self.pairs_checked

    def to_dict(self) -> dict:
        return {
            "schema": "taskgrind-partial-analysis/1",
            "complete": self.complete,
            "chunks": {"total": self.chunks_total, "ok": self.chunks_ok,
                       "quarantined": len(self.quarantined)},
            "pairs": {"total": self.pairs_total,
                      "checked": self.pairs_checked,
                      "unchecked": self.unchecked_pairs},
            "retries": self.retries,
            "deadline_hits": self.deadline_hits,
            "quarantine": [q.to_dict() for q in self.quarantined],
        }

    def summary(self) -> str:
        if self.complete:
            return (f"all {self.pairs_total} candidate pairs checked "
                    f"({self.chunks_total} chunks)")
        return (f"{len(self.quarantined)} of {self.chunks_total} chunks "
                f"quarantined; {self.unchecked_pairs} of {self.pairs_total} "
                f"candidate pairs unchecked")


def find_races_supervised(graph: SegmentGraph, *,
                          workers: Optional[int] = None,
                          deadline_s: Optional[float] = None,
                          max_retries: int = 2,
                          backoff_s: float = 0.01,
                          kernel: str = "auto",
                          suppression: Optional["SuppressionEngine"] = None
                          ) -> PartialAnalysis:
    """The parallel pass under supervision.

    ``suppression`` prunes candidate generation as in
    :func:`find_races_indexed`.

    Every chunk is attempted up to ``1 + max_retries`` times with
    exponential backoff between attempts; a chunk whose worker raises (or
    misses the per-chunk ``deadline_s``) on every attempt is quarantined
    and its candidate pairs booked as unchecked — the chunks that *did*
    complete are never discarded.  Faults are observed exactly where the
    fault injector plants them (:meth:`FaultInjector.on_analysis_chunk`).
    """
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    reg = get_registry()
    result = PartialAnalysis()
    with reg.phase("analysis"):
        with reg.phase("analysis.prepare"):
            graph.prepare_queries()       # materialize once, shared read-only
            segs = [s for s in graph.segments if s.has_accesses]
            for s in segs:
                s.flush_accesses()        # no lazy tree builds inside workers
                s.reads_set()
                s.writes_set()
        with reg.phase("analysis.candidates"):
            pairs = sorted(_candidate_pairs(segs, suppression))
        reg.counter("analysis.candidate_pairs").inc(len(pairs))
        result.pairs_total = len(pairs)
        used = _resolve_kernel(reg, kernel, graph, len(pairs))
        kctx = None
        if used == "numpy":
            from repro.core.npkernel import KernelContext
            with reg.phase("analysis.prepare"):
                # built single-threaded; chunk workers only read it
                kctx = KernelContext(graph, segs)

        def check(index: int, chunk: Sequence[Tuple[int, int]]
                  ) -> Tuple[List[RaceCandidate], int]:
            _FAULTS.on_analysis_chunk(index)   # may raise / hang on demand
            found: List[RaceCandidate] = []
            n_ordered = 0
            # per-worker-thread phase: wall seconds sum across workers
            with reg.phase("analysis.pairs"):
                if kctx is not None:
                    hits, n_ordered = kctx.check_pairs(chunk)
                    found = [RaceCandidate(segs[i], segs[j], ranges)
                             for i, j, ranges in hits]
                    return found, n_ordered
                for i, j in chunk:
                    s1, s2 = segs[i], segs[j]
                    if graph.ordered(s1, s2):
                        n_ordered += 1
                        continue
                    ranges = _conflict_ranges(s1, s2)
                    if ranges:
                        found.append(RaceCandidate(s1, s2, ranges))
            return found, n_ordered

        if not pairs:
            reg.gauge("analysis.workers_requested").set(workers)
            reg.gauge("analysis.workers_effective").set(0)
            _record_pass(reg, "parallel", 0, 0, 0)
            return result
        chunks = [pairs[k:k + _PARALLEL_CHUNK]
                  for k in range(0, len(pairs), _PARALLEL_CHUNK)]
        result.chunks_total = len(chunks)
        # a pool wider than the chunk list would silently idle the extra
        # workers; clamp explicitly and record both counts so perf runs can
        # see the effective parallelism, not the requested one
        workers_eff = max(1, min(workers, len(chunks)))
        reg.gauge("analysis.workers_requested").set(workers)
        reg.gauge("analysis.workers_effective").set(workers_eff)
        reg.histogram("analysis.chunk_pairs").observe(len(chunks))
        out: List[RaceCandidate] = []
        ordered = 0
        pending = list(range(len(chunks)))
        last_error: Dict[int, str] = {}
        attempt = 0
        with reg.phase("analysis.supervise"):
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers_eff)
            try:
                while pending:
                    if attempt > 0:
                        reg.counter("resilience.chunks_retried").inc(
                            len(pending))
                        result.retries += len(pending)
                        time.sleep(backoff_s * (2 ** (attempt - 1)))
                    futures = {idx: pool.submit(check, idx, chunks[idx])
                               for idx in pending}
                    failed: List[int] = []
                    for idx, fut in futures.items():
                        try:
                            res, n_ordered = fut.result(timeout=deadline_s)
                        except concurrent.futures.TimeoutError:
                            result.deadline_hits += 1
                            reg.counter(
                                "resilience.analysis_deadline_hits").inc()
                            last_error[idx] = (
                                f"deadline exceeded ({deadline_s}s)")
                            failed.append(idx)
                            continue
                        except Exception as exc:
                            last_error[idx] = repr(exc)
                            failed.append(idx)
                            continue
                        out.extend(res)
                        ordered += n_ordered
                        result.chunks_ok += 1
                        result.pairs_checked += len(chunks[idx])
                    pending = failed
                    attempt += 1
                    if pending and attempt > max_retries:
                        for idx in pending:
                            result.quarantined.append(QuarantinedChunk(
                                index=idx, pairs=len(chunks[idx]),
                                attempts=attempt,
                                error=last_error.get(idx, "unknown")))
                        reg.counter("resilience.chunks_quarantined").inc(
                            len(pending))
                        reg.counter("resilience.pairs_unchecked").inc(
                            sum(len(chunks[idx]) for idx in pending))
                        pending = []
            finally:
                # don't block on a worker stuck past its deadline; cancel
                # anything not yet started and let stragglers finish alone
                pool.shutdown(wait=deadline_s is None, cancel_futures=True)
        out.sort(key=lambda c: c.key())
        result.candidates = out
        _record_pass(reg, "parallel", result.pairs_checked, ordered,
                     len(out))
    return result


def find_races_parallel(graph: SegmentGraph, *,
                        workers: Optional[int] = None,
                        kernel: str = "auto") -> List[RaceCandidate]:
    """Parallelized candidate verification (paper Section VII future work).

    Candidate generation stays sequential (it is a single cheap sweep); the
    happens-before check + interval intersection of each candidate pair —
    the dominant cost — is farmed out over a thread pool.  Produces the same
    sorted candidate list as :func:`find_races_indexed` for any worker count.

    Runs under the supervisor, so a worker exception costs (at most) the
    failing chunk, never the completed ones; callers that need the explicit
    coverage accounting should call :func:`find_races_supervised` directly.
    """
    return find_races_supervised(graph, workers=workers,
                                 kernel=kernel).candidates
