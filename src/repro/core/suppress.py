"""False-positive suppression (paper Section IV).

Four mechanisms, individually toggleable so the S4 ablation bench can
quantify each one's contribution:

1. **Symbol filtering** (IV-A) — the *ignore-list* drops accesses occurring
   in matching symbols (default: ``__kmp*`` and friends, the parallel
   runtime's own non-determinism); the *instrument-list*, when non-empty,
   keeps only matching symbols.  Applied at recording time by the tool.
2. **Memory recycling** (IV-B) — defeated structurally by replacing ``free``
   with a no-op (see :class:`repro.core.tool.TaskgrindTool.attach`), so
   nothing to do at analysis time; the flag here merely controls whether the
   replacement is installed.  The runtime's private ``__kmp_fast_allocate``
   arena is *not* covered — the paper's future-work limitation.
3. **Thread-local accesses** (IV-C) — a conflict inside a TLS block is
   suppressed when both segments ran on the same thread with the same
   TCB/DTV snapshot.  A DTV block allocated *and* freed within a segment is
   absent from the end-of-segment snapshot, so such conflicts survive — the
   paper's stated limitation, and the ``tls_gen_warnings`` counter implements
   the "could warn via the generation number" remark.
4. **Segment-local (stack) accesses** (IV-D) — a conflict on a stack address
   is suppressed when, for *both* segments, the address lies below the stack
   pointer registered at segment start (i.e. in a frame pushed during the
   segment itself).  A conflict in the *parent's* frame is not suppressed —
   the residual multi-thread TMB false positives the paper reports.

The segment-local rule is a per-(address, segment) predicate, so it is
applied in two places that share :meth:`SuppressionEngine.stack_local_range`:
candidate generation (:func:`repro.core.analysis._candidate_pairs`) never
pairs two segments on bytes that are stack-local to both, and
:meth:`SuppressionEngine.filter_all` drops the stack-local pieces of the
pairs that do get formed because they also conflict on shared bytes.  TLS
is applied at filter time only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.analysis import RaceCandidate
from repro.core.segments import Segment
from repro.machine.memory import RegionKind
from repro.obs.metrics import get_registry
from repro.obs.prof import get_profiler
from repro.obs.tracer import get_tracer
from repro.util.intervals import Interval, IntervalSet

_TRACER = get_tracer()
_PROF = get_profiler()

#: Default ignore-list: LLVM OpenMP runtime internals, the dynamic loader,
#: and libc allocator internals (the paper names ``__kmp`` explicitly).
DEFAULT_IGNORE_LIST: Tuple[str, ...] = (
    "__kmp", "__kmpc", "_dl_", "__libc_", "__vg_",
)


@dataclass
class SuppressionConfig:
    """Which Section IV suppressions are active."""

    ignore_list: Tuple[str, ...] = DEFAULT_IGNORE_LIST
    instrument_list: Tuple[str, ...] = ()
    suppress_recycling: bool = True        # install the free-as-noop wrapper
    suppress_tls: bool = True
    suppress_stack: bool = True
    suppress_sequenced_same_thread: bool = True  # kept True; listed for ablation


@dataclass
class SuppressionStats:
    """How many conflict byte-ranges each mechanism removed."""

    tls_suppressed: int = 0
    stack_suppressed: int = 0
    #: stack-local access intervals withheld from pairing (never formed
    #: into candidates, so never counted in ``stack_suppressed``)
    stack_pruned: int = 0
    survived: int = 0
    fully_suppressed_pairs: int = 0
    tls_gen_warnings: int = 0


class SuppressionEngine:
    """Applies the analysis-time suppressions (TLS + stack) to candidates."""

    def __init__(self, machine, config: Optional[SuppressionConfig] = None
                 ) -> None:
        self.machine = machine
        self.config = config or SuppressionConfig()
        self.stats = SuppressionStats()

    # -- recording-time filter (used by the tool's on_access) ----------------

    def symbol_filtered(self, symbol_name: str) -> bool:
        """True when accesses in ``symbol_name`` must be dropped."""
        from repro.machine.debuginfo import DebugInfo
        cfg = self.config
        if cfg.instrument_list and not DebugInfo.matches_any(
                symbol_name, cfg.instrument_list):
            return True
        return DebugInfo.matches_any(symbol_name, cfg.ignore_list)

    # -- ahead-of-time elision gate (see repro.vex.elide) ---------------------

    def site_elidable(self, klass: str) -> bool:
        """Would this engine suppress every conflict of a provably private
        site of lattice class ``klass``?

        The per-site decision the compile-time pre-pass takes *instead of*
        the per-access ``filter_candidate`` path below — gated on the same
        per-class toggles, so elision is always a subset of what the
        runtime filters would have removed.
        """
        from repro.vex.elide import ElisionPlan
        return ElisionPlan(self.config).site_elidable(klass)

    # -- analysis-time filters -------------------------------------------------

    def filter_candidate(self, cand: RaceCandidate) -> Optional[RaceCandidate]:
        """Return the candidate with suppressed byte-ranges removed.

        ``None`` when every conflicting byte was suppressed.
        """
        surviving = IntervalSet()
        for piece in cand.ranges:
            if self._piece_suppressed(piece, cand.s1, cand.s2):
                continue
            surviving.add(piece.lo, piece.hi)
        if not surviving:
            self.stats.fully_suppressed_pairs += 1
            if _PROF.enabled:
                _PROF.count("suppress.pair-dropped", cand.s1.label())
            return None
        self.stats.survived += 1
        if _PROF.enabled:
            _PROF.count("suppress.survived", cand.s1.label())
        return RaceCandidate(cand.s1, cand.s2, surviving)

    def _piece_suppressed(self, piece: Interval, s1: Segment,
                          s2: Segment) -> bool:
        region = self.machine.space.region_at(piece.lo)
        if region is None:
            return False
        if region.kind == RegionKind.STACK and self.config.suppress_stack:
            if self._stack_local(piece, s1) and self._stack_local(piece, s2):
                self.stats.stack_suppressed += 1
                if _PROF.enabled:
                    _PROF.count("suppress.stack", s1.label())
                if _TRACER.enabled:
                    _TRACER.instant("suppress.stack", cat="suppress",
                                    args={"lo": piece.lo, "hi": piece.hi,
                                          "s1": s1.id, "s2": s2.id})
                return True
        if region.kind == RegionKind.TLS and self.config.suppress_tls:
            if self._tls_suppressed(piece, s1, s2):
                self.stats.tls_suppressed += 1
                if _PROF.enabled:
                    _PROF.count("suppress.tls", s1.label())
                if _TRACER.enabled:
                    _TRACER.instant("suppress.tls", cat="suppress",
                                    args={"lo": piece.lo, "hi": piece.hi,
                                          "s1": s1.id, "s2": s2.id})
                return True
        return False

    def stack_local_range(self, seg: Segment) -> Optional[Tuple[int, int]]:
        """The ``[lo, hi)`` bytes ``seg`` reached only through frames it
        pushed itself, or ``None`` when the stack rule is off or ``seg`` has
        no such bytes.

        Stacks grow downward: an address *below* the stack pointer registered
        at segment start belongs to a frame created inside the segment.  The
        range must lie in a stack region owned by the segment's thread —
        otherwise the segment reached the bytes through a shared pointer and
        a conflict there is real (TMB 1001-stack.1).  A conflict byte is
        suppressed iff it lies in both segments' ranges.
        """
        if not self.config.suppress_stack:
            return None
        lo, hi = seg.stack_bounds
        hi = min(hi, seg.sp_at_start)
        if lo >= hi:
            return None
        region = self.machine.space.region_at(lo)
        if region is None or region.kind != RegionKind.STACK or \
                region.owner_thread != seg.thread_id or region.end < hi:
            return None
        return lo, hi

    def _stack_local(self, piece: Interval, seg: Segment) -> bool:
        """Did ``seg`` only reach ``piece`` through frames it pushed itself?"""
        rng = self.stack_local_range(seg)
        return rng is not None and rng[0] <= piece.lo and piece.hi <= rng[1]

    def book_pruned(self, intervals: int) -> None:
        """Account stack-local intervals candidate generation withheld."""
        self.stats.stack_pruned += intervals
        get_registry().counter("suppress.pruned.stack").inc(intervals)

    def _tls_suppressed(self, piece: Interval, s1: Segment,
                        s2: Segment) -> bool:
        """Same thread + same DTV ⇒ the 'conflict' is one thread's own TLS."""
        if s1.thread_id != s2.thread_id:
            return False
        snap1, snap2 = s1.tls_snapshot, s2.tls_snapshot
        if snap1 is None or snap2 is None:
            return False
        if snap1.generation != snap2.generation:
            # DTV churn between the segments: the paper's gen-number warning
            self.stats.tls_gen_warnings += 1
        covered = snap1.covers(piece.lo, piece.size) and \
            snap2.covers(piece.lo, piece.size)
        if not covered:
            # e.g. a dynamic block allocated+freed inside the segment never
            # made it into the snapshot: conflict survives (paper limitation)
            return False
        return snap1.dtv == snap2.dtv and snap1.tcb == snap2.tcb

    # -- batch API ------------------------------------------------------------------

    def filter_all(self, candidates: List[RaceCandidate]
                   ) -> List[RaceCandidate]:
        reg = get_registry()
        s = self.stats
        tls0, stack0 = s.tls_suppressed, s.stack_suppressed
        surv0, full0 = s.survived, s.fully_suppressed_pairs
        out = []
        with reg.phase("suppress"):
            for cand in candidates:
                kept = self.filter_candidate(cand)
                if kept is not None:
                    out.append(kept)
        reg.counter("suppress.drop.tls").inc(s.tls_suppressed - tls0)
        reg.counter("suppress.drop.stack").inc(s.stack_suppressed - stack0)
        reg.counter("suppress.survived").inc(s.survived - surv0)
        reg.counter("suppress.fully_suppressed_pairs").inc(
            s.fully_suppressed_pairs - full0)
        return out

    def stats_doc(self) -> dict:
        """Analysis-time drop counts per mechanism (Section IV classes)."""
        s = self.stats
        return {
            "tls": s.tls_suppressed,
            "stack": s.stack_suppressed,
            "pruned_stack": s.stack_pruned,
            "survived": s.survived,
            "fully_suppressed_pairs": s.fully_suppressed_pairs,
            "tls_gen_warnings": s.tls_gen_warnings,
        }
