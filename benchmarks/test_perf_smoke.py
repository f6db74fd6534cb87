"""Perf-path smoke: the fast paths must not change any analysis result.

Assert-only (no wall-clock gates — timings live in ``python -m
repro.bench.perf`` / ``BENCH_perf.json``): for every DRB and TMB program,

* the default tool configuration (write-combining recorder + O(1)
  happens-before index) and the legacy configuration
  (``fast_record=False, hb_mode='bitmask'``) produce identical raw
  candidate sets and identical post-suppression reports;
* on the recorded graph, ``find_races_naive`` / ``find_races_indexed`` /
  ``find_races_supervised`` agree pair-for-pair, byte-for-byte.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.bench import drb, tmb
from repro.bench.runner import run_benchmark
from repro.core.analysis import (find_races_indexed, find_races_naive,
                                 find_races_supervised)
from repro.core.tool import TaskgrindOptions

SEED = 2                      # the Table I harness seed

ALL_PROGRAMS = [(p, 4) for p in drb.all_programs()] \
    + [(p, 1) for p in tmb.all_programs()]


def _canon(cands) -> List[Tuple]:
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


def _run(program, nthreads, options=None):
    return run_benchmark(program, "taskgrind", nthreads=nthreads,
                         seed=SEED, taskgrind_options=options)


@pytest.mark.parametrize(
    "program,nthreads", ALL_PROGRAMS,
    ids=[f"{p.name}-{n}t" for p, n in ALL_PROGRAMS])
def test_fastpath_parity(program, nthreads):
    fast = _run(program, nthreads)
    legacy = _run(program, nthreads,
                  TaskgrindOptions(fast_record=False, hb_mode="bitmask"))
    assert fast.verdict == legacy.verdict, \
        f"{program.name}: verdict changed {legacy.verdict} -> {fast.verdict}"
    if fast.tool_obj is None or legacy.tool_obj is None:
        return                      # ncs/segv before the tool ran
    assert fast.tool_obj.raw_candidates == legacy.tool_obj.raw_candidates
    assert [r.key() for r in fast.reports] \
        == [r.key() for r in legacy.reports]


@pytest.mark.parametrize(
    "program,nthreads", ALL_PROGRAMS,
    ids=[f"{p.name}-{n}t" for p, n in ALL_PROGRAMS])
def test_analysis_pass_parity(program, nthreads):
    res = _run(program, nthreads)
    if res.tool_obj is None or res.tool_obj.builder is None:
        return
    graph = res.tool_obj.builder.graph
    naive = _canon(find_races_naive(graph))
    assert _canon(find_races_indexed(graph)) == naive
    assert _canon(find_races_supervised(graph).candidates) == naive


def test_checked_mode_sweep():
    """Run every program with the index cross-checked against the bitmask
    oracle inline (hb_mode='checked' asserts on every answered query)."""
    exact = 0
    for program, nthreads in ALL_PROGRAMS:
        res = _run(program, nthreads,
                   TaskgrindOptions(hb_mode="checked"))
        tool = res.tool_obj
        if tool is None or tool.builder is None:
            continue
        find_races_indexed(tool.builder.graph)    # query-heavy, all asserted
        if tool.builder.hb.exact:
            exact += 1
    # the fork-join majority of the suite must stay on the exact index
    assert exact >= len(ALL_PROGRAMS) // 2
