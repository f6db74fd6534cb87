"""Kernel parity over the fuzz corpus and salvaged traces.

``analysis_kernel=numpy`` must be report-for-report indistinguishable from
the pure-Python oracle on exactly the inputs the fuzz harness pins down:
every checked-in reproducer (including intentionally-broken-suppression
configs), truncated/salvaged traces, and arbitrary candidate-pair orderings
(the parallel pass chunks pairs in whatever order the scheduler lands on).
"""

import glob
import os
import random

import pytest

pytest.importorskip("numpy")

from repro.core.npkernel import KernelContext
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.core.trace import analyze_trace_with_stats, save_trace
from repro.fuzz.diff import run_differential
from repro.fuzz.executors import fuzz_options, run_taskgrind
from repro.fuzz.shrink import load_reproducer
from repro.machine.machine import Machine
from repro.openmp.api import make_env

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ENTRIES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def outcome_key(outcome):
    return (outcome.crashed, outcome.slots, outcome.noise,
            outcome.report_count)


@pytest.mark.parametrize("path", ENTRIES,
                         ids=[os.path.basename(p) for p in ENTRIES])
def test_corpus_outcomes_identical_across_kernels(path):
    """Every reproducer — clean or pinned-divergent — behaves identically
    under both kernels, schedule by schedule."""
    program, _expect, options, _note = load_reproducer(path)
    for seed in (0, 1, 2):
        runs = {}
        for kernel in ("python", "numpy"):
            opts = fuzz_options(**dict(options, analysis_kernel=kernel))
            runs[kernel] = run_taskgrind(program, schedule_seed=seed,
                                         options=opts)
        assert outcome_key(runs["python"]) == outcome_key(runs["numpy"]), \
            f"{os.path.basename(path)} seed={seed} kernel divergence"


@pytest.mark.parametrize("path", ENTRIES[:2],
                         ids=[os.path.basename(p) for p in ENTRIES[:2]])
def test_differential_harness_clean_with_numpy(path):
    """The full differential harness with the numpy kernel forced must
    reach the same verdicts as the pinned expectation."""
    program, expect, options, note = load_reproducer(path)
    opts = fuzz_options(**dict(options, analysis_kernel="numpy"))
    result = run_differential(program, schedules=4, taskgrind_options=opts)
    if not expect:
        assert result.ok, (f"{note}: numpy kernel introduced "
                           f"{[str(d) for d in result.divergences]}")
    else:
        assert set(expect) <= set(result.kinds())


# ---------------------------------------------------------------------------
# salvaged / partial traces
# ---------------------------------------------------------------------------


def racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")
    y = ctx.malloc(16, line=4, name="y")

    def single_body():
        for n in range(3):
            env.task(lambda tv: (x.write(0), y.write(0), y.write(1)),
                     name=f"t{n}")

    env.parallel_single(single_body)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    machine = Machine(seed=0)
    tool = TaskgrindTool(TaskgrindOptions())
    machine.add_tool(tool)
    env = make_env(machine, nthreads=4)
    env.rt.ompt.register(tool.make_ompt_shim())

    def main():
        with env.ctx.function("main", line=1):
            racy_listing(env)
    machine.run(main)
    tool.finalize()
    path = tmp_path_factory.mktemp("parity") / "run.trace.json"
    save_trace(tool, machine, str(path))
    return str(path)


def report_keys(reports):
    return sorted((r.key(), tuple(r.ranges.pairs())) for r in reports)


class TestSalvagedTraceParity:
    def test_intact_trace(self, trace_path):
        a, _ = analyze_trace_with_stats(trace_path, kernel="python")
        b, _ = analyze_trace_with_stats(trace_path, kernel="numpy")
        assert report_keys(a) == report_keys(b)
        assert report_keys(a)          # the fixture really races

    def test_truncated_trace(self, trace_path, tmp_path):
        """Every salvage prefix yields the same reports from both kernels."""
        data = open(trace_path, "rb").read()
        cut_points = range(0, len(data), max(1, len(data) // 12))
        for cut in cut_points:
            trunc = tmp_path / "cut.json"
            trunc.write_bytes(data[:cut])
            a, _ = analyze_trace_with_stats(str(trunc), kernel="python")
            b, _ = analyze_trace_with_stats(str(trunc), kernel="numpy")
            assert report_keys(a) == report_keys(b), f"cut={cut}"

    def test_supervised_partial_parity(self, trace_path):
        a, sa = analyze_trace_with_stats(trace_path, mode="parallel",
                                         kernel="python")
        b, sb = analyze_trace_with_stats(trace_path, mode="parallel",
                                         kernel="numpy")
        assert report_keys(a) == report_keys(b)
        assert sa["coverage"]["complete"] and sb["coverage"]["complete"]


class TestShuffleStability:
    def test_check_pairs_is_order_independent(self, trace_path):
        """The batched kernel's output must not depend on the order pairs
        arrive in — the parallel pass chunks them arbitrarily."""
        from repro.core.analysis import _candidate_pairs
        from repro.core.trace import load_trace

        graph, _view, _supp = load_trace(trace_path)
        graph.prepare_queries()
        segs = [s for s in graph.segments if s.has_accesses]
        pairs = sorted(_candidate_pairs(segs))
        ctx = KernelContext(graph, segs)
        base, base_ordered = ctx.check_pairs(pairs)
        base_key = sorted((i, j, tuple(r.pairs())) for i, j, r in base)
        rng = random.Random(7)
        for _ in range(4):
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            got, got_ordered = ctx.check_pairs(shuffled)
            assert sorted((i, j, tuple(r.pairs()))
                          for i, j, r in got) == base_key
            assert got_ordered == base_ordered
