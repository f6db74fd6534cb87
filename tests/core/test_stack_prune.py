"""The pruned candidate sweep against the unpruned naive oracle.

Candidate generation never pairs two segments on bytes stack-local to both
(the IV-D rule applied before pairing).  That must be exact: after the
suppression pass, pruned indexed analysis reports the same bytes as
``find_races_naive`` plus the same pass, on every fuzz-corpus program under
every combination of the stack/TLS/recycling toggles.
"""

import glob
import itertools
import os
import random

import pytest

from repro.core.analysis import (_candidate_pairs, find_races_indexed,
                                 find_races_naive, find_races_supervised)
from repro.core.reports import build_report, reports_to_json
from repro.core.segments import SegmentGraph
from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.core.tool import TaskgrindOptions
from repro.core.trace import load_environment
from repro.fuzz.executors import _exec_openmp, _exec_qthreads, fuzz_options
from repro.fuzz.shrink import load_reproducer
from repro.workloads.synthetic import omp_fib

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fuzz",
                          "corpus")
ENTRIES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
TOGGLES = ("suppress_stack", "suppress_tls", "suppress_recycling")
CUBE = [dict(zip(TOGGLES, bits))
        for bits in itertools.product((True, False), repeat=3)]


def _reports_json(machine, candidates, config):
    surviving = SuppressionEngine(machine, config).filter_all(candidates)
    return reports_to_json([build_report(machine, c) for c in surviving])


def _run_corpus(path, cell, seed=0):
    program, _expect, options, _note = load_reproducer(path)
    opts = fuzz_options(**dict(options, **cell))
    execute = _exec_qthreads if program.family == "feb" else _exec_openmp
    machine, tool, _addr_map, entry = execute(program, seed, opts)
    machine.run(entry)
    return machine, tool


@pytest.mark.parametrize("cell", CUBE,
                         ids=["-".join(f"{k[9:]}{int(v)}"
                                       for k, v in c.items()) for c in CUBE])
@pytest.mark.parametrize("path", ENTRIES,
                         ids=[os.path.basename(p) for p in ENTRIES])
def test_pruned_equals_naive_oracle(path, cell):
    machine, tool = _run_corpus(path, cell)
    graph = tool.builder.graph
    config = tool.options.suppression
    engine = SuppressionEngine(machine, config)
    oracle = _reports_json(machine, find_races_naive(graph), config)
    pruned = find_races_indexed(graph, suppression=engine)
    assert _reports_json(machine, pruned, config) == oracle
    partial = find_races_supervised(graph, suppression=engine)
    assert _reports_json(machine, partial.candidates, config) == oracle
    segs = [s for s in graph.segments if s.has_accesses]
    assert _candidate_pairs(segs, engine) <= _candidate_pairs(segs)
    if not config.suppress_stack:
        assert _candidate_pairs(segs, engine) == _candidate_pairs(segs)


#: two 256-byte stacks (threads 0 and 1) above a heap; thread 2 has none
STACKS = {0: (0x1000, 0x1100), 1: (0x1100, 0x1200)}
VIEW = load_environment({"blocks": [], "regions": [
    {"name": "heap", "base": 0xF00, "size": 0x100, "kind": "heap",
     "owner": None}] + [
    {"name": f"stack{t}", "base": lo, "size": hi - lo, "kind": "stack",
     "owner": t} for t, (lo, hi) in STACKS.items()]})


def _random_graph(rng):
    """Segments on three threads touching each other's stacks and the heap,
    with stack-pointer marks that cut their intervals at random."""
    graph = SegmentGraph()
    for _ in range(rng.randint(2, 7)):
        tid = rng.randrange(3)
        bounds = STACKS.get(tid, (0, 0))
        sp = rng.randint(*bounds) if tid in STACKS else 0
        seg = graph.new_segment(thread_id=tid, task=None, kind="task",
                                sp_at_start=sp, stack_bounds=bounds)
        seg.open = False
        for _ in range(rng.randint(1, 5)):
            lo = rng.randrange(0xF00, 0x1200)
            tree = seg.writes if rng.random() < 0.5 else seg.reads
            tree.insert(lo, lo + rng.randint(1, 48))
    for a in graph.segments:
        for b in graph.segments[a.id + 1:]:
            if rng.random() < 0.2:
                graph.add_edge(a, b)
    return graph


def _canon(candidates, config):
    kept = SuppressionEngine(VIEW, config).filter_all(candidates)
    return [(c.s1.id, c.s2.id, c.ranges.pairs()) for c in kept]


@pytest.mark.parametrize("suppress_stack", [True, False])
def test_pruned_equals_naive_on_random_graphs(suppress_stack):
    """Local x shared overlaps in either address order, pieces cut at the
    stack-pointer mark, foreign stacks and stackless threads."""
    rng = random.Random(1234)
    config = SuppressionConfig(suppress_stack=suppress_stack)
    for _ in range(300):
        graph = _random_graph(rng)
        engine = SuppressionEngine(VIEW, config)
        for kernel in ("python", "numpy"):
            pruned = find_races_indexed(graph, kernel=kernel,
                                        suppression=engine)
            assert _canon(pruned, config) == \
                _canon(find_races_naive(graph), config)
        segs = [s for s in graph.segments if s.has_accesses]
        assert _candidate_pairs(segs, engine) <= _candidate_pairs(segs)


def test_parent_frame_race_still_paired(run_taskgrind):
    """TMB 1001: both tasks write the parent's ``y``, which is shared on
    both sides, so pruning must keep the pair and the report."""
    def body(env):
        y = env.ctx.stack_var("y", 8, elem=8)

        def make():
            for _ in range(2):
                env.task(lambda tv: y.write(0), annotate_deferrable=True)
            env.taskwait()
        env.parallel_single(make, num_threads=1)

    tool, machine = run_taskgrind(body, nthreads=1)
    assert len(tool.reports) >= 1
    segs = [s for s in tool.builder.graph.segments if s.has_accesses]
    pruned = _candidate_pairs(segs, SuppressionEngine(
        machine, tool.options.suppression))
    r = tool.reports[0]
    key = (segs.index(r.s1), segs.index(r.s2))
    assert tuple(sorted(key)) in pruned


def test_fib_forms_no_candidate_pairs(run_taskgrind):
    """fib's conflicts are all between the tasks' own frames."""
    tool, machine = run_taskgrind(lambda env: omp_fib(env, 10), nthreads=4,
                                  options=TaskgrindOptions(
                                      model_multithread_lockup=False))
    segs = [s for s in tool.builder.graph.segments if s.has_accesses]
    assert _candidate_pairs(segs)            # unpruned: stack aliasing
    assert _candidate_pairs(segs, SuppressionEngine(
        machine, tool.options.suppression)) == set()
    assert tool.raw_candidates == 0
    assert tool.reports == []
    assert tool.suppressor.stats.stack_pruned > 0
    assert tool.stats()["suppress"]["pruned_stack"] == \
        tool.suppressor.stats.stack_pruned
