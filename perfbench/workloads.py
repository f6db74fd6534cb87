"""The four benchmark workloads and their outcome checks.

A workload turns the benchmark seed into a list of :class:`Job`\\ s (its
inputs).  Each job is one ``repro run`` verdict: a program, a thread count,
a machine seed, the expected verdict cell (``program.expected``) and a check
of the program's outputs against an independent reference.  Building the
job list is the set-up the benchmark times as part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import kernel
from repro.bench import drb, tmb
from repro.bench.programs import BenchProgram
from repro.bench.runner import RunResult, run_benchmark
from repro.bench.table1 import DEFAULT_SEED as TABLE1_SEED
from repro.core.reports import report_to_dict
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from repro.workloads.synthetic import fib_reference, omp_fib

FIB_N = 18
LULESH = LuleshConfig(s=32, tel=8, tnl=8, iterations=16, progress=True,
                      racy=True)
#: machine seeds one drb-suite pass adds to Table I's own seed
DRB_SEEDS = 2
#: round trips per access-stream pass
STREAM_ROUNDTRIPS = 5
#: the fields LULESH's kinematics phase reads (its halo read is the race)
KINEMATICS_READS = ("xd",)


@dataclass
class Job:
    """One verdict: run ``program`` and check the outcome.

    The verdict cell must match ``program.expects("taskgrind", cell)``.  A
    mismatch fails the run, except that a job that is not ``strict``
    tolerates the one schedule flip the survey found: an expected FP that
    comes out TN (see README.md).
    """

    program: BenchProgram
    nthreads: int
    seed: int
    #: check(result, out) -> failure messages (empty when the outputs hold)
    check: Callable[[RunResult, dict], List[str]] = lambda result, out: []
    #: scratch the guest entry writes its outputs into
    out: dict = field(default_factory=dict)
    strict: bool = True
    #: round trips of the job's trace; its offline time is their median
    roundtrips: int = 1

    def tolerates(self, cell: str) -> bool:
        """Is a verdict ``cell`` that differs from Table I the tolerated
        schedule flip?"""
        return (not self.strict and cell == "TN"
                and "FP" in self.program.expected["taskgrind"].split("/"))


def derive_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` machine seeds drawn from the benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def race_identity(reports) -> str:
    """Reports as JSON without segment labels: what a race *is*, not how
    its segments are named."""
    docs = []
    for r in reports:
        doc = report_to_dict(r)
        for seg in doc["segments"]:
            del seg["label"]
        docs.append(doc)
    return json.dumps(docs, sort_keys=True)


# ---------------------------------------------------------------------------
# fib-tasks: series-parallel recursion, every candidate stack-suppressed
# ---------------------------------------------------------------------------

def fib_jobs(seed: int) -> List[Job]:
    out: dict = {}

    def entry(env) -> None:
        out["result"] = omp_fib(env, FIB_N)

    def check(result: RunResult, out: dict) -> List[str]:
        failures = []
        if out.get("result") != fib_reference(FIB_N):
            failures.append(f"fib({FIB_N}) = {out.get('result')}, "
                            f"expected {fib_reference(FIB_N)}")
        if result.report_count:
            failures.append(f"{result.report_count} reports, expected 0")
        return failures

    program = BenchProgram("fib-tasks", racy=False, entry=entry,
                           source_file="fib.c", expected={"taskgrind": "TN"})
    return [Job(program, 4, derive_seeds("fib-tasks", seed, 1)[0], check, out)]


# ---------------------------------------------------------------------------
# lulesh-deps: dependence DAG, the paper's Taskgrind configuration
# ---------------------------------------------------------------------------

def lulesh_jobs(seed: int) -> List[Job]:
    out: dict = {}
    machine_seed = derive_seeds("lulesh-deps", seed, 1)[0]
    reference: Dict[str, float] = {}

    def entry(env) -> None:
        out["mesh"] = run_lulesh(env, LULESH)

    def reference_energy() -> float:
        """The origin energy of an uninstrumented run (computed once)."""
        if "energy" not in reference:
            box: dict = {}
            plain = BenchProgram(
                "lulesh-plain", racy=True, source_file="lulesh.cc",
                entry=lambda env: box.__setitem__(
                    "mesh", run_lulesh(env, LULESH)))
            run_benchmark(plain, "none", nthreads=1, seed=machine_seed)
            reference["energy"] = box["mesh"].origin_energy()
        return reference["energy"]

    def check(result: RunResult, out: dict) -> List[str]:
        failures = []
        mesh = out["mesh"]
        energy, expected = mesh.origin_energy(), reference_energy()
        if energy != expected:
            failures.append(f"origin energy {energy!r}, uninstrumented "
                            f"run gives {expected!r}")
        if not result.reports:
            failures.append("no reports on the racy configuration")
        bufs = [mesh.fields[name].buf for name in KINEMATICS_READS]
        for report in result.reports:
            for lo, hi in report.ranges.pairs():
                if not any(b.addr <= lo and hi <= b.end for b in bufs):
                    failures.append(f"conflict [{lo:#x}, {hi:#x}) outside "
                                    f"the kinematics inputs")
        return failures

    program = BenchProgram("lulesh-deps", racy=True, entry=entry,
                           source_file="lulesh.cc",
                           expected={"taskgrind": "TP"})
    return [Job(program, 1, machine_seed, check, out)]


# ---------------------------------------------------------------------------
# drb-suite: the 43 Taskgrind cells of Table I, several machine seeds
# ---------------------------------------------------------------------------

def table1_cells() -> List[tuple]:
    """(program with its block's expected cells, threads) per Table I cell."""
    cells = [(p, 4) for p in drb.all_programs()]
    for key, nthreads in (("1t", 1), ("4t", 4)):
        cells += [(dataclasses.replace(p, expected=p.expected[key]), nthreads)
                  for p in tmb.all_programs()]
    return cells


def drb_jobs(seed: int, cells: Optional[List[tuple]] = None) -> List[Job]:
    """Every cell at Table I's own machine seed, where a verdict that
    differs from the paper fails the run, and at ``DRB_SEEDS`` seeds drawn
    from ``seed``, where only an FP cell coming out TN is tolerated, as a
    schedule flip."""
    cells = table1_cells() if cells is None else cells
    seeds = [(TABLE1_SEED, True)] + [
        (s, False) for s in derive_seeds("drb-suite", seed, DRB_SEEDS)]
    return [Job(program, nthreads, machine_seed, strict=strict)
            for machine_seed, strict in seeds
            for program, nthreads in cells]


# ---------------------------------------------------------------------------
# access-stream: the per-access path (dispatch, elision, write-combining)
# ---------------------------------------------------------------------------

def stream_jobs(seed: int) -> List[Job]:
    a_vals, b_vals = kernel.make_inputs(seed)
    expected = kernel.reference(a_vals, b_vals)
    out: dict = {}

    def check(result: RunResult, out: dict) -> List[str]:
        failures = []
        n = len(a_vals)
        got = (kernel.read_back(result.machine, out["a"], n),
               kernel.read_back(result.machine, out["b"], n))
        if got != expected:
            failures.append("output arrays differ from the reference")
        if result.report_count:
            failures.append(f"{result.report_count} reports, expected 0")
        return failures

    program = BenchProgram(
        "access-stream", racy=False, source_file="stream.c",
        expected={"taskgrind": "TN"},
        entry=lambda env: kernel.stream_kernel(env, a_vals, b_vals, out))
    # one round trip takes ~30 ms, short enough for host noise to dominate
    return [Job(program, 4, derive_seeds("access-stream", seed, 1)[0],
                check, out, roundtrips=STREAM_ROUNDTRIPS)]


WORKLOADS: Dict[str, Callable[[int], List[Job]]] = {
    "fib-tasks": fib_jobs,
    "lulesh-deps": lulesh_jobs,
    "drb-suite": drb_jobs,
    "access-stream": stream_jobs,
}
