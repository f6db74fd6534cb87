"""Verdict stability across schedules (seed-sensitivity study).

The paper's Table I prints ``FN/TP`` for Archer on TMB 1001@4T — an explicit
admission that some verdicts depend on the observed schedule — and its
Table II reports Archer's LULESH counts as a *range* over runs.  This
harness quantifies that: it reruns every Table I cell over N seeds and
reports, per (benchmark, tool), the set of verdicts observed.

``tests/bench/test_stability.py`` checks, over seeds 0–4 only, that the
segment-graph tools (TaskSanitizer, ROMP, Taskgrind) keep one verdict per
cell — their analysis is of the logical graph — while Archer, a
happens-before detector over the *observed* ordering, flips.  That is not
a claim for all seeds: ``perfbench/README.md`` records Taskgrind FP cells
at 4 threads that come out TN at other machine seeds, where the schedule
cuts the segment graph differently.

Usage: ``python -m repro.bench.stability [--seeds 8] [--tools archer]``
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.bench import drb, tmb
from repro.bench.runner import run_benchmark
from repro.util.tables import render_table

DEFAULT_TOOLS = ("tasksanitizer", "archer", "romp", "taskgrind")


def run_stability(seeds: int = 8, tools=DEFAULT_TOOLS
                  ) -> Dict[Tuple[str, str, int], Set[str]]:
    """(program, tool, nthreads) -> set of verdict strings over seeds."""
    out: Dict[Tuple[str, str, int], Set[str]] = defaultdict(set)
    jobs = [(p, 4) for p in drb.all_programs()]
    jobs += [(p, 1) for p in tmb.all_programs()]
    jobs += [(p, 4) for p in tmb.all_programs()]
    for program, nthreads in jobs:
        for tool in tools:
            for seed in range(seeds):
                result = run_benchmark(program, tool, nthreads=nthreads,
                                       seed=seed)
                out[(program.name, tool, nthreads)].add(result.cell())
    return out


def unstable_cells(stability: Dict[Tuple[str, str, int], Set[str]]
                   ) -> List[Tuple[str, str, int, Set[str]]]:
    return [(name, tool, nthreads, verdicts)
            for (name, tool, nthreads), verdicts in sorted(stability.items())
            if len(verdicts) > 1]


def render(stability: Dict[Tuple[str, str, int], Set[str]],
           seeds: int) -> str:
    flips = unstable_cells(stability)
    rows = [[name, tool, f"{nthreads}T", "/".join(sorted(verdicts))]
            for name, tool, nthreads, verdicts in flips]
    out = [render_table(["benchmark", "tool", "threads",
                         "verdicts observed"], rows,
                        title=f"Schedule-sensitive cells over {seeds} seeds")]
    per_tool: Dict[str, int] = defaultdict(int)
    for _n, tool, _t, _v in flips:
        per_tool[tool] += 1
    out.append("")
    out.append("flipping cells per tool: " + ", ".join(
        f"{t}: {per_tool.get(t, 0)}" for t in DEFAULT_TOOLS))
    out.append("(segment-graph tools analyze the logical graph and must "
               "report 0 flips; Archer reports what the schedule exposed)")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--tools", nargs="*", default=list(DEFAULT_TOOLS))
    args = parser.parse_args(argv)
    stability = run_stability(seeds=args.seeds, tools=tuple(args.tools))
    print(render(stability, args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
