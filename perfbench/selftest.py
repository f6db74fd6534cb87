"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes about 20 seconds.  Checks that:

* every metric the command prints is declared in BENCHMARK.json, with the
  declared unit, for both ``--trace 0`` and ``--trace 1``;
* the workload seed reaches the program: two seeds give different
  drb-suite machine seeds, and the runs use exactly Table I's seed plus
  the derived ones;
* a tampered Table I cell makes the run fail (``correct`` false, exit 1),
  at the derived seeds too, except for the tolerated FP -> TN flip;
* a wrapped layer whose binding is no longer called fails the traced run;
* without the repository's sources the command fails fast and prints no
  result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def pass_of(jobs, seed: int = 0, *flags: str) -> dict:
    """One worker pass over ``jobs``, in this process."""
    with contextlib.redirect_stderr(io.StringIO()):
        return worker.main(["drb-suite", str(seed), *flags], jobs=jobs)


def tampered_pass(measured: str, claimed: str) -> dict:
    """A drb-suite pass over one cell that comes out ``measured``, with
    its Table I cell changed to ``claimed``."""
    program, nthreads = next((p, n) for p, n in workloads.table1_cells()
                             if p.expected.get("taskgrind") == measured)
    program = dataclasses.replace(
        program, expected={**program.expected, "taskgrind": claimed})
    return pass_of(workloads.drb_jobs(0, cells=[(program, nthreads)]))


def test_metric_names_declared() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench("--workload", "drb-suite", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        units = {m["name"]: m["unit"] for m in declared[key]}
        printed = {k: v["unit"] for k, v in doc["metrics"].items()}
        assert printed == units, (trace, set(printed) ^ set(units))
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"]


def test_seed_reaches_program() -> None:
    cells = workloads.table1_cells()[:1]
    seeds = {}
    for seed in (1, 2):
        derived = workloads.derive_seeds("drb-suite", seed,
                                         workloads.DRB_SEEDS)
        doc = pass_of(workloads.drb_jobs(seed, cells=cells), seed)
        used = [workloads.TABLE1_SEED] + derived
        assert doc["machine_seeds"] == used, (doc["machine_seeds"], used)
        seeds[seed] = derived
    assert not set(seeds[1]) & set(seeds[2]), seeds


def test_tampered_cell_fails() -> None:
    # a missed real race fails the run at Table I's seed and the derived ones
    doc = tampered_pass("TP", "FN")
    assert doc["failed"] == 1 + workloads.DRB_SEEDS, doc["failures"]
    assert not doc["flips"], doc["flips"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        # a calibration at the reference speed leaves the times unscaled
        unscaled = {**doc, "loop_s": run.REFERENCE_S}
        code = run.emit("tampered", run.end_to_end([unscaled]),
                        run.summarize([doc]))
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False, result
    accuracy = result["metrics"]["verdict_accuracy"]["value"]
    assert accuracy == 1 - doc["failed"] / doc["attempted"], result


def test_only_fp_to_tn_is_a_flip() -> None:
    # an FP cell that comes out TN fails only at Table I's own seed
    doc = tampered_pass("TN", "FP")
    assert doc["failed"] == 1, doc["failures"]
    assert len(doc["flips"]) == workloads.DRB_SEEDS, doc["flips"]


def test_unwrapped_layer_fails() -> None:
    wrap = spans.SpanRecorder.wrap

    def skip_tool_analysis(self, owner, attr, name, **kwargs):
        if (getattr(owner, "__name__", ""), attr) \
                != ("repro.core.tool", "find_races_indexed"):
            wrap(self, owner, attr, name, **kwargs)

    spans.SpanRecorder.wrap = skip_tool_analysis
    try:
        doc = pass_of(workloads.drb_jobs(0, workloads.table1_cells()[:1]),
                      0, "--traced")
    finally:
        spans.SpanRecorder.wrap = wrap
    assert any("analysis.find_races under verdict" in p
               for p in doc["span_problems"]), doc["span_problems"]


def test_fails_without_sources() -> None:
    scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "fib-tasks", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=scratch)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(scratch)


def main() -> int:
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    try:
        for test in tests:
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
            else:
                print(f"ok   {test.__name__}")
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(out_dir)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
