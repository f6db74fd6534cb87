"""Time to verdict of Taskgrind on four race-detection workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each measuring process is a fresh
``worker.py`` that runs one pass of the workload through
``repro.bench.runner.run_benchmark``, the ``repro run`` path.  Processes
run one at a time until ``--seconds`` are used.  End-to-end times are
scaled to a reference host speed (``hostspeed.py``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of one traced
pass next to an untraced pass of the same inputs.  The last line of
standard output is one JSON object; the exit code is 1 when an outcome
check failed and 2 when the benchmark could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from hostspeed import REFERENCE_S, calibrated
from spans import SELF_TIME_METRICS
from worker import SETUP_BEGIN, SETUP_END, pin_to_one_cpu

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("fib-tasks", "lulesh-deps", "drb-suite", "access-stream")
#: fewest measuring processes per run, so set-up has more than one sample
#: even when a pass is long (a fib-tasks pass takes ~10 s)
MIN_WORKERS = 2
#: hard limit on one run, below the 180 s a run may take
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def start_worker(workload: str, seed: int, flags: List[str],
                 python_flags: Tuple[str, ...] = (),
                 timeout: float = RUN_LIMIT_S) -> Tuple[dict, str]:
    """Run one worker process to completion; returns (doc, stderr)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, *python_flags, WORKER, workload, str(seed), *flags]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    finally:
        # also on SIGTERM (see main): no worker outlives the command
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), stderr


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method; exact for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics over fresh processes
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> List[dict]:
    """Fresh worker processes, one at a time, until ``seconds`` are used.

    Each worker runs between two calibrations; ``doc["loop_s"]`` is their
    mean.  After ``MIN_WORKERS``, a worker is not started when the previous
    one says it would overrun.
    """
    start = time.perf_counter()
    docs: List[dict] = []
    last = 0.0
    while len(docs) < MIN_WORKERS \
            or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        (doc, _), loop_s = calibrated(lambda: start_worker(
            workload, seed, [], timeout=RUN_LIMIT_S - (began - start)))
        doc["loop_s"] = loop_s
        last = time.perf_counter() - began
        docs.append(doc)
    return docs


def end_to_end(docs: List[dict]) -> Dict[str, Tuple[float, int]]:
    """metric -> (value, samples); times at the reference speed."""
    verdicts = sum(len(d["verdict_ms"]) for d in docs)
    roundtrips = sum(d["roundtrips"] for d in docs)
    summary = summarize(docs)

    def median(key: str) -> float:
        return statistics.median(d[key] * REFERENCE_S / d["loop_s"]
                                 for d in docs)

    def pass_quantile(q: int) -> float:
        # per pass, then the median over passes: a burst of host slowness
        # that hits a few workers moves a percentile pooled over all
        # verdicts far more than this
        return statistics.median(
            quantile(d["verdict_ms"], q) * REFERENCE_S / d["loop_s"]
            for d in docs)

    return {
        "setup_s": (median("setup_s"), len(docs)),
        "verdict_s": (median("verdict_s"), len(docs)),
        "verdict_p50_ms": (pass_quantile(50), verdicts),
        "verdict_p90_ms": (pass_quantile(90), verdicts),
        "offline_s": (median("offline_s"), len(docs)),
        "peak_rss_mb": (max(d["peak_rss_mb"] for d in docs), len(docs)),
        "verdict_accuracy": (1 - summary["failed"] / summary["attempted"],
                             summary["attempted"]),
        "offline_match_rate": (
            1 - sum(d["byte_mismatches"] for d in docs) / roundtrips,
            roundtrips),
    }


def wall_notes(docs: List[dict]) -> List[str]:
    """Raw wall-time medians and the calibration loop, for the reader."""
    notes = [f"  wall {k} (raw, median) "
             f"{statistics.median(d[k] for d in docs):.4g} s"
             for k in ("setup_s", "verdict_s", "offline_s")]
    loop = statistics.median(d["loop_s"] for d in docs)
    notes.append(f"  calibration loop (median) {loop * 1e3:.4g} ms, "
                 f"{REFERENCE_S * 1e3:.4g} ms at the reference speed")
    return notes


def summarize(docs: List[dict], problems: List[str] = ()) -> dict:
    """Verdicts attempted, failed and flipped over worker documents; a
    failed consistency check of the traced run counts as one more failure."""
    return {"attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs) + bool(problems),
            "failures": [f for d in docs for f in d["failures"]]
            + list(problems),
            "flips": sorted({f for d in docs for f in d["flips"]})}


def counts_repeat(docs: List[dict]) -> bool:
    """Do the work counts of every pass over the same inputs agree?"""
    first = docs[0]["counts"]
    differing = sorted({k for d in docs[1:] for k in first
                        if d["counts"].get(k) != first[k]})
    if differing:
        print("perfbench: WARNING work counts differ between passes over "
              "the same inputs: " + ", ".join(differing), file=sys.stderr)
    return not differing


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def split_importtime(stderr: str) -> Dict[str, float]:
    """Seconds of set-up imports owned by numpy and by repro.

    Parses ``-X importtime`` lines between the worker's set-up markers.
    Each module's self time goes to the outermost numpy or repro import it
    is nested in (numpy wins), so numpy's share includes what numpy pulls
    in, and repro's share excludes numpy.
    """
    lines = stderr.splitlines()
    try:
        body = lines[lines.index(SETUP_BEGIN) + 1:lines.index(SETUP_END)]
    except ValueError as exc:
        raise BenchError("set-up markers missing from worker stderr") from exc
    rows = []
    for line in body:
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _cum, name = line[len("import time:"):].split("|", 2)
        # one space after the bar, then two per nesting level
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((int(self_us), depth, name.strip()))
    out = {"numpy": 0.0, "repro": 0.0}
    stack: List[str] = []
    # importtime prints children before their parent: walk it backwards so
    # every module is seen after its ancestors
    for self_us, depth, name in reversed(rows):
        del stack[depth:]
        stack.append(name.split(".")[0])
        owner = next((r for r in ("numpy", "repro") if r in stack), None)
        if owner is not None:
            out[owner] += self_us / 1e6
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, seed: int
              ) -> Tuple[Dict[str, Tuple[float, int]], dict]:
    """Traced pass plus an untraced pass of the same inputs."""
    (plain, _), loop_s = calibrated(lambda: start_worker(workload, seed, []))
    traced, stderr = start_worker(workload, seed, ["--traced"],
                                  python_flags=("-X", "importtime"))
    layers, c = traced["layers"], traced["counts"]
    startup = split_importtime(stderr)
    other = traced["setup_s"] - startup["numpy"] - startup["repro"]
    problems = list(traced["span_problems"])
    if other < 0:
        problems.append(f"import split {startup} exceeds set-up time "
                        f"{traced['setup_s']:.4f} s")
    parts = sum(layers[m] for m in SELF_TIME_METRICS.values())
    if abs(parts - layers["traced.verdict_s"]) > 1e-6:
        problems.append(f"layer self times sum to {parts:.6f} s, traced "
                        f"verdict_s is {layers['traced.verdict_s']:.6f} s")
    repeat = counts_repeat([plain, traced])
    n = traced["attempted"]
    values = {
        "startup.numpy_s": startup["numpy"],
        "startup.repro_s": startup["repro"],
        "startup.other_s": other,
        **layers,
        **{k: v for k, v in c.items()
           if k not in ("segments.wc_accesses", "segments.wc_hits")},
        "vex.elision_ratio": ratio(c["vex.elided_accesses"],
                                   c["machine.accesses"]),
        "segments.wc_hit_ratio": ratio(c["segments.wc_hits"],
                                       c["segments.wc_accesses"]),
        "analysis.conflict_ratio": ratio(c["analysis.conflicts"],
                                         c["analysis.candidate_pairs"]),
        "suppress.survival_ratio": ratio(c["suppress.survived"],
                                         c["analysis.conflicts"]),
        "trace.bytes": traced["trace_bytes"],
        "tracing_overhead_s": layers["traced.verdict_s"] - plain["verdict_s"],
        "wall.setup_s": plain["setup_s"],
        "wall.verdict_s": plain["verdict_s"],
        "host.calibration_ms": loop_s * 1e3,
        "verdict_error_rate": ratio(traced["failed"], n),
        "schedule_flip_rate": ratio(len(traced["flips"]), n),
        "offline_mismatch_rate": ratio(traced["byte_mismatches"],
                                       traced["roundtrips"]),
        "counts_repeat": float(repeat),
    }
    return ({k: (v, n) for k, v in values.items()},
            summarize([plain, traced], problems))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the calibration loop runs on the CPU the workers pin themselves to
    pin_to_one_cpu()
    # unwinds through start_worker, which stops the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, summary = per_layer(args.workload, args.seed)
            notes: List[str] = []
        else:
            docs = measure(args.workload, args.seed, args.seconds)
            metrics, summary = end_to_end(docs), summarize(docs)
            notes = wall_notes(docs)
            counts_repeat(docs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench-out"))
        except OSError:
            pass
    return emit(f"{args.workload} seed {args.seed} "
                f"({'traced' if args.trace else 'untraced'})",
                metrics, summary, notes)


def declared_units() -> Dict[str, str]:
    """metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["end_to_end"] + doc["per_layer"]}


def emit(title: str, metrics: Dict[str, Tuple[float, int]],
         summary: dict, notes: List[str] = ()) -> int:
    """Print the metrics and the result line; returns the exit code."""
    units = declared_units()
    for failure in summary["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for flip in summary["flips"]:
        print(f"perfbench: schedule flip {flip}", file=sys.stderr)
    print(f"{title}:")
    for name, (value, samples) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} n={samples}")
    for note in notes:
        print(note)
    if summary["flips"]:
        print(f"  {len(summary['flips'])} Table I FP cell(s) came out TN at "
              "derived seeds (schedule flips; listed on stderr)")
    correct = summary["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
