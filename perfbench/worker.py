"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD SEED [--traced]

Runs one pass of the workload (every job once), round-tripping every job's
trace through ``core.trace`` (``Job.roundtrips`` times), and prints one
JSON document as the last line of standard output.  Its times are raw wall
times.  ``--traced`` records layer spans (see ``spans.py``).  ``src`` must
be on ``PYTHONPATH``.
"""

import time

#: the first statement of the process: ``setup_s`` is measured from here
T0 = time.perf_counter()

import json
import os
import resource
import statistics
import sys

#: brackets the imports that belong to set-up in ``-X importtime`` output
SETUP_BEGIN = "perfbench: setup begin"
SETUP_END = "perfbench: setup end"


def job_counts(result) -> dict:
    """Per-layer work counts from the run's own stats document."""
    stats = result.stats
    graph, supp = stats["graph"], stats["suppress"]
    queries = graph["queries"]
    # the registry delta lists only counters the run touched
    counters = stats["registry"]["counters"]
    return {
        "machine.accesses": stats["record"]["hub"]["accesses"],
        "machine.segments": graph["segments"],
        "machine.edges": graph["edges"],
        "vex.elided_accesses": supp["elided_accesses"],
        "segments.recorded_accesses": stats["record"]["recorded_accesses"],
        "segments.wc_accesses": counters.get("record.wc_accesses", 0),
        "segments.wc_hits": counters.get("record.wc_hits", 0),
        "segments.flush_inserts": counters.get("record.flush_inserts", 0),
        "segments.hb_queries_label": queries["label"],
        "segments.hb_queries_index": queries["index"],
        "segments.hb_queries_dp": queries["dp"],
        "segments.dp_rebuilds": graph["dp_rebuilds"],
        "analysis.candidate_pairs": counters.get("analysis.candidate_pairs", 0),
        "analysis.pairs_ordered": counters.get("analysis.pairs_ordered", 0),
        "analysis.conflicts": counters.get("analysis.conflicts", 0),
        "suppress.drop_stack": supp["stack"],
        "suppress.drop_tls": supp["tls"],
        "suppress.survived": supp["survived"],
        "reports.count": result.report_count,
    }


def main(argv=None, *, jobs=None) -> dict:
    """Run one pass; ``jobs`` replaces the workload's job list (self-tests)."""
    args = sys.argv[1:] if argv is None else argv
    workload, seed = args[0], int(args[1])
    traced = "--traced" in args
    print(SETUP_BEGIN, file=sys.stderr, flush=True)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import workloads
    from repro.bench import runner
    from repro.core import trace
    from repro.core.reports import reports_to_json

    if jobs is None:
        jobs = workloads.WORKLOADS[workload](seed)
    setup_s = time.perf_counter() - T0
    print(SETUP_END, file=sys.stderr, flush=True)

    #: seconds of each round trip, per job
    roundtrips = []
    recorder = spans.SpanRecorder()
    if traced:
        spans.instrument(recorder)
    out_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".perfbench-out")
    trace_path = os.path.join(out_dir, f"{os.getpid()}.trace")

    doc = {"setup_s": setup_s, "verdict_ms": [], "roundtrips": 0,
           "byte_mismatches": 0, "attempted": 0, "failed": 0,
           "failures": [], "flips": [], "machine_seeds": [],
           "trace_bytes": 0, "numpy_verdicts": 0, "counts": {}}
    counts = doc["counts"]
    try:
        for job in jobs:
            call = (job.program, "taskgrind"), {
                "nthreads": job.nthreads, "seed": job.seed,
                "keep_machine": True}
            start = time.perf_counter()
            if traced:
                result = recorder.call("verdict", runner.run_benchmark,
                                       *call, root=True)
            else:
                result = runner.run_benchmark(*call[0], **call[1])
            doc["verdict_ms"].append((time.perf_counter() - start) * 1e3)
            doc["machine_seeds"].append(result.seed)
            failures = job.check(result, job.out)
            cell = result.cell()
            if not job.program.expects("taskgrind", cell):
                message = (f"{job.program.name} at {job.nthreads}T seed "
                           f"{job.seed}: {cell}, expected "
                           f"{job.program.expected['taskgrind']}")
                (doc["flips"] if job.tolerates(cell) else failures).append(
                    message)
            if result.machine is not None:
                os.makedirs(out_dir, exist_ok=True)
                roundtrips.append([])
                differs = False
                for _ in range(job.roundtrips):
                    start = time.perf_counter()
                    trace.save_trace(result.tool_obj, result.machine,
                                     trace_path)
                    graph, view, supp, _stats = trace.load_trace_full(
                        trace_path)
                    loaded = trace.analyze_loaded(graph, view, supp)
                    roundtrips[-1].append(time.perf_counter() - start)
                    if len(roundtrips[-1]) == 1:
                        doc["trace_bytes"] += os.path.getsize(trace_path)
                    os.unlink(trace_path)
                    doc["roundtrips"] += 1
                    if reports_to_json(loaded.reports) \
                            != reports_to_json(result.reports):
                        doc["byte_mismatches"] += 1
                    differs |= workloads.race_identity(loaded.reports) \
                        != workloads.race_identity(result.reports)
                if differs:
                    failures.append(f"{job.program.name} seed {job.seed}: "
                                    f"offline races differ from live ones")
            for key, value in job_counts(result).items():
                counts[key] = counts.get(key, 0) + value
            gauges = result.stats["registry"]["gauges"]
            doc["numpy_verdicts"] += gauges.get("analysis.kernel") == "numpy"
            doc["attempted"] += 1
            doc["failed"] += bool(failures)
            doc["failures"] += failures
    finally:
        recorder.restore()
    if traced:
        doc["layers"] = spans.layer_times(recorder)
        doc["span_problems"] = spans.check_coverage(
            recorder, verdicts=doc["attempted"], roundtrips=doc["roundtrips"],
            numpy_verdicts=doc["numpy_verdicts"],
            survived=counts.get("suppress.survived", 0))
    doc["verdict_s"] = sum(doc["verdict_ms"]) / 1e3
    # a job's round trip takes the median of its repeats
    doc["offline_s"] = sum(statistics.median(r) for r in roundtrips)
    doc["peak_rss_mb"] = peak_rss_mb()
    return doc


def peak_rss_mb() -> float:
    """High-water RSS of this process's own memory, in MiB.

    ``ru_maxrss`` would also count the parent's: Linux carries the high-water
    mark of the forking process across ``exec``, and ``run.py`` holds the
    calibration loop's list.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pin_to_one_cpu() -> None:
    """Run the whole process on one CPU.

    The simulated machine runs one guest thread at a time, so a pass never
    needs a second CPU.  Unpinned, each guest-thread hand-off may wake a
    thread on another virtual CPU, and on a busy host that wake-up is slow
    and erratic: it tripled a drb-suite pass at times (see README.md).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


if __name__ == "__main__":
    pin_to_one_cpu()
    print(json.dumps(main()))
