"""Tests for trace export + offline analysis (the Section VII pipeline)."""

import json

import pytest

from repro.core.offline import main as offline_main
from repro.core.trace import (_payload_crc, analyze_trace, load_trace,
                              save_trace)


def racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")

    def single_body():
        ctx.line(8)
        env.task(lambda tv: x.write(0, line=9), name="t8")
        ctx.line(11)
        env.task(lambda tv: x.write(0, line=12), name="t11")

    env.parallel_single(single_body)


def stacky_clean(env):
    """Only suppressed (stack-local) conflicts: offline must stay clean."""
    def task_body(tv):
        z = env.ctx.stack_var("z", 8, elem=8)
        z.write(0)

    def make():
        env.task(task_body, annotate_deferrable=True)
        env.task(task_body, annotate_deferrable=True)
        env.taskwait()
    env.parallel_single(make, num_threads=1)


@pytest.fixture
def trace_path(run_taskgrind, tmp_path):
    tool, machine = run_taskgrind(racy_listing)
    path = tmp_path / "run.trace.json"
    save_trace(tool, machine, str(path))
    return str(path), tool


class TestRoundTrip:
    def test_graph_survives(self, trace_path):
        path, tool = trace_path
        graph, view, _flags = load_trace(path)
        orig = tool.builder.graph
        assert len(graph.segments) == len(orig.segments)
        assert graph.edge_count == orig.edge_count
        for a, b in zip(graph.segments, orig.segments):
            assert a.reads.pairs() == b.reads.pairs()
            assert a.writes.pairs() == b.writes.pairs()
            assert a.thread_id == b.thread_id
            assert (a.tls_snapshot is None) == (b.tls_snapshot is None)

    def test_offline_reports_match_online(self, trace_path):
        path, tool = trace_path
        offline = analyze_trace(path)
        assert len(offline) == len(tool.reports) == 1
        assert offline[0].key() == tool.reports[0].key()
        assert offline[0].block_size == tool.reports[0].block_size
        assert str(offline[0].alloc_site) == str(tool.reports[0].alloc_site)

    def test_implicit_task_labels_survive(self, tmp_path):
        """Offline reports name implicit tasks as the live run does
        (``task#1 (implicit)``, not the bare ``implicit#2``)."""
        from repro.bench.runner import _find_program, run_benchmark
        from repro.core.reports import reports_to_json
        program = _find_program("100-task-reference-orig")
        live = run_benchmark(program, "taskgrind", nthreads=4,
                             keep_machine=True)
        assert live.reports
        path = tmp_path / "implicit.json"
        save_trace(live.tool_obj, live.machine, str(path))
        offline = reports_to_json(analyze_trace(str(path)))
        assert "(implicit" in offline
        assert offline == reports_to_json(live.reports)

    def test_all_modes_agree_offline(self, trace_path):
        path, _ = trace_path
        counts = {mode: len(analyze_trace(path, mode=mode))
                  for mode in ("naive", "indexed", "parallel")}
        assert len(set(counts.values())) == 1

    def test_version_gate(self, trace_path, tmp_path):
        path, _ = trace_path
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        bad = tmp_path / "bad.json"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_trace(str(bad))

    def test_version_gate_legacy_doc(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "graph": {}}))
        with pytest.raises(ValueError, match="version"):
            load_trace(str(bad))


class TestSuppressionsOffline:
    def test_stack_suppression_applies_offline(self, run_taskgrind,
                                               tmp_path):
        tool, machine = run_taskgrind(stacky_clean, nthreads=1)
        assert tool.reports == []
        path = tmp_path / "clean.json"
        save_trace(tool, machine, str(path))
        assert analyze_trace(str(path)) == []

    def test_raw_candidates_visible_without_flags(self, run_taskgrind,
                                                  tmp_path):
        tool, machine = run_taskgrind(stacky_clean, nthreads=1)
        path = tmp_path / "clean.json"
        save_trace(tool, machine, str(path))
        lines = open(path).read().splitlines()
        for i, line in enumerate(lines):
            doc = json.loads(line)
            if doc["kind"] == "suppression":
                doc["payload"] = {"suppress_stack": False,
                                  "suppress_tls": False}
                doc["crc"] = _payload_crc(doc["payload"])
                lines[i] = json.dumps(doc)
        raw = tmp_path / "raw.json"
        raw.write_text("\n".join(lines) + "\n")
        assert analyze_trace(str(raw))       # the stack FP reappears


class TestCli:
    def test_text_output(self, trace_path, capsys):
        path, _ = trace_path
        rc = offline_main([path])
        out = capsys.readouterr().out
        assert rc == 1                       # races found -> nonzero
        assert "1 determinacy race(s)" in out
        assert "main.c:8" in out

    def test_json_output(self, trace_path, capsys):
        path, _ = trace_path
        offline_main([path, "--json", "--mode", "parallel"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["error_count"] == 1

    def test_clean_exit_code(self, run_taskgrind, tmp_path, capsys):
        tool, machine = run_taskgrind(stacky_clean, nthreads=1)
        path = tmp_path / "clean.json"
        save_trace(tool, machine, str(path))
        assert offline_main([str(path)]) == 0
