"""Tests for the vectorized conflict kernel (``analysis_kernel=numpy``).

Property tests pin every numpy primitive to the IntervalSet oracle, and the
end-to-end kernel to the pure-Python analysis pass on random graphs — the
soundness contract of ``analysis_kernel=auto`` picking either freely.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.core import npkernel
from repro.core.analysis import (find_races_indexed, find_races_naive,
                                 find_races_supervised)
from repro.core.npkernel import (KernelContext, build_segment_arrays,
                                 coalesce_arrays, conflict_ranges_arrays,
                                 intersect_arrays, resolve_kernel,
                                 union_arrays)
from repro.core.segments import SegmentGraph
from repro.util.intervals import IntervalSet

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 40)).map(
        lambda t: (t[0], t[0] + t[1])),
    max_size=12)


def to_set(pairs):
    s = IntervalSet()
    for lo, hi in pairs:
        s.add(lo, hi)
    return s


def to_arrays(s: IntervalSet):
    return (np.asarray(s._los, dtype=np.int64),
            np.asarray(s._his, dtype=np.int64))


def make_graph(segments, edges, accesses):
    g = SegmentGraph()
    segs = [g.new_segment(thread_id=i % 4, task=None, kind="task")
            for i in range(segments)]
    for i, j in edges:
        g.add_edge(segs[i], segs[j])
    for idx, lo, hi, w in accesses:
        segs[idx].record(lo, hi - lo, w, None)
    return g


def keys(cands):
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


class TestPrimitives:
    @given(ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_coalesce_matches_intervalset(self, raw):
        oracle = to_set(raw)
        los = np.asarray([lo for lo, _ in raw], dtype=np.int64)
        his = np.asarray([hi for _, hi in raw], dtype=np.int64)
        got_los, got_his = coalesce_arrays(los, his)
        assert got_los.tolist() == oracle._los
        assert got_his.tolist() == oracle._his

    @given(ranges_strategy, ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_intersect_matches_intervalset(self, raw_a, raw_b):
        a, b = to_set(raw_a), to_set(raw_b)
        oracle = a.intersection(b)
        los, his = intersect_arrays(*to_arrays(a), *to_arrays(b))
        assert los.tolist() == oracle._los
        assert his.tolist() == oracle._his

    @given(ranges_strategy, ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_union_matches_intervalset(self, raw_a, raw_b):
        a, b = to_set(raw_a), to_set(raw_b)
        oracle = to_set(list(a.pairs()) + list(b.pairs()))
        los, his = union_arrays(*to_arrays(a), *to_arrays(b))
        assert los.tolist() == oracle._los
        assert his.tolist() == oracle._his

    @given(ranges_strategy, ranges_strategy, ranges_strategy, ranges_strategy)
    @settings(max_examples=150, deadline=None)
    def test_conflict_matches_python_formula(self, w1, r1, w2, r2):
        from repro.core.analysis import _conflict_ranges
        g = make_graph(2, [], [])
        s1, s2 = g.segments
        for lo, hi in w1:
            s1.record(lo, hi - lo, True, None)
        for lo, hi in r1:
            s1.record(lo, hi - lo, False, None)
        for lo, hi in w2:
            s2.record(lo, hi - lo, True, None)
        for lo, hi in r2:
            s2.record(lo, hi - lo, False, None)
        oracle = _conflict_ranges(s1, s2)
        got = conflict_ranges_arrays(s1.np_arrays(), s2.np_arrays())
        if not oracle:
            assert got is None
        else:
            assert got.pairs() == oracle.pairs()

    def test_build_segment_arrays_precomputes_rw(self):
        r, w = to_set([(0, 8), (16, 24)]), to_set([(8, 12)])
        arr = build_segment_arrays(r, w)
        assert arr[4].tolist() == [0, 16]       # rw = r ∪ w coalesced
        assert arr[5].tolist() == [12, 24]


@st.composite
def graph_strategy(draw):
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda t: t[0] < t[1]), max_size=8))
    accesses = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 60),
                  st.integers(1, 16), st.booleans()),
        min_size=1, max_size=24))
    return n, edges, [(i, lo, lo + sz, w) for i, lo, sz, w in accesses]


class TestKernelParity:
    @given(graph_strategy())
    @settings(max_examples=120, deadline=None)
    def test_numpy_equals_python_on_random_graphs(self, spec):
        n, edges, accesses = spec
        g1 = make_graph(n, edges, accesses)
        g2 = make_graph(n, edges, accesses)
        assert keys(find_races_indexed(g1, kernel="python")) == \
            keys(find_races_indexed(g2, kernel="numpy"))

    def test_supervised_numpy_equals_python(self):
        accesses = [(i, (i * 7) % 40, (i * 7) % 40 + 12, i % 2 == 0)
                    for i in range(12)]
        g1 = make_graph(12, [(0, 1), (2, 3)], accesses)
        g2 = make_graph(12, [(0, 1), (2, 3)], accesses)
        a = find_races_supervised(g1, kernel="python")
        b = find_races_supervised(g2, kernel="numpy")
        assert keys(a.candidates) == keys(b.candidates)

    def test_unbatched_fallback_matches(self, monkeypatch):
        # huge addresses overflow the per-pair window: the context must fall
        # back to the per-pair loop and still agree with the oracle
        big = 1 << 50
        accesses = [(0, big, big + 8, True), (1, big + 4, big + 12, True)]
        g1 = make_graph(2, [], accesses)
        g2 = make_graph(2, [], accesses)
        segs = [s for s in g2.segments if s.has_accesses]
        ctx = KernelContext(g2, segs)
        assert not ctx._batched
        assert keys(find_races_indexed(g1, kernel="python")) == \
            keys(find_races_indexed(g2, kernel="numpy"))

    def test_label_overflow_falls_back(self):
        # int64-overflowing order-maintenance labels must not be gathered
        g = make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, True)])
        g._hb_labels = ({s.id: (1 << 80) + s.id for s in g.segments},
                        {s.id: (1 << 81) + s.id for s in g.segments})
        segs = [s for s in g.segments if s.has_accesses]
        ctx = KernelContext(g, segs)
        assert ctx._e is None


class TestResolveKernel:
    def _graph(self):
        return make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, True)])

    def test_explicit_python(self):
        assert resolve_kernel("python", self._graph(), 10_000) == "python"

    def test_auto_small_pair_count_stays_python(self):
        assert resolve_kernel("auto", self._graph(),
                              npkernel.AUTO_MIN_PAIRS - 1) == "python"

    def test_auto_large_pair_count_picks_numpy(self):
        assert resolve_kernel("auto", self._graph(),
                              npkernel.AUTO_MIN_PAIRS) == "numpy"

    def test_explicit_numpy_ignores_pair_count(self):
        assert resolve_kernel("numpy", self._graph(), 1) == "numpy"

    def test_checked_hb_mode_forces_python(self):
        g = self._graph()
        g.hb_mode = "checked"
        assert resolve_kernel("numpy", g, 10_000) == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("cuda", self._graph(), 10)

    def test_checked_numpy_request_degrades_loudly(self):
        # the one surviving fallback: an explicit numpy request on a
        # checked graph runs python and counts the fallback
        from repro.obs.metrics import get_registry
        reg = get_registry()
        g = self._graph()
        g.hb_mode = "checked"
        before = reg.counter("analysis.kernel_fallbacks").value
        assert keys(find_races_indexed(g, kernel="numpy")) \
            == keys(find_races_naive(self._graph()))
        assert reg.counter("analysis.kernel_fallbacks").value == before + 1
        assert reg.gauge("analysis.kernel").value == "python"
