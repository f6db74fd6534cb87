"""The guest access path: one mapping check, one thread lookup per access.

* the ``bisect`` region index against a linear-scan oracle;
* ``clear_range``'s probe and scan branches against each other;
* scalar clearing end to end (frame pop, free, TLS unmap);
* per-access work counted by wrapping the checks in the test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.errors import SegmentationFault
from repro.machine.machine import Machine
from repro.machine.memory import AddressSpace, Region, RegionKind
from repro.machine.program import Buffer, GuestContext
from repro.machine.threads import Scheduler
from repro.vex.tool import Tool

FAR = 1 << 40          # filler keys, far from any tested range


# ---------------------------------------------------------------------------
# region index vs linear scan
# ---------------------------------------------------------------------------

class LinearSpace:
    """The oracle: a plain list of regions, scanned on every lookup."""

    def __init__(self):
        self.regions = []

    def overlaps(self, base, end):
        return any(r.base < end and base < r.end for r in self.regions)

    def region_at(self, addr):
        return next((r for r in self.regions if r.base <= addr < r.end),
                    None)

    def check_mapped(self, addr, size, kind):
        r = self.region_at(addr)
        if r is None or addr + size > r.end:
            raise SegmentationFault(addr, size, kind)
        return r


def outcome(space, addr, size, kind):
    """The region returned, or the fault's fields."""
    try:
        return space.check_mapped(addr, size, kind)
    except SegmentationFault as exc:
        return ("fault", exc.addr, exc.size, exc.kind)


ops = st.lists(st.one_of(
    st.tuples(st.just("map"), st.integers(0, 40).map(lambda k: k * 8),
              st.integers(1, 48)),
    st.tuples(st.just("unmap"), st.integers(0, 50), st.just(0)),
), max_size=30)
probes = st.lists(st.tuples(st.integers(-4, 400), st.integers(0, 40),
                            st.sampled_from(["read", "write"])),
                  max_size=40)


class TestRegionIndex:
    @given(ops, probes)
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_oracle(self, script, accesses):
        space, oracle = AddressSpace(), LinearSpace()
        for step, (op, a, b) in enumerate(script):
            if op == "map":
                region = Region(f"r{step}", a, b, RegionKind.HEAP)
                if oracle.overlaps(region.base, region.end):
                    with pytest.raises(ValueError):
                        space.map_region(region)
                    continue
                space.map_region(region)
                oracle.regions.append(region)
            elif oracle.regions:
                region = oracle.regions.pop(a % len(oracle.regions))
                space.unmap_region(region)
            self.assert_same(space, oracle, accesses)

    @staticmethod
    def assert_same(space, oracle, accesses):
        edges = [(r.end, 0, "read") for r in oracle.regions] + \
            [(r.end - 1, 2, "write") for r in oracle.regions] + \
            [(r.base, 0, "read") for r in oracle.regions]
        for addr, size, kind in accesses + edges:
            assert space.region_at(addr) is oracle.region_at(addr)
            got, want = outcome(space, addr, size, kind), \
                outcome(oracle, addr, size, kind)
            if isinstance(want, Region):
                assert got is want
            else:
                assert got == want

    def test_boundaries_and_gaps(self):
        space = AddressSpace()
        a = space.map_region(Region("a", 0x100, 0x10, RegionKind.HEAP))
        b = space.map_region(Region("b", 0x110, 0x10, RegionKind.HEAP))
        c = space.map_region(Region("c", 0x140, 0x10, RegionKind.HEAP))
        assert space.check_mapped(0x10F, 1, "read") is a
        assert space.check_mapped(0x110, 0, "read") is b     # adjacent start
        assert space.check_mapped(0x14F, 1, "read") is c
        assert space.check_mapped(0x14C, 4, "read") is c
        for addr, size in ((0x10C, 8),      # straddles a|b: two regions
                           (0x120, 1),      # gap
                           (0x150, 0),      # one past the end, size 0
                           (0x150, 1),
                           (0x14C, 5),      # runs off the end
                           (0xFF, 1)):      # below every region
            with pytest.raises(SegmentationFault) as info:
                space.check_mapped(addr, size, "write")
            assert (info.value.addr, info.value.size, info.value.kind) \
                == (addr, size, "write")
        space.unmap_region(b)
        with pytest.raises(SegmentationFault):
            space.check_mapped(0x118, 1, "read")
        assert space.region_at(0x118) is None
        assert space.region_at(0x100) is a


# ---------------------------------------------------------------------------
# clear_range: probe branch vs scan branch
# ---------------------------------------------------------------------------

def store_of(keys, filler=0):
    space = AddressSpace()
    for a in keys:
        space.poke(a, 1, a)
    for i in range(filler):
        space.poke(FAR + i, 1, -1)
    return space


def survivors(space, keys):
    return {a for a in keys if space.peek(a, None) is not None}


class TestClearRange:
    @given(st.sets(st.integers(0, 96), max_size=24), st.integers(0, 96),
           st.integers(0, 64), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, keys, lo, width, pad):
        # padding the store with far keys pushes the call onto the probe
        # branch; unpadded, a range wider than the store takes the scan
        hi = lo + width
        space = store_of(keys, filler=width if pad else 0)
        space.clear_range(lo, hi)
        assert survivors(space, keys) == {a for a in keys
                                          if not lo <= a < hi}
        if pad:
            assert survivors(space, range(FAR, FAR + width)) \
                == set(range(FAR, FAR + width))

    def test_probe_and_scan_agree(self):
        lo, hi = 0x1000, 0x1400
        keys = {lo - 1, lo, lo + 3, lo + 0x101, hi - 1, hi, hi + 5}
        scan = store_of(keys)                    # 7 keys < 1024-byte range
        probe = store_of(keys, filler=hi - lo)   # store bigger than range
        scan.clear_range(lo, hi)
        probe.clear_range(lo, hi)
        assert survivors(scan, keys) == survivors(probe, keys) \
            == {lo - 1, hi, hi + 5}

    def test_empty_range_clears_nothing(self):
        for filler in (0, 4):
            space = store_of({7, 8, 9}, filler=filler)
            space.clear_range(8, 8)
            assert survivors(space, {7, 8, 9}) == {7, 8, 9}


# ---------------------------------------------------------------------------
# scalar clearing end to end
# ---------------------------------------------------------------------------

def run(body, tool=None):
    machine = Machine(seed=0)
    if tool is not None:
        machine.add_tool(tool)
    ctx = GuestContext(machine)
    machine.run(lambda: body(ctx))
    return machine


class TestScalarClearing:
    def test_frame_pop_clears_frame_not_heap(self):
        seen = {}

        def body(ctx):
            with ctx.function("main"):
                heap = ctx.malloc(16, elem=8)
                heap.write(1, 11)
                with ctx.function("f"):
                    x = ctx.stack_var("x", 8, elem=8)
                    x.write(0, 5)
                with ctx.function("g"):
                    y = ctx.stack_var("y", 8, elem=8)
                    seen["alias"] = y.addr == x.addr
                    seen["y"] = y.read(0)
                seen["heap"] = heap.read(1)
        run(body)
        assert seen == {"alias": True, "y": 0, "heap": 11}

    def test_free_clears_block_not_neighbour(self):
        seen = {}

        def body(ctx):
            with ctx.function("main"):
                a = ctx.malloc(16, elem=8)
                b = ctx.malloc(16, elem=8)
                a.write(0, 1)
                b.write(0, 2)
                ctx.free(a)
                space = ctx.machine.space
                seen["a"] = space.load(a.addr, 8)
                seen["b"] = b.read(0)
        run(body)
        assert seen == {"a": 0, "b": 2}

    def test_tls_unmap_clears_block(self):
        machine = Machine(seed=0)
        machine.tls.register_thread(0)
        space = machine.space
        module = machine.tls.open_module(0, 64)
        base = machine.tls.module_base(0, module)
        space.store(base, 8, 3)
        space.store(base + 56, 8, 4)
        machine.tls.close_module(0, module)
        assert space.peek(base) == space.peek(base + 56) == 0
        again = machine.tls.open_module(0, 64)     # recycles the block
        assert machine.tls.module_base(0, again) == base
        assert space.load(base, 8) == space.load(base + 56, 8) == 0


# ---------------------------------------------------------------------------
# per-access work, counted in the test
# ---------------------------------------------------------------------------

class LocCapture(Tool):
    name = "loccap"
    is_dbi = True
    fast_path = True

    def __init__(self):
        super().__init__()
        self.locs = []

    def on_access_raw(self, thread_id, addr, size, is_write, symbol, loc,
                      site=None):
        self.locs.append(loc)


def counting(monkeypatch):
    """Wrap the mapping check and the thread lookup with counters."""
    counts = {"check_mapped": 0, "current": 0}
    check, current = AddressSpace.check_mapped, Scheduler.current

    def counted_check(self, *args):
        counts["check_mapped"] += 1
        return check(self, *args)

    def counted_current(self):
        counts["current"] += 1
        return current(self)

    monkeypatch.setattr(AddressSpace, "check_mapped", counted_check)
    monkeypatch.setattr(Scheduler, "current", counted_current)
    return counts


class TestPerAccessWork:
    @pytest.mark.parametrize("make_tool", [
        LocCapture,
        lambda: TaskgrindTool(TaskgrindOptions()),
    ], ids=["raw-capture", "taskgrind"])
    def test_one_check_one_thread_lookup(self, monkeypatch, make_tool):
        counts = counting(monkeypatch)
        seen = []

        def access(fn):
            before = dict(counts)
            fn()
            seen.append({k: counts[k] - before[k] for k in counts})

        def body(ctx):
            with ctx.function("main", line=1):
                buf = ctx.malloc(32, elem=8)
                access(lambda: buf.write(1, 7, line=3))
                access(lambda: buf.read(1))
                access(lambda: buf.read(2, line=4))
                access(lambda: buf.write(2, None))
        run(body, make_tool())
        assert seen == [{"check_mapped": 1, "current": 1}] * 4

    def test_faulting_access_checks_once(self, monkeypatch):
        counts = counting(monkeypatch)

        def body(ctx):
            with ctx.function("main", line=1):
                wild = Buffer(ctx, 0x10, 16, elem=8)     # nothing mapped
                counts["check_mapped"] = 0
                wild.write(1, 1)
        with pytest.raises(SegmentationFault) as info:
            run(body, LocCapture())
        assert counts["check_mapped"] == 1
        assert (info.value.addr, info.value.size, info.value.kind) \
            == (0x18, 8, "write")

    def test_locations_are_interned(self):
        tool = LocCapture()

        def body(ctx):
            with ctx.function("main", line=1):
                buf = ctx.malloc(32, elem=8)
                buf.write(0, 1, line=5)
                buf.read(1, line=5)
                buf.read(2, line=6)
                buf.write(3, 1, line=5)
        run(body, tool)
        five, five_again, six, five_last = tool.locs
        assert five is five_again is five_last
        assert (five.line, six.line) == (5, 6)
        assert five.function == "main"
