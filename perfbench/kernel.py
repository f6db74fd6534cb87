"""The ``access-stream`` guest kernel and its plain-Python reference.

Chunk tasks sweep two shared heap arrays element by element.  Each element
goes through a private stack temporary: the temporary's accesses are
statically elided (``private=True``), the array accesses are recorded and
mostly merge in the write-combining recorder.  Chunks are disjoint, so the
kernel is race-free and must produce zero reports.

Only the public guest API is used: ``ctx.malloc``, ``ctx.stack_var``,
``env.task``, ``env.taskwait`` and buffer reads and writes.  The harness
reads the results back from simulated memory after the run.
"""

from __future__ import annotations

import random
from typing import List, Tuple

ELEM = 8                 # bytes per array element
N_ELEMS = 16384          # elements per array
N_CHUNKS = 16            # one task per chunk


def make_inputs(seed: int) -> Tuple[List[int], List[int]]:
    """The two input arrays, drawn from ``seed``."""
    rng = random.Random(seed)
    a = [rng.randrange(1 << 20) for _ in range(N_ELEMS)]
    b = [rng.randrange(1 << 20) for _ in range(N_ELEMS)]
    return a, b


def reference(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """What the kernel leaves in the arrays: ``a`` unchanged and
    ``b[i] + 3 * a[i] + 1`` in ``b``."""
    return list(a), [bi + 3 * ai + 1 for ai, bi in zip(a, b)]


def stream_kernel(env, a_vals: List[int], b_vals: List[int], out: dict) -> None:
    """Guest entry: fill the arrays, sweep them in chunk tasks.

    Leaves the two array buffers in ``out`` so the caller can read the
    results back from simulated memory after the run.
    """
    ctx = env.ctx
    n = len(a_vals)
    # half a write-combining ring (8 lines of 64 bytes) of padding puts a[i]
    # and b[i] in different recorder cells, so the sweep hits in both
    a = ctx.malloc(n * ELEM + 512, name="a", elem=ELEM, line=10)
    b = ctx.malloc(n * ELEM, name="b", elem=ELEM, line=11)
    out["a"], out["b"] = a, b
    size = (n + N_CHUNKS - 1) // N_CHUNKS

    def sweep(lo: int, hi: int) -> None:
        with ctx.function("sweep", line=20):
            tmp = ctx.stack_var("tmp", ELEM, elem=ELEM, private=True)
            for i in range(lo, hi):
                tmp.write(0, 3 * a.read(i, line=21) + 1, line=22)
                tmp.write(0, tmp.read(0) + b.read(i, line=23))
                b.write(i, tmp.read(0), line=24)

    def body() -> None:
        for i in range(n):
            a.write(i, a_vals[i], line=12)
        for i in range(n):
            b.write(i, b_vals[i], line=13)
        for lo in range(0, n, size):
            env.task(lambda _tv, lo=lo: sweep(lo, min(lo + size, n)),
                     name="sweep")
        env.taskwait()

    env.parallel_single(body)


def read_back(machine, buf, n: int) -> List[int]:
    """The values a run left in ``buf``, read from simulated memory."""
    space = machine.space
    return [space.load(buf.addr + i * ELEM, ELEM) for i in range(n)]
