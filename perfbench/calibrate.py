"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over minutes (a neighbour's load, a different physical
host).  Raw times therefore compare the hosts, not the code.  So every
timing is taken as process CPU time, which leaves out the time the
virtual CPU was not running this process, and is scaled by a
calibration: fixed kernels that live in the benchmark, not in
``repro``, timed the same way and interleaved with the trials.  A
change to the program moves the trials' CPU time and not the kernels',
so it shows in the scaled figure; a slower host moves both and cancels.

A scaled figure reads as seconds on the reference host, the one whose
kernel times are :data:`REFERENCE_S`.

Kernels:

``py``
    A small discrete-event loop in pure Python: a heap of timestamped
    events, ``__slots__`` objects, dict lookups and method calls, the
    shape of the simulator's inner loop.
``np``
    Float32 matrix products and arg-reductions of the size the vision
    matcher screens with.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import process_time
from typing import Callable, Optional, Sequence

#: CPU seconds of one run of each kernel on the reference host (a
#: 2-vCPU KVM guest on a 2.1 GHz Intel Xeon, Python 3.11, numpy 2.4 with
#: single-threaded OpenBLAS).  Only the unit of the scaled figures
#: depends on these; their stability does not.
REFERENCE_S = {"py": 0.0206, "np": 0.0075}


class _Node:
    __slots__ = ("name", "queue", "sent", "table")

    def __init__(self, name: int) -> None:
        self.name = name
        self.queue: list = []
        self.sent = 0
        self.table: dict[int, int] = {}

    def receive(self, now: float, key: int, size: int) -> int:
        self.table[key] = self.table.get(key, 0) + size
        self.queue.append(size)
        if len(self.queue) > 8:
            self.queue.pop(0)
        self.sent += 1
        return (key * 31 + self.name) & 63


def py_kernel(events: int = 20000) -> int:
    nodes = [_Node(i) for i in range(64)]
    heap: list[tuple[float, int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for seq in range(256):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, ((x & 1023) * 1e-3, seq, x & 63, x & 4095))
    seq = 256
    for _ in range(events):
        now, _seq, dst, key = pop(heap)
        hop = nodes[dst].receive(now, key, 1500)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (now + (x & 255) * 1e-5, seq, hop, (key + x) & 4095))
        seq += 1
    return sum(node.sent for node in nodes)


_NP_CACHE: list = []


def np_kernel(rounds: int = 6) -> float:
    if not _NP_CACHE:
        import numpy as np
        rng = np.random.default_rng(7)
        _NP_CACHE.extend(
            rng.standard_normal(shape).astype(np.float32)
            for shape in ((200, 128), (128, 3000)))
    frame, stack = _NP_CACHE
    out = 0.0
    for _ in range(rounds):
        sim = frame @ stack
        out += float(sim.argmax(axis=1).sum()) + float(sim.min())
    return out


KERNELS: dict[str, Callable[[], object]] = {"py": py_kernel,
                                            "np": np_kernel}


class Calibration:
    """Runs a workload's kernel mix and times each run.

    One *chunk* runs every kernel of the mix once; its reference time
    is the sum of their :data:`REFERENCE_S`.
    """

    def __init__(self, kernels: Sequence[str], warmup: int = 4) -> None:
        unknown = set(kernels) - set(KERNELS)
        if not kernels or unknown:
            raise ValueError(
                f"unknown calibration kernels {sorted(unknown)}")
        self.kernels = tuple(kernels)
        self.reference_s = sum(REFERENCE_S[k] for k in self.kernels)
        for _ in range(warmup):
            self._chunk()

    def _chunk(self) -> float:
        # The kernels make no reference cycles; with the collector off a
        # chunk never pays for a collection of the program's objects.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = process_time()
            for name in self.kernels:
                KERNELS[name]()
            return process_time() - t0
        finally:
            if enabled:
                gc.enable()

    def run(self, chunks: int) -> list[float]:
        """Run ``chunks`` chunks; returns their CPU times."""
        return [self._chunk() for _ in range(chunks)]

    def chunks_for(self, cpu_s: Optional[float], share: float) -> int:
        """Chunks that take about ``share`` of ``cpu_s``, at least 2;
        5 when ``cpu_s`` is not known yet."""
        if cpu_s is None:
            return 5
        return max(2, round(share * cpu_s / self.reference_s))

    def slowness(self, times: Sequence[float]) -> float:
        """How much slower than the reference host ``times`` ran."""
        return statistics.fmean(times) / self.reference_s
