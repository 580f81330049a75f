"""Machine speed, measured with a fixed chunk of pure-Python work.

On a shared 2-core host the same code runs up to a third slower for seconds
or minutes at a time, when other tenants load the cores; process CPU time
slows just as wall time does. The benchmark therefore times a fixed chunk of
work between its timed calls and scales every end-to-end time to the speed
at which the chunk takes ``REFERENCE_CHUNK_S``. The chunk runs no code of
the program (heap pushes and pops of tuples, dict inserts with tuple keys,
bytes indexing and float math, the operation mix of a search), so a change
to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import multiprocessing
import statistics
import time

# The chunk's time on the quiet 2-core Xeon box the benchmark was tuned on.
REFERENCE_CHUNK_S = 0.0026

_OCCUPANCY = bytes((i * 37) % 3 == 0 for i in range(4096))


def _chunk() -> float:
    # CPU time of this thread: waiting for a core, when more processes than
    # cores are runnable, does not count.
    t0 = time.thread_time()
    heap, seen, hits = [], {}, 0
    for i in range(700):
        cell = (i % 61, i // 61)
        heapq.heappush(heap, (math.hypot(cell[0] - 30, cell[1] - 6), -i, cell))
        seen[cell, i & 7] = i
        for off in range(0, 64, 8):
            hits += _OCCUPANCY[(i * 31 + off) % 4096]
    while heap:
        heapq.heappop(heap)
    return time.thread_time() - t0


def _sample_until_told(conn, interval_s: float) -> None:
    samples = []
    conn.send("ready")
    while True:
        samples.append(_chunk())
        if conn.poll(interval_s):
            break
    conn.send(samples)
    conn.close()


class Speedometer:
    """Chunk timings of one run; ``factor`` turns a time measured since a
    mark into the time it would have taken at the reference speed."""

    def __init__(self) -> None:
        self.chunk_s: list[float] = []

    def mark(self) -> int:
        return len(self.chunk_s)

    def sample(self, chunks: int = 1) -> float:
        """Time ``chunks`` chunks; returns the seconds they took."""
        t0 = time.perf_counter()
        for _ in range(chunks):
            self.chunk_s.append(_chunk())
        return time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling_alongside(self, interval_s: float = 0.04):
        """Sample from a separate process while the body runs, for work
        that keeps every core busy in other processes."""
        # fork: the benchmark process runs no threads, and unlike spawn it
        # starts no resource-tracker process that would outlive the run.
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe()
        sampler = ctx.Process(
            target=_sample_until_told, args=(child_conn, interval_s), daemon=True
        )
        sampler.start()
        try:
            conn.recv()  # "ready"
            yield
        finally:
            conn.send("stop")
            self.chunk_s.extend(conn.recv())
            sampler.join()
            conn.close()

    def factor(self, mark: int, end: int | None = None) -> float:
        return REFERENCE_CHUNK_S / statistics.fmean(self.chunk_s[mark:end])
