"""Host-speed reference for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by a quarter or more
over minutes, and by a fifth from one second to the next, for reasons outside
the process: other work on the same cores slows the CPU itself, so CPU time
drifts as much as wall time.  To take that drift out, a run also times a
fixed reference kernel through the run, and scales each timed call by
``nominal / kernel time`` around it: the time the call would have taken on a
host that runs the kernel in its nominal time.  A kernel is the benchmark's
own code, Python and numpy only, so a change to mlacalc does not move it; a
change that makes mlacalc slower or faster moves the scaled times as much as
the raw ones.

A host's slowdown hits kinds of work differently, so each timed call is
scaled by a kernel that does its kind of work (layer shares are in
README.md):

``document_kernel``  parses a JSON algebra document into numpy tables, scans
                     all triples of a small table, and fills a table of
                     Python lists: interpreted work, as coset enumeration
                     and small-document validation do (``corpus`` and the
                     probe calls of every workload).
``table_kernel``     one composite gather over an order-512 int64 table, as
                     the axiom and identity scans of ``rung-512`` do.

``Calibrator`` runs one chunk of each of its kernels on a SIGALRM interval
timer, so its samples are spread evenly over the whole run, in the one
process and with no thread.  It keeps the time spent in chunks, so timed
calls can leave it out, and each chunk's start, so a call can be scaled by
the chunks near it.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import statistics
import time
from typing import Callable

import numpy as np

INTERVAL_S = 0.15  # one chunk per interval of wall time
LOCAL_S = 0.5  # a point of a call is scaled by the chunks within this of it
LOCAL_MIN = 3  # fewer chunks than this near a point, and the point is left out

# a small algebra document, as text: 24 elements, a table and a star
_N = 24
_rng = np.random.default_rng(7)
_NAMES = [f"g{i}" for i in range(_N)]
_DOC = json.dumps({
    "elements": _NAMES,
    "table": [[_NAMES[(i * 7 + j * 5) % _N] for j in range(_N)] for i in range(_N)],
    "star": [[_NAMES[int(k)] for k in _rng.permutation(_N)] for _ in range(_N)],
})
_TABLE = np.random.default_rng(12345).integers(0, 512, (512, 512))


def document_kernel() -> int:
    """Interpreted work of the kinds mlacalc does; returns a checksum."""
    acc = 0
    for _ in range(4):
        # parse the document and index its tables, as a validate call does
        doc = json.loads(_DOC)
        index = {s: i for i, s in enumerate(doc["elements"])}
        T = np.array([[index[c] for c in row] for row in doc["table"]])
        S = np.array([[index[c] for c in row] for row in doc["star"]])
        # an associativity-style scan over all triples, as the axiom scans do
        a = np.arange(_N)
        lhs = T[T[:, :, None], a[None, None, :]]
        rhs = T[a[:, None, None], T[None, :, :]]
        acc += int((lhs != rhs).sum()) + int((S[T] == 0).sum())
        # grow and fill a table of Python lists, as coset enumeration does
        table = [[-1] * 4]
        for step in range(1500):
            row = table[step % len(table)]
            col = step & 3
            if row[col] < 0:
                row[col] = len(table)
                table.append([-1] * 4)
            acc += row[col] % 7
        acc += len(table)
    return acc


def table_kernel() -> int:
    """The composite gather T[T[a, b], c] over an order-512 table; a checksum."""
    return int(_TABLE[_TABLE, 7].sum() & 0xFFFF)


# typical in-run chunk times on a shared 2-CPU Xeon VM (Python 3.11, numpy 2.4)
NOMINAL_S = {document_kernel: 0.0055, table_kernel: 0.0018}


class Calibrator:
    """Times each of ``kernels`` once per ``INTERVAL_S`` while running."""

    def __init__(self, kernels: list[Callable[[], int]]) -> None:
        self.kernels = kernels
        self.samples: dict[Callable, list[float]] = {k: [] for k in kernels}
        self.starts: list[float] = []  # perf_counter at the start of each chunk
        self.spent_s = 0.0  # total time inside chunks
        self._running = False

    def _chunk(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        for kernel, times in self.samples.items():
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            times.append(dt)
            self.spent_s += dt

    def start(self) -> None:
        for kernel in self.kernels:
            kernel()  # warm the tables and the code before the first sample
        signal.signal(signal.SIGALRM, self._chunk)
        self._running = True
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    @contextlib.contextmanager
    def paused(self):
        """No chunk runs inside: for waits on a child process, whose own time
        a chunk in this process would not delay."""
        if not self._running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self._arm()

    def scale_over(self, kernel: Callable, start: float, end: float) -> float | None:
        """Mean factor by ``kernel`` over the call [start, end]: at its middle
        for a short call, and at points ``INTERVAL_S`` apart for a long one,
        each from the chunks that started within ``LOCAL_S`` of the point.
        Points with fewer than ``LOCAL_MIN`` chunks are left out; None if all
        are."""
        times = self.samples[kernel]
        points = max(1, round((end - start) / INTERVAL_S))
        factors = []
        for k in range(points):
            t = start + (k + 0.5) * (end - start) / points
            i = bisect.bisect_left(self.starts, t - LOCAL_S)
            j = bisect.bisect_right(self.starts, t + LOCAL_S)
            if j - i >= LOCAL_MIN:
                factors.append(NOMINAL_S[kernel] / statistics.median(times[i:j]))
        return statistics.fmean(factors) if factors else None

    def scale(self, kernel: Callable, since: int = 0) -> float:
        """Factor by ``kernel`` from the chunks timed since the ``since``-th;
        from all of them if none was, and 1.0 if none was timed at all."""
        times = self.samples[kernel]
        chunks = times[since:] or times
        if not chunks:
            return 1.0
        return NOMINAL_S[kernel] / statistics.median(chunks)
