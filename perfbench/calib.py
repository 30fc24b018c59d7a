"""Machine-speed calibration interleaved with the timed section.

This benchmark runs on shared machines whose CPUs drift between faster and
slower states (up to about 1.4x apart) that last from seconds to minutes, so
two timings of the same work can differ by a third. A Calibrator runs a
fixed kernel from a timer signal every PERIOD seconds while the timed
section runs. The kernel does the three kinds of work the package's hot
paths do: coordinate-descent sweeps driven from Python, routing rows down
trees of Python objects, and numpy calls on small arrays. It slows down with
the machine as the program does. Each kernel's duration gives the machine's
slowdown at that moment; the section's wall time, less the time spent in
the kernels, divided by the mean slowdown, is its time at reference speed:
the time it would take on a machine where the kernel takes REF_S.

The kernel uses numpy and nothing of the package, so a change to the
package cannot change what the kernel measures.
"""

import signal
import time

import numpy as np

PERIOD = 0.04     # seconds of wall time between kernels
REF_S = 0.0013    # the kernel's duration at reference speed, by definition

_RNG = np.random.default_rng(12345)
_CD_X = [_RNG.normal(size=512) for _ in range(24)]
_CD_Y = _RNG.normal(size=512)


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")


def _tree(depth):
    node = _Node()
    node.feature = int(_RNG.integers(10))
    node.threshold = float(_RNG.normal())
    node.value = float(_RNG.normal())
    node.left = _tree(depth - 1) if depth else None
    node.right = _tree(depth - 1) if depth else None
    return node


_TREES = [_tree(10) for _ in range(8)]
_ROWS = _RNG.normal(size=(80, 10)).tolist()
_BX = _RNG.normal(size=(16, 10))
_BM = (_RNG.random((16, 10)) < 0.4).astype(np.int8)
_BIG = _RNG.normal(size=(1200, 64))


def kernel() -> float:
    """Fixed work of the three kinds; returns a checksum."""
    # Coordinate descent: a Python loop over small numpy dot products.
    w = np.zeros(len(_CD_X))
    r = _CD_Y.copy()
    for _ in range(4):
        for j, x in enumerate(_CD_X):
            rho = np.dot(x, r) / len(r) + w[j]
            new = float(np.sign(rho) * max(abs(rho) - 0.01, 0.0))
            if new != w[j]:
                r -= (new - w[j]) * x
                w[j] = new
    total = float(w.sum())
    # Tree routing: pointer chasing through 8 trees of 2,047 nodes.
    for root in _TREES:
        for row in _ROWS:
            node = root
            while node.left is not None:
                node = node.left if row[node.feature] <= node.threshold else node.right
            total += node.value
    # Small-array numpy: masking, expansion and pattern keys of a batch.
    for i in range(12):
        observed = np.where(_BM == 1, 0.0, _BX)
        expanded = np.concatenate([observed, _BM.astype(float), observed * _BM], axis=1)
        total += float(expanded.sum()) + int(np.packbits(_BM, axis=1).sum())
        total += float(_BIG[i * 100:(i + 1) * 100].sum())
    return total


class Calibrator:
    """Runs the kernel every PERIOD seconds between start() and stop()."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: list[float] = []   # kernel durations, seconds
        self.spent = 0.0                 # wall time inside the handler
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.samples:  # a section shorter than one period
            self._tick(None, None)

    def clock(self) -> float:
        """perf_counter() less the time spent in kernels so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no kernel ran between the two reads
                return now - spent

    def slowdown(self) -> float:
        """Mean slowdown against reference speed over the samples so far."""
        return len(self.samples) / sum(REF_S / s for s in self.samples)
