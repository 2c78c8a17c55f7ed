"""Scale measured times by how fast the host runs while they are measured.

On a shared host the same code can run twice as slowly from one minute to
the next, and the speed changes within seconds: the CPU runs slower, the
process does not wait (CPU time grows with wall time, steal time stays
near zero). A probe timed before and after a grid misses changes during
it. So ``HostSpeed`` runs a ~5 ms reference computation from a timer
signal every ``PERIOD_S`` while the measured code runs, on the same thread,
and reports

    scaled s = (wall s - time spent in probes) * NOMINAL_S / mean probe s

that is, seconds on a host on which the probe takes ``NOMINAL_S``.

The probe never calls the program, so a change to the program does not
change it. It mixes the kinds of work the program does, in roughly the
program's shapes: small dense matrix products and elementwise functions
(the MLP's forward and backward passes), short numpy calls driven by a
Python loop (the server's pairwise cosines), and copies of a K x K matrix.
Python runs signal handlers between bytecodes, on the main thread, so the
probe never interrupts a numpy call and never touches the program's state.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Optional

import numpy as np

# One probe's wall time on a quiet 2-vCPU Intel Xeon guest, one BLAS thread.
NOMINAL_S = 0.005
PERIOD_S = 0.2

_RNG = np.random.Generator(np.random.PCG64(20231209))
_X = _RNG.standard_normal((384, 8))
_WEIGHTS = [_RNG.standard_normal((8, 32)) * 0.3] + [_RNG.standard_normal((32, 32)) * 0.2 for _ in range(3)]
_OUT = _RNG.standard_normal((32, 1)) * 0.2
_VECTORS = [_RNG.standard_normal(3489) for _ in range(20)]
_GOALS = _RNG.uniform(-1.0, 1.0, (100, 100))

MLP_PASSES = 4
MATRIX_COPIES = 60


def _mlp_pass() -> float:
    acts = [_X]
    for w in _WEIGHTS:
        acts.append(np.tanh(acts[-1] @ w))
    probs = 1.0 / (1.0 + np.exp(-(acts[-1] @ _OUT)))
    delta = (probs - 0.5) / len(_X)
    total = float(np.sum(acts[-1].T @ delta))
    delta = (delta @ _OUT.T) * (1.0 - acts[-1] ** 2)
    for i in range(len(_WEIGHTS) - 1, -1, -1):
        total += float(np.sum(acts[i].T @ delta))
        if i:
            delta = (delta @ _WEIGHTS[i].T) * (1.0 - acts[i] ** 2)
    return total


def _cosine_sweep() -> float:
    total = 0.0
    for a in _VECTORS:
        na = np.linalg.norm(a)
        for b in _VECTORS:
            total += float(np.dot(a, b)) / (na * np.linalg.norm(b))
    return total


def _matrix_copies() -> float:
    goals = _GOALS
    for n in range(MATRIX_COPIES):
        goals = goals.copy()
        goals[n % 100, (n * 7) % 100] = 0.5
    return float(goals[0, 0])


def work() -> float:
    """One probe's computation; returns a checksum so nothing is skipped."""
    total = sum(_mlp_pass() for _ in range(MLP_PASSES))
    return total + _cosine_sweep() + _matrix_copies()


def _timed_work() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class HostSpeed:
    """Context manager that probes the host every ``PERIOD_S`` of wall time.

    Used around one measurement at a time, on the main thread; it restores
    the previous SIGALRM handler and timer on exit.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._saved = None
        self._after: Optional[float] = None

    def _probe(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        work()
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)

    def __enter__(self) -> "HostSpeed":
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def spent(self) -> tuple[float, float]:
        """Wall and CPU seconds spent in probes so far."""
        return sum(self.wall), sum(self.cpu)

    def probe_s(self) -> float:
        """Mean probe wall time; a measurement shorter than one period is
        scaled by a probe taken after it."""
        if not self.wall:
            self._after = self._after or _timed_work()
            return self._after
        return statistics.fmean(self.wall)

    def scale(self, seconds: float) -> float:
        """Seconds measured on this host as seconds at the nominal speed."""
        return seconds * NOMINAL_S / self.probe_s()
