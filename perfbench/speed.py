"""Host-speed probes: scale measured times to a fixed reference speed.

The benchmark runs on shared hosts whose CPU speed drifts by 30-50% over
minutes (CPU time moves with wall time, so it is not descheduling).  A fixed
probe runs between consecutive timed items, and an item's time is multiplied
by ``reference_s / probe_s``, with ``probe_s`` the median of the probes
around it: a reported time is the time the item would take on a host that
runs the probe in ``reference_s``.  The probes call nothing in artlab, so a
change to the program cannot move them:

- ``kernel`` (in-process items): a pure-Python integer loop plus
  ``numpy.intersect1d`` on fixed arrays, the two kinds of work artlab does;
- ``startup`` (CLI runs and set-up, which are fresh processes): a fresh
  interpreter that imports numpy.  Process start and imports respond to the
  host differently from in-process compute, so they get their own probe.

The raw (unscaled) times are printed in the summary lines beside the scaled
ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_rng = np.random.default_rng(12345)
_A = _rng.integers(0, 1 << 20, 10_000)
_B = _rng.integers(0, 1 << 20, 10_000)


def kernel_probe() -> float:
    """Seconds one run of the in-process probe kernel takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    np.intersect1d(_A, _B)
    return time.perf_counter() - t0


def startup_probe() -> float:
    """Seconds a fresh interpreter takes now to start and import numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=Path(__file__).parent,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


# name: (probe, its time on a typical run of the 2-CPU x86-64 VM the bounds were set on)
PROBES = {"kernel": (kernel_probe, 0.0042), "startup": (startup_probe, 0.19)}


def warm_up() -> None:
    for _ in range(5):
        kernel_probe()
    startup_probe()


class Bracket:
    """Probes between consecutive timed sections and scales them afterwards.

    ``start()`` probes once and each ``add(raw_s)`` records a section and
    probes again.  ``scaled()`` scales section i by the median of the
    ``2 * WINDOW`` probes around it: single probes jitter by 10-20%, the
    host's speed moves over seconds.
    """

    WINDOW = 8

    def __init__(self, probe: str = "kernel"):
        self._probe, self._reference_s = PROBES[probe]
        self.raw: list[float] = []
        self._probes: list[float] = []

    def start(self) -> None:
        self._probes.append(self._probe())

    def add(self, raw_s: float) -> None:
        self.raw.append(raw_s)
        self._probes.append(self._probe())

    def scaled(self) -> list[float]:
        w, probes = self.WINDOW, self._probes
        return [raw_s * self._reference_s / statistics.median(probes[max(0, i - w + 1):i + w + 1])
                for i, raw_s in enumerate(self.raw)]
