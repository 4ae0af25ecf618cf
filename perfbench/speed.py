"""Scale compute times to a reference host speed.

On a shared machine the same pure-Python work takes from 0.75 to 1.5
times its usual time, depending on what the other tenants do, and the
slow spells last from a second to minutes. A benchmark of compute-bound
operations then measures the neighbours. So the compute-bound workloads
time their operations, and every workload its set-ups, in *rounds* with
a fixed probe between any two:
a round's wall time is scaled by how much slower than the reference the
probes on either side of it ran.

The probe is timed in thread CPU time, so waiting for the GIL or for a
core does not count: the program under test cannot make the probe look
slow (and its own times look fast) by keeping this process busy.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

#: Thread CPU seconds the probe takes at the reference speed (a little
#: below its median on a two-core x86_64 machine running Python 3.11).
REFERENCE_SECONDS = 2.0e-3
PROBE_STEPS = 20_000


def probe() -> float:
    """Thread CPU seconds of a fixed loop of integer and dict work."""
    total = 0
    table = {}
    began = time.thread_time()
    for step in range(PROBE_STEPS):
        total += step * step % 7
        table[step & 255] = total
    return time.thread_time() - began


def factors(probes: Sequence[float]) -> List[float]:
    """Scale of each round between consecutive probes: the reference
    probe time over the mean of the probes on either side."""
    return [
        2.0 * REFERENCE_SECONDS / (before + after)
        for before, after in zip(probes, probes[1:])
    ]


class Rounds:
    """Wall times of consecutive rounds, each between two probes.

    Call :meth:`boundary` before the first round, between rounds and
    after the last one.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.walls: List[float] = []
        self._opened: Optional[float] = None

    def boundary(self) -> None:
        if self._opened is not None:
            self.walls.append(time.perf_counter() - self._opened)
        self.probes.append(probe())
        self._opened = time.perf_counter()

    def factors(self) -> List[float]:
        """Scale of each closed round."""
        return factors(self.probes[:len(self.walls) + 1])

    def scaled_elapsed(self) -> float:
        """Wall seconds of all closed rounds at the reference speed."""
        return sum(w * f for w, f in zip(self.walls, self.factors()))
