"""How fast the host runs Python right now, probed between operations.

The benchmark shares its cores with other tenants of the host.  When they are
busy, every instruction of a single-threaded Python program takes longer: the
probe below takes a median 2 ms over a quiet run and 4 ms over a busy one,
and runs a few minutes apart can be either.
The program's timings move with it.  So each operation is followed by a few
runs of a fixed probe, and the harness reports every operation's time at one
reference host speed: its measured time times REFERENCE_S over the mean probe
time around it (see ``HostSpeed.at_reference``).

The probe scores a fixed query against a fixed inverted index in pure Python,
the way ``irfkit.ranking`` does: dict lookups on string keys, float
arithmetic, a sort.  It uses no irfkit code, so a change to the program
cannot move it.  It allocates almost no objects the garbage collector tracks,
so it never pays for a collection of the program's heap.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# The probe's median time in a quiet run on the 2-vCPU Xeon VM the benchmark
# was tuned on; reported times are "as if the probe took this long".
REFERENCE_S = 0.002
# One probe per this much operation time, so the probes sample the host
# evenly over the time the operations ran.
PERIOD_S = 0.1


def _build_index() -> tuple[dict[str, list[tuple[str, int]]], list[tuple[str, float]]]:
    postings = {
        f"term{t}": [(f"doc{(t * 7919 + i * 104_729) % 20_000}", 1 + (t * i) % 9)
                     for i in range(12 + t % 40)]
        for t in range(2_000)
    }
    query = [(f"term{(t * 131) % 2_000}", 1.0 / (1 + t % 5)) for t in range(200)]
    return postings, query


_POSTINGS, _QUERY = _build_index()


def probe() -> list[float]:
    """The fixed work: about 6k postings scored, the top 100 scores sorted."""
    scores: dict[str, float] = {}
    for term, weight in _QUERY:
        for doc, tf in _POSTINGS[term]:
            scores[doc] = scores.get(doc, 0.0) + weight * math.log(1.0 + tf / 2.5)
    return sorted(scores.values(), reverse=True)[:100]


class HostSpeed:
    """Probe times, taken after each operation in proportion to its time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last: list[float] = []  # the probes after the latest operation

    def at_reference(self, seconds: float) -> float:
        """Probe the host after an operation that took ``seconds`` and return
        its time at the reference host speed, judged by the probes just
        before and just after it.  A first, untimed probe brings the probe's
        data back into the caches the operation used."""
        probe()
        taken = []
        for _ in range(1 + int(seconds / PERIOD_S)):
            start = perf_counter()
            probe()
            taken.append(perf_counter() - start)
        around = self.last + taken
        self.last = taken
        self.samples.extend(taken)
        return seconds * REFERENCE_S / statistics.fmean(around)
