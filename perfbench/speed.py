"""Wall times scaled to a reference machine speed.

The benchmark runs on shared virtual CPUs whose speed shifts by tens of
percent within seconds and by up to threefold over minutes, because other
tenants share the host.  Such a shift moves every timing of a run together,
so the benchmark measures it and divides it out: between measured operations
it runs a fixed *calibration slice* of pure-Python work of the same kind the
library does (dicts keyed by strings, JSON rendering, Unicode folding,
trigram sets, small objects, string formatting) at most every ``EVERY_NS``.  Each stretch of time between
two slices is a *block*; its speed factor is the reference slice time over
the mean of the two slices around it.  A reported time is its wall time
times that factor: the time the same work would have taken on a machine
where one slice takes ``REFERENCE_SLICE_NS``.  The library never runs the
calibration code, so a change to the library moves only the measured side.
"""

from __future__ import annotations

import json
import unicodedata
from bisect import bisect_right
from time import perf_counter_ns

# Median slice time on the 2-vCPU Xeon virtual machine the first baseline
# ran on (Python 3.11); it fixes the scale of every reported time.
REFERENCE_SLICE_NS = 4_000_000
SLICE_REPS = 5
EVERY_NS = 100_000_000

_DOC = {
    "kind": "allow",
    "roadmap": [
        {"rule": f"r{i}", "holds": i % 3 == 0, "missing": ["State(x = 1)", 'Other(y ~= "Zoë")']}
        for i in range(40)
    ],
}
_NAMES = ["Renée Lefèvre", "JOSÉ álvarez", "zoë brontë", "Søren Kierkegård"] * 10


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str) -> None:
        self.a = a
        self.b = b


def _calibration_work() -> int:
    table = {str(i): i * 3 for i in range(1000)}
    total = sum(len(key) + value for key, value in table.items())
    total += len(json.dumps(_DOC, sort_keys=True))
    for name in _NAMES:
        folded = unicodedata.normalize("NFC", name).casefold()
        total += len({folded[i:i + 3] for i in range(len(folded) - 2)})
    pairs = [_Pair(i, f"v{i:04d}") for i in range(300)]
    return total + sum(p.a for p in pairs if p.b.endswith("7"))


class SpeedGauge:
    """Calibration slices over one run, and wall times scaled by them."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._factors: list[float] | None = None

    def calibrate(self) -> None:
        start = perf_counter_ns()
        for _ in range(SLICE_REPS):
            _calibration_work()
        self.starts.append(start)
        self.ends.append(perf_counter_ns())
        self._factors = None

    def tick(self) -> None:
        """Run a slice if the last one ended ``EVERY_NS`` ago; call only
        between measured operations."""
        if not self.ends or perf_counter_ns() - self.ends[-1] >= EVERY_NS:
            self.calibrate()

    def factors(self) -> list[float]:
        """Speed factor of each block; block ``k`` lies between slices
        ``k - 1`` and ``k``."""
        if self._factors is None:
            slices = [end - start for start, end in zip(self.starts, self.ends)]
            factors = []
            for k in range(len(slices) + 1):
                near = slices[max(k - 1, 0):k + 1]
                factors.append(REFERENCE_SLICE_NS * len(near) / sum(near) if near else 1.0)
            self._factors = factors
        return self._factors

    def scale(self, start: int, end: int) -> float:
        """Wall time from ``start`` to ``end`` without the calibration slices
        inside it, at reference speed, in ns."""
        factors = self.factors()
        k = bisect_right(self.ends, start)
        total = 0.0
        while start < end:
            stop = min(end, self.starts[k]) if k < len(self.starts) else end
            if stop > start:
                total += (stop - start) * factors[k]
            if k >= len(self.starts):
                break
            start = max(start, self.ends[k])
            k += 1
        return total

    def mean_factor(self, start: int, end: int) -> float:
        """Reference time over wall time for the span from ``start`` to ``end``."""
        inside = sum(
            min(e, end) - max(s, start) for s, e in zip(self.starts, self.ends) if s < end and e > start
        )
        wall = end - start - inside
        return self.scale(start, end) / wall if wall > 0 else 1.0

    def slice_ns(self) -> float:
        """Median slice time of the run."""
        slices = sorted(end - start for start, end in zip(self.starts, self.ends))
        return float(slices[len(slices) // 2]) if slices else 0.0
