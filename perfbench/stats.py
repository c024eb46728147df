"""Summary statistics shared by every workload.

Latencies follow one rule everywhere: a failed or refused op has no
latency, so it is counted as missing every latency limit (``inf``); the
tail is the highest percentile that still has at least ``TAIL_BEYOND``
samples strictly above it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail_index(count: int, beyond: int = TAIL_BEYOND) -> int | None:
    """Index into ``count`` ascending samples of the highest percentile with
    at least ``beyond`` samples after it, or ``None`` when there are too
    few samples for any tail."""
    if count <= beyond:
        return None
    return count - beyond - 1


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int

    def describe(self, unit: str = "ms", scale: float = 1e3) -> str:
        return (
            f"p{self.percentile:.1f} of {self.samples} samples "
            f"({TAIL_BEYOND} beyond) = {self.value * scale:.3f} {unit}"
        )


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail | None:
    ordered = sorted(samples)
    index = tail_index(len(ordered), beyond)
    if index is None:
        return None
    return Tail(ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered))


@dataclass
class OpLog:
    """Every op a run attempted: its latency (``None`` when it failed or
    was refused) and whether its output matched the reference."""

    latencies: list[float | None] = field(default_factory=list)
    mismatches: int = 0

    def ok(self, latency: float) -> None:
        self.latencies.append(latency)

    def fail(self) -> None:
        self.latencies.append(None)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def refused(self) -> int:
        return sum(1 for value in self.latencies if value is None)

    @property
    def failed(self) -> int:
        """Failed or refused ops plus ops whose output was wrong (an op can
        only be one of the two: a refused op has no output to check)."""
        return self.refused + self.mismatches

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def samples(self) -> list[float]:
        """Latencies with every failed op as ``inf`` (missing every limit)."""
        return [math.inf if value is None else value for value in self.latencies]

    def p50(self) -> float:
        return statistics.median(self.samples()) if self.latencies else math.inf

    def tail(self) -> Tail | None:
        return tail(self.samples())


@dataclass
class Round:
    """One round of work (a sweep, a slice of a corpus, one CLI process):
    its wall time, its ops and the ``t_new`` they summed.  Rounds with the
    same ``key`` do identical work."""

    seconds: float
    log: OpLog
    traced: bool = False
    t_new: int = 0
    key: int = 0


def merged(rounds: list[Round]) -> OpLog:
    log = OpLog()
    for r in rounds:
        log.latencies.extend(r.log.latencies)
        log.mismatches += r.log.mismatches
    return log
