"""Pure helpers of the benchmark: percentiles, span self time, failure
accounting, the output precision floor and seeded open-loop arrival
schedules.

Nothing here imports ``repro``; the self-tests in
``perfbench/test_harness.py`` cover every function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
#: Precision floor, in bits relative to an all-zero output: an output
#: is wrong when its mean error exceeds half its cleartext's mean
#: magnitude.  An all-zero or doubled output sits at 0 bits and a negated
#: one at -1.  Served outputs measured at least 3.3 (deep-boot) and 3.9
#: (mlp-open) bits over about 1200 outputs; small outputs keep an
#: absolute error near 0.01, so a higher floor would fail rare small
#: outputs that are right.
FLOOR_BITS = 1.0


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile and sample count behind it."""

    value: float
    percentile: float
    samples: int


def tail(samples: Sequence[float]) -> Optional[Tail]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    With ``n`` samples sorted ascending, the value of rank
    ``k = n - MIN_BEYOND`` has exactly ``MIN_BEYOND`` samples ranked
    after it, so it is the ``100 * k / n``-th percentile.  Returns
    ``None`` (no tail) unless that percentile is above the median, that
    is unless ``n > 2 * MIN_BEYOND``.
    """
    ordered = sorted(samples)
    count = len(ordered)
    rank = count - MIN_BEYOND
    if 2 * rank <= count:
        return None
    return Tail(value=ordered[rank - 1], percentile=100.0 * rank / count, samples=count)


@dataclass(slots=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (a threaded caller); the covered
    part is the union of the children's intervals clipped to the
    parent's, so overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


@dataclass
class Outcomes:
    """Every attempted operation, recorded once.

    An operation either succeeded (``ok``), failed (``fail``: a raised
    error, a refusal the run must not see, a wrong output), or completed
    with a mark (``mark``: a low-precision output, a refusal that is the
    server's designed backpressure).  Failures and marks are tagged.
    """

    attempted: int = 0
    failed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    marks: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, tag: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.errors[tag] = self.errors.get(tag, 0) + count

    def mark(self, tag: str, count: int = 1) -> None:
        self.attempted += count
        self.marks[tag] = self.marks.get(tag, 0) + count

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for mine, theirs in ((self.errors, other.errors), (self.marks, other.marks)):
            for tag, count in theirs.items():
                mine[tag] = mine.get(tag, 0) + count

    @property
    def failed_share(self) -> float:
        """Attempts that failed or were marked, over all attempts."""
        bad = self.failed + sum(self.marks.values())
        return bad / self.attempted if self.attempted else 0.0

    def as_dict(self) -> Dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed_share,
            "errors": dict(sorted(self.errors.items())),
            "marks": dict(sorted(self.marks.items())),
        }


def within_floor(output: np.ndarray, clear: np.ndarray) -> bool:
    """Whether ``output`` is within ``FLOOR_BITS`` of ``clear``: its mean
    error is at most ``2 ** -FLOOR_BITS`` times the mean error of an
    all-zero output, which is the cleartext's mean magnitude."""
    error = float(np.mean(np.abs(np.asarray(output) - clear)))
    return error <= 2.0 ** -FLOOR_BITS * float(np.mean(np.abs(clear)))


def arrival_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds) for one open-loop rung.

    Draws the arrival count at its expectation ``round(rate * seconds)``
    and places the arrivals as sorted uniform offsets in
    ``[0, seconds)``: a Poisson process conditioned on its count, so
    every seed offers exactly the nominal load and only the spacing
    varies.  The rate is folded into the seed, so the rungs of one run
    draw independent schedules.
    """
    count = int(round(rate * seconds))
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(rate * 1000)]))
    return np.sort(rng.uniform(0.0, seconds, count))
