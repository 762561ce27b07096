"""Lightweight statistics counters for the simulator.

Every subsystem (caches, bus, SHU, memory protection) registers named
counters in a :class:`StatsRegistry`; benches and tests read them to
compute the paper's metrics (slowdown, bus-activity increase, transfer
mix).

Hot-path contract (the slow-path optimization, DESIGN.md §6c): event
sources do **not** call :meth:`StatsRegistry.add` per event. They bump
plain integer fields and register a *flusher* with the registry; any
read (``get``/``items``/``as_dict``/``total``) first drains every
registered flusher, so observed values are always exact while the
simulation loop never touches a string-keyed counter.

:class:`Histogram` extends the registry with *distribution* metrics
(miss latency, mask-wait cycles, pad-cache reuse distance, ...) under
the same contract: ``record`` is a plain list append; bucketing,
moments and percentiles materialize only when a reader asks. Counters
and histograms live in separate namespaces — ``as_dict`` stays a pure
counter snapshot so golden stats digests are unaffected by attaching
observability.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Histogram:
    """A power-of-two-bucketed distribution with exact moments.

    ``record`` appends the raw value to a pending list (one list append
    on the recording path, nothing else); any read drains the pending
    values into bucket counts and exact count/sum/min/max. Bucket ``b``
    holds values whose ``bit_length()`` is ``b`` — bucket 0 is exactly
    the value 0, bucket ``b`` spans ``[2**(b-1), 2**b - 1]`` — so cycle
    latencies from 1 to 2**63 fit in 65 buckets with ≤2x resolution.
    """

    __slots__ = ("name", "_pending", "_counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str):
        self.name = name
        self._pending: List[int] = []
        self._counts: List[int] = [0] * 65
        self.count = 0
        self.total = 0
        self.minimum: Optional[int] = None
        self.maximum = 0

    # -- recording (hot side) ------------------------------------------

    def record(self, value: int) -> None:
        self._pending.append(value)

    def record_many(self, values) -> None:
        self._pending.extend(values)

    # -- reading (drains first) ----------------------------------------

    def _drain(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        counts = self._counts
        for value in pending:
            if value < 0:
                value = 0
            counts[value.bit_length()] += 1
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        self._drain()
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def _bucket_bounds(bucket: int) -> Tuple[int, int]:
        if bucket == 0:
            return 0, 0
        return 1 << (bucket - 1), (1 << bucket) - 1

    def buckets(self) -> List[Tuple[int, int, int]]:
        """Non-empty ``(low, high, count)`` buckets, ascending."""
        self._drain()
        return [(*self._bucket_bounds(bucket), count)
                for bucket, count in enumerate(self._counts) if count]

    def percentile(self, fraction: float) -> int:
        """Upper bound of the bucket holding the given quantile.

        A bucketed estimate (within 2x of the exact order statistic);
        0 when nothing was recorded.
        """
        self._drain()
        if not self.count:
            return 0
        rank = fraction * self.count
        cumulative = 0
        for bucket, count in enumerate(self._counts):
            cumulative += count
            if count and cumulative >= rank:
                return min(self._bucket_bounds(bucket)[1], self.maximum)
        return self.maximum

    def summary(self) -> Dict[str, object]:
        """JSON-ready snapshot used by run reports and trace exports."""
        self._drain()
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0,
            "max": self.maximum,
            "mean": round(self.mean, 3),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": [list(bucket) for bucket in self.buckets()],
        }

    def reset(self) -> None:
        self._pending = []
        self._counts = [0] * 65
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = 0

    def __repr__(self) -> str:
        self._drain()
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:.1f})"


class StatsRegistry:
    """A flat namespace of integer counters, addressable by dotted
    names."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._flushers: List[Callable[[], None]] = []
        self._draining = False

    # -- deferred accounting -------------------------------------------

    def register_flusher(self, flush: Callable[[], None]) -> None:
        """Register a callback that drains pending raw counts.

        Components that accumulate events in plain ints (the bus, the
        SENSS layer, memory protection, cache hierarchies) register one
        flusher each; the registry invokes them before any read so
        deferred counts are never observable.
        """
        self._flushers.append(flush)

    def _drain(self) -> None:
        if self._draining or not self._flushers:
            return
        self._draining = True
        try:
            for flush in self._flushers:
                flush()
        finally:
            self._draining = False

    # -- counters ------------------------------------------------------

    def get(self, name: str) -> int:
        """Read a counter's value (0 if it was never touched)."""
        self._drain()
        return self._counters.get(name, 0)

    def add(self, name: str, amount: int = 1) -> None:
        """Bump ``name`` by ``amount``; a zero bump still creates it."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def reset(self) -> None:
        # Drain first so pending raw counts from before the reset do
        # not leak into post-reset reads.
        self._drain()
        counters = self._counters
        for name in counters:
            counters[name] = 0
        for histogram in self._histograms.values():
            histogram.reset()

    # -- histograms ----------------------------------------------------

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        existing = self._histograms.get(name)
        if existing is None:
            existing = Histogram(name)
            self._histograms[name] = existing
        return existing

    def histograms(self) -> Dict[str, Histogram]:
        """All histograms, drained and ready to read."""
        self._drain()
        for histogram in self._histograms.values():
            histogram._drain()
        return dict(self._histograms)

    def histogram_summaries(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready ``{name: summary}`` of every non-empty histogram."""
        return {name: histogram.summary()
                for name, histogram in sorted(self.histograms().items())
                if histogram.count}

    def items(self) -> Iterator[Tuple[str, int]]:
        self._drain()
        counters = self._counters
        for name in sorted(counters):
            yield name, counters[name]

    def as_dict(self) -> Dict[str, int]:
        return {name: value for name, value in self.items()}

    def total(self, prefix: str) -> int:
        """Sum of all counters whose name starts with ``prefix``."""
        self._drain()
        return sum(value for name, value in self._counters.items()
                   if name.startswith(prefix))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v}" for n, v in self.items())
        return f"StatsRegistry({body})"
