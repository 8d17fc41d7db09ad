"""The root collector: windowed rollups, staleness tagging, MELT bridge.

Batches arriving from the aggregation tree buffer until the window
closes; each close folds the buffered samples into one :class:`Rollup`
per canonical (``mon.``-prefixed) metric — sample counts, staleness
counts, and the mean/max/p99 of the freshest per-source values, plus a
rate for counter probes — and streams them into a
:class:`~repro.monitoring.metricsdb.MetricsDb` and a sweep span on the
:class:`~repro.obs.trace.Tracer`.

Two invariants the test suite enforces:

* **Ingest-order independence** — a window close keeps, per
  ``(metric, source)``, the sample and stale counts and the maximum
  ``(sampled_at, value)``, then walks the distinct keys in sorted order,
  so delivering the same window's batches in any order produces
  bit-identical rollups (the same boundary contract as the
  ``LustreHealthChecker`` partition).
* **Telemetry neutrality** — only ``mon.`` metrics enter rollups;
  mirrored telemetry gauges update the overlay-view gauges (the
  Lesson-12 lag column) and nothing else, so rollups are bit-identical
  with the registry enabled or disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.instruments import get_telemetry
from repro.obs.trace import get_tracer

from repro.obs.overlay.scraper import PROBE_PREFIX, Sample

__all__ = ["Rollup", "CollectorSink"]


@dataclass(frozen=True)
class Rollup:
    """One metric's aggregate over one closed window.

    ``rate`` is the per-second change of the summed per-source values
    since the previous window (0 for gauge metrics and on counter
    resets); ``mean``/``max``/``p99`` summarize the freshest value per
    source inside the window.  All fields are plain values, so rollup
    tuples from identically seeded runs compare equal with ``==``.
    """

    window_end: float
    metric: str
    n_sources: int
    n_samples: int
    n_stale: int
    rate: float
    mean: float
    max: float
    p99: float


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (exact, not binned)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class CollectorSink:
    """Buffers delivered batches and folds them at window close.

    Args:
        rollup_interval: window width in seconds (used for span naming;
            the runtime owns the close schedule).
        staleness_limit: samples older than this at window close are
            tagged stale (they still aggregate — stale beats absent, but
            the operator surface must say so).
        counter_metrics: canonical metric names whose probes are
            monotone counters; these get a ``rate`` in their rollups.
        db: optional :class:`~repro.monitoring.metricsdb.MetricsDb`
            receiving ``overlay.*`` points at every window close.
    """

    def __init__(
        self,
        *,
        rollup_interval: float,
        staleness_limit: float,
        counter_metrics: frozenset[str] = frozenset(),
        db=None,
    ) -> None:
        if rollup_interval <= 0:
            raise ValueError("rollup_interval must be positive")
        if staleness_limit <= 0:
            raise ValueError("staleness_limit must be positive")
        self.rollup_interval = float(rollup_interval)
        self.staleness_limit = float(staleness_limit)
        self.counter_metrics = frozenset(counter_metrics)
        self.db = db
        self.rollups: list[Rollup] = []
        self.n_windows = 0
        self.n_samples = 0
        self.n_stale = 0
        self._buffer: list[Sample] = []
        #: freshest delivered (value, sampled_at) per canonical
        #: (metric, source) — the overlay's current belief
        self._view: dict[tuple[str, str], tuple[float, float]] = {}
        #: freshest mirrored telemetry (value, sampled_at) per
        #: (metric, source) — feeds the Lesson-12 lag gauges only
        self._mirror: dict[tuple[str, str], tuple[float, float]] = {}
        #: previous window's (close time, summed value) per counter metric
        self._counter_last: dict[str, tuple[float, float]] = {}

    # -- ingest ---------------------------------------------------------------

    def deliver(self, samples: tuple[Sample, ...], now: float) -> None:
        """A batch arrived at the root at sim time ``now``; buffer it
        until the window closes.  ``now`` is unused beyond the contract
        that batches for a window arrive before its close."""
        del now
        self._buffer.extend(samples)

    # -- window close ---------------------------------------------------------

    def close_window(self, now: float) -> list[Rollup]:
        """Fold the buffered samples into per-metric rollups at ``now``.

        Returns the new rollups (also appended to :attr:`rollups`).
        One pass over the buffer keeps, per (metric, source), the sample
        count, the stale count and the freshest sample: the maximum
        ``(sampled_at, value)``.  Only the distinct keys are sorted
        afterwards, so the result is independent of batch arrival order
        within the window.
        """
        staleness_limit = self.staleness_limit
        # per (metric, source): [samples, stale, sampled_at, value]
        fold: dict[tuple[str, str], list] = {}
        for metric, source, value, sampled_at in self._buffer:
            stale = now - sampled_at > staleness_limit
            entry = fold.get((metric, source))
            if entry is None:
                fold[(metric, source)] = [1, stale, sampled_at, value]
                continue
            entry[0] += 1
            entry[1] += stale
            if (sampled_at, value) >= (entry[2], entry[3]):
                entry[2] = sampled_at
                entry[3] = value
        self._buffer.clear()

        # Sorted keys: the view, the mirror and the per-metric value
        # lists fill in (metric, source) order whatever the arrivals.
        per_metric: dict[str, tuple[list[int], list[float]]] = {}
        for key in sorted(fold):
            n, stale, sampled_at, value = fold[key]
            metric = key[0]
            if not metric.startswith(PROBE_PREFIX):
                self._mirror[key] = (value, sampled_at)
                continue
            self._view[key] = (value, sampled_at)
            counts, values = per_metric.setdefault(metric, ([0, 0], []))
            counts[0] += n
            counts[1] += stale
            values.append(value)

        new_rollups = []
        for metric, ((n_samples, n_stale), fresh) in per_metric.items():
            values = sorted(fresh)
            rate = 0.0
            if metric in self.counter_metrics:
                total = sum(values)
                last = self._counter_last.get(metric)
                if last is not None:
                    t_last, v_last = last
                    dt = now - t_last
                    # A negative delta is a counter reset (a replaced
                    # cable, a restarted MDS): restart the window.
                    if dt > 0 and total >= v_last:
                        rate = (total - v_last) / dt
                self._counter_last[metric] = (now, total)
            rollup = Rollup(
                window_end=now,
                metric=metric,
                n_sources=len(values),
                n_samples=n_samples,
                n_stale=n_stale,
                rate=rate,
                mean=sum(values) / len(values),
                max=values[-1],
                p99=_percentile(values, 99.0),
            )
            new_rollups.append(rollup)
            self.n_samples += n_samples
            self.n_stale += n_stale
        self.rollups.extend(new_rollups)
        self.n_windows += 1

        if self.db is not None:
            for r in new_rollups:
                self.db.insert(f"overlay.{r.metric}.mean", "overlay",
                               now, r.mean)
                self.db.insert(f"overlay.{r.metric}.max", "overlay",
                               now, r.max)
                self.db.insert(f"overlay.{r.metric}.p99", "overlay",
                               now, r.p99)
                if r.metric in self.counter_metrics:
                    self.db.insert(f"overlay.{r.metric}.rate", "overlay",
                                   now, r.rate)
            self.db.insert("overlay.window.samples", "overlay", now,
                           float(sum(r.n_samples for r in new_rollups)))
            self.db.insert("overlay.window.stale", "overlay", now,
                           float(sum(r.n_stale for r in new_rollups)))

        self._publish_view_gauges(now)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                f"sweep:{self.n_windows - 1}", "overlay",
                now - self.rollup_interval, now,
                samples=sum(r.n_samples for r in new_rollups),
                stale=sum(r.n_stale for r in new_rollups),
                metrics=len(new_rollups))
        return new_rollups

    def _publish_view_gauges(self, now: float) -> None:
        """Expose the mirrored layer view (load + age) as telemetry
        gauges — the ``overlay.view.*`` surface the Lesson-12 report
        diffs against ground truth."""
        telemetry = get_telemetry()
        if not telemetry.enabled or not self._mirror:
            return
        for metric, source in sorted(self._mirror):
            value, sampled_at = self._mirror[(metric, source)]
            if metric == "flow.layer.load":
                telemetry.gauge("overlay.view.load", source).set(value)
                telemetry.gauge("overlay.view.age_seconds", source).set(
                    now - sampled_at)
            elif metric == "flow.layer.capacity":
                telemetry.gauge("overlay.view.capacity", source).set(value)

    # -- queries --------------------------------------------------------------

    def view(self) -> dict[tuple[str, str], tuple[float, float]]:
        """The overlay's current belief: freshest delivered ``(value,
        sampled_at)`` per canonical (metric, source)."""
        return dict(self._view)

    def latest_rollups(self) -> list[Rollup]:
        """The rollups of the most recently closed window (metric-sorted)."""
        if not self.rollups:
            return []
        last_end = self.rollups[-1].window_end
        return [r for r in self.rollups if r.window_end == last_end]
