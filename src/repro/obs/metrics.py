"""Labelled counters, gauges and histograms with snapshot/reset semantics.

A :class:`MetricsRegistry` is a namespace of named metrics.  Each metric
holds one *series* per distinct label set (``counter.inc(processor="P3")``
and ``counter.inc(processor="P4")`` are independent series of the same
metric), mirroring the Prometheus data model the names are written in:

* ``rundown.idle_seconds{processor="P3"}``
* ``overlap.admitted_total{mapping_kind="identity"}``
* ``run.makespan``

``snapshot()`` returns a plain-dict deep copy decoupled from later
updates; ``reset()`` clears every series while keeping the registered
metric objects (and any references instrumentation holds to them) valid.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_snapshot",
    "worker_registry",
    "flush_counters",
    "merge_counters",
]

LabelKey = tuple[tuple[str, str], ...]


def _key(labels: dict[str, Any]) -> LabelKey:
    # hot path: instrumentation almost always passes zero or one label
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((k, v if type(v) is str else str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class _Metric:
    """Common machinery: a name and a dict of label-keyed series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[LabelKey, Any] = {}
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Drop every series (the metric itself stays registered)."""
        with self._lock:
            self._series.clear()

    def series(self) -> dict[LabelKey, Any]:
        with self._lock:
            return dict(self._series)

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly copy of this metric's state."""
        return {
            "type": self.kind,
            "help": self.help,
            "series": {_label_str(k): self._export(v) for k, v in self.series().items()},
        }

    @staticmethod
    def _export(value: Any) -> Any:
        return value


class Counter(_Metric):
    """Monotonically increasing count; ``inc`` rejects negative deltas."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc by {amount})")
        key = _key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return float(self._series.get(_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label series."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """A value that can move either way (queue depth, in-flight tasks)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return float(self._series.get(_key(labels), 0.0))


class _HistSeries:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bucket_counts = [0] * (n_buckets + 1)  # + overflow


class Histogram(_Metric):
    """Distribution summary: count/sum/min/max plus cumulative buckets."""

    kind = "histogram"

    #: Default bounds suit both second-scale durations and small counts.
    DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0)

    def __init__(self, name: str, help: str = "", buckets: Iterable[float] | None = None) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} bucket bounds must be sorted: {bounds}")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = _key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistSeries(len(self.buckets))
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value
            # first bound with value <= bound; len(buckets) is the overflow slot
            series.bucket_counts[bisect_left(self.buckets, value)] += 1

    def stats(self, **labels: Any) -> dict[str, float]:
        series = self._series.get(_key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": series.count,
            "sum": series.sum,
            "mean": series.sum / series.count if series.count else 0.0,
            "min": series.min if series.count else 0.0,
            "max": series.max if series.count else 0.0,
        }

    def _export(self, series: _HistSeries) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": series.count,
            "sum": series.sum,
            "mean": series.sum / series.count if series.count else 0.0,
            "min": series.min if series.count else 0.0,
            "max": series.max if series.count else 0.0,
        }
        out["buckets"] = {
            **{f"le={b}": n for b, n in zip(self.buckets, series.bucket_counts)},
            "le=+Inf": series.bucket_counts[-1],
        }
        return out


class MetricsRegistry:
    """Named metrics with get-or-create accessors.

    Re-requesting a name returns the existing metric; requesting it as a
    different type raises — a name means one thing for a whole run.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested as {cls.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] | None = None
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        """The registered metric of that name, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Deep-copied state of every metric, keyed by name."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}

    def reset(self) -> None:
        """Clear every metric's series; registrations survive."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()


#: The process-local registry pool workers (and shm attachments) count
#: into.  One per process — keyed by pid so a *forked* pool child does
#: not inherit (and later re-flush) counts the parent accumulated before
#: the fork; the parent's instance doubles as the inline-mode "worker"
#: registry so both execution modes flow through one code path.
_WORKER_REGISTRY: MetricsRegistry | None = None
_WORKER_REGISTRY_PID: int | None = None


def worker_registry() -> MetricsRegistry:
    """The process-global registry for worker-side counters.

    Pool tasks carry no registry of their own, so counters they feed
    (``faults.*``, shm reattach counts) would have nowhere to go.
    Worker-side code counts into this registry instead;
    :func:`flush_counters` drains it exactly once per finished task into
    the task's result envelope, and the parent merges the deltas with
    :func:`merge_counters`.
    """
    global _WORKER_REGISTRY, _WORKER_REGISTRY_PID
    pid = os.getpid()
    if _WORKER_REGISTRY is None or _WORKER_REGISTRY_PID != pid:
        _WORKER_REGISTRY = MetricsRegistry()
        _WORKER_REGISTRY_PID = pid
    return _WORKER_REGISTRY


def flush_counters(registry: MetricsRegistry) -> dict[str, list[list[Any]]]:
    """Drain every counter series into a JSON-able delta and reset them.

    Returns ``{metric name: [[label pairs, value], ...]}`` where label
    pairs are ``[[key, value], ...]``.  Only counters participate —
    deltas of monotonic counts merge associatively across any number of
    workers and flushes; gauges and histograms do not, so they stay
    process-local.  Flushing twice without new increments yields ``{}``,
    which is what makes the exactly-once merge guarantee testable.
    """
    out: dict[str, list[list[Any]]] = {}
    for name in registry.names():
        metric = registry.get(name)
        if not isinstance(metric, Counter):
            continue
        series = metric.series()
        if not series:
            continue
        out[name] = [
            [[list(pair) for pair in key], value] for key, value in sorted(series.items())
        ]
        metric.reset()
    return out


def merge_counters(registry: MetricsRegistry, flushed: dict[str, list[list[Any]]]) -> None:
    """Merge a :func:`flush_counters` delta into ``registry``.

    Counter increments are associative, so merging the same set of
    flushes in any order — completion order, resume order — produces the
    same totals.
    """
    for name, series in flushed.items():
        counter = registry.counter(name)
        for key, value in series:
            counter.inc(float(value), **{k: v for k, v in key})


def render_snapshot(snapshot: dict[str, dict[str, Any]]) -> str:
    """Human-readable one-line-per-series rendering of a snapshot."""
    lines: list[str] = []
    for name, data in snapshot.items():
        series = data.get("series", {})
        if not series:
            lines.append(f"{name}  (no samples)")
            continue
        for labels, value in sorted(series.items()):
            if isinstance(value, dict):  # histogram
                lines.append(
                    f"{name}{labels}  count={value['count']} sum={value['sum']:.6g} "
                    f"mean={value['mean']:.6g} min={value['min']:.6g} max={value['max']:.6g}"
                )
            else:
                lines.append(f"{name}{labels}  {value:.6g}")
    return "\n".join(lines)
