"""A process-global metrics registry with a Prometheus text encoder.

Design constraints, in decreasing order of importance:

* **Mergeable snapshots.**  The router scatter-gathers per-shard snapshots
  and must be able to sum them into a fleet view; a shard may also restart
  and re-report from zero.  Counters and histogram buckets are therefore
  plain sums, histogram bucket *bounds* are fixed at construction (the
  default log-scale grid is identical in every process), and
  :func:`merge_snapshots` is associative and commutative — asserted by the
  hypothesis tests.
* **Cheap on the hot path.**  One lock per registry, dictionary increments
  under it; a counter bump is a dict lookup and an integer add.  Histograms
  use :func:`bisect.bisect_left` over a small fixed bound tuple.
* **Low-cardinality labels.**  Labels are keyword arguments at observation
  time; each distinct label combination materialises one series.  Callers
  own the cardinality budget (ops, event names, shard ids — never job ids
  or protocol hashes).

Naming convention (documented in ARCHITECTURE.md): every metric is
``repro_<component>_<what>[_total|_seconds]``; ``*_total`` for counters,
``*_seconds`` for latency histograms.  Families of related counters share
one metric name with an ``event`` label (``repro_result_cache_events_total
{event="hits"}``) rather than one metric per event.  The registry is the
only store of process-level counters: the ``stats`` op and ``GET /statsz``
read their blocks from it with :meth:`Counter.counts`.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left

#: The fixed log-scale histogram grid: four buckets per decade from 100 µs
#: to 100 s (solver checks at the short end, whole jobs at the long end).
#: Identical in every process by construction, which is what makes shard
#: snapshots mergeable bucket-by-bucket.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 4.0), 10) for exponent in range(-16, 9)
)


def _labels_key(labels: dict) -> str:
    """The canonical JSON series key of one label combination."""
    return json.dumps(labels, sort_keys=True, separators=(",", ":"))


def _labels_from_key(key: str) -> dict:
    return json.loads(key) if key else {}


class _Metric:
    """Common machinery: one named metric holding labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock):
        self.name = name
        self.help = help
        self._lock = lock
        self._series: dict[str, object] = {}

    def _key(self, labels: dict) -> str:
        for value in labels.values():
            if not isinstance(value, (str, int, float, bool)):
                raise TypeError(f"label values must be scalars, got {value!r}")
        return _labels_key({key: str(value) for key, value in labels.items()})

    def series(self) -> dict:
        """Snapshot of every series (label-key → JSON-clean value)."""
        with self._lock:
            return {key: self._copy_value(value) for key, value in self._series.items()}

    @staticmethod
    def _copy_value(value):
        return value

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class Counter(_Metric):
    """A monotonically increasing sum (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0)

    def total(self) -> float:
        """The sum over every label combination."""
        with self._lock:
            return sum(self._series.values())

    def counts(self, names, label: str = "event") -> dict:
        """``{name: value}`` of the series ``{label: name}`` for each name.

        Zeros included, so a payload built from a counter family keeps its
        shape before the first event.
        """
        with self._lock:
            return {name: self._series.get(self._key({label: name}), 0) for name in names}


class Gauge(_Metric):
    """A point-in-time value; fleet merges sum it (queue depths add up)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[self._key(labels)] = value

    def add(self, amount: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(self._key(labels), 0)


class Histogram(_Metric):
    """Cumulative-bucket histogram over a fixed bound grid.

    A series value is ``{"buckets": [per-bound counts...], "sum": float,
    "count": int}`` where ``buckets[i]`` counts observations ``<=
    bounds[i]`` *non*-cumulatively (the encoder re-cumulates); the overflow
    bucket is implicit in ``count``.  Element-wise addition of two series
    with the same bounds is exact, which is the merge the router relies on.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: threading.RLock, bounds=DEFAULT_BUCKETS):
        super().__init__(name, help, lock)
        self.bounds = tuple(float(bound) for bound in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")

    def observe(self, value: float, **labels) -> None:
        if value != value or value in (math.inf, -math.inf):
            return  # NaN/inf would poison sums; drop silently
        key = self._key(labels)
        index = bisect_left(self.bounds, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"buckets": [0] * len(self.bounds), "sum": 0.0, "count": 0}
                self._series[key] = series
            if index < len(self.bounds):
                series["buckets"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series["count"] if series else 0

    @staticmethod
    def _copy_value(value):
        return {"buckets": list(value["buckets"]), "sum": value["sum"], "count": value["count"]}


class MetricsRegistry:
    """A named collection of metrics with an atomic snapshot.

    ``counter``/``gauge``/``histogram`` are idempotent get-or-create calls
    (module-level metric handles and late lookups both work); re-registering
    a name as a different kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as a {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "", bounds=DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help, bounds=bounds)

    def snapshot(self) -> dict:
        """A JSON-clean, mergeable snapshot of every metric."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in metrics:
            block = {"help": metric.help, "series": metric.series()}
            if isinstance(metric, Histogram):
                block["bounds"] = list(metric.bounds)
                out["histograms"][metric.name] = block
            elif isinstance(metric, Gauge):
                out["gauges"][metric.name] = block
            else:
                out["counters"][metric.name] = block
        return out

    def reset(self) -> None:
        """Zero every series (tests and bench deltas); metrics stay registered."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()


#: The process-global registry every subsystem reports into.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Snapshot algebra: merge and relabel (the router's fleet aggregation)
# ----------------------------------------------------------------------


def _empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(*snapshots: dict) -> dict:
    """Sum snapshots series-wise; associative and commutative.

    Counters and gauges add; histogram series add bucket-by-bucket (bounds
    must agree — they always do, the grid is fixed at construction).  Series
    with different label sets stay distinct, which is how per-shard labelled
    series survive the fleet merge unmixed.
    """
    merged = _empty_snapshot()
    for snapshot in snapshots:
        if not snapshot:
            continue
        for section in ("counters", "gauges"):
            for name, block in snapshot.get(section, {}).items():
                target = merged[section].setdefault(
                    name, {"help": block.get("help", ""), "series": {}}
                )
                if not target["help"]:
                    target["help"] = block.get("help", "")
                for key, value in block.get("series", {}).items():
                    target["series"][key] = target["series"].get(key, 0) + value
        for name, block in snapshot.get("histograms", {}).items():
            bounds = list(block.get("bounds", ()))
            target = merged["histograms"].setdefault(
                name, {"help": block.get("help", ""), "bounds": bounds, "series": {}}
            )
            if not target["help"]:
                target["help"] = block.get("help", "")
            if target["bounds"] != bounds:
                raise ValueError(f"histogram {name!r} bound grids differ across snapshots")
            for key, value in block.get("series", {}).items():
                existing = target["series"].get(key)
                if existing is None:
                    target["series"][key] = {
                        "buckets": list(value["buckets"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                else:
                    existing["buckets"] = [
                        a + b for a, b in zip(existing["buckets"], value["buckets"])
                    ]
                    existing["sum"] += value["sum"]
                    existing["count"] += value["count"]
    return merged


def label_snapshot(snapshot: dict, **labels) -> dict:
    """A copy of ``snapshot`` with ``labels`` stamped onto every series.

    The stamp wins on collision — a router labelling shard snapshots must
    own the ``shard`` label even if a shard (wrongly) set one itself.
    """
    stamp = {key: str(value) for key, value in labels.items()}
    out = _empty_snapshot()
    for section in ("counters", "gauges", "histograms"):
        for name, block in snapshot.get(section, {}).items():
            new_block = {key: value for key, value in block.items() if key != "series"}
            new_block["series"] = {}
            for key, value in block.get("series", {}).items():
                merged_labels = {**_labels_from_key(key), **stamp}
                new_key = _labels_key(merged_labels)
                new_block["series"][new_key] = Histogram._copy_value(value) if (
                    section == "histograms"
                ) else value
            out[section][name] = new_block
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition (and a validating parser for tests/CI)
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []

    def header(name: str, help: str, kind: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")

    for name in sorted(snapshot.get("counters", {})):
        block = snapshot["counters"][name]
        header(name, block.get("help", ""), "counter")
        for key in sorted(block.get("series", {})):
            labels = _labels_from_key(key)
            lines.append(f"{name}{_render_labels(labels)} {_format_value(block['series'][key])}")
    for name in sorted(snapshot.get("gauges", {})):
        block = snapshot["gauges"][name]
        header(name, block.get("help", ""), "gauge")
        for key in sorted(block.get("series", {})):
            labels = _labels_from_key(key)
            lines.append(f"{name}{_render_labels(labels)} {_format_value(block['series'][key])}")
    for name in sorted(snapshot.get("histograms", {})):
        block = snapshot["histograms"][name]
        header(name, block.get("help", ""), "histogram")
        bounds = block.get("bounds", [])
        for key in sorted(block.get("series", {})):
            labels = _labels_from_key(key)
            series = block["series"][key]
            cumulative = 0
            for bound, bucket in zip(bounds, series["buckets"]):
                cumulative += bucket
                bucket_labels = {**labels, "le": _format_value(float(bound))}
                lines.append(f"{name}_bucket{_render_labels(bucket_labels)} {cumulative}")
            inf_labels = {**labels, "le": "+Inf"}
            lines.append(f"{name}_bucket{_render_labels(inf_labels)} {series['count']}")
            lines.append(f"{name}_sum{_render_labels(labels)} {_format_value(series['sum'])}")
            lines.append(f"{name}_count{_render_labels(labels)} {series['count']}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict:
    """A small validating parser for the exposition format.

    Returns ``{metric_name: [(labels_dict, value), ...]}``; raises
    ``ValueError`` on any malformed line.  This is what the CI scrape and
    the load-harness assertions use — it is a *validator*, not a full
    client (no timestamp or exemplar support, which we never emit).
    """
    samples: dict[str, list] = {}
    typed: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"malformed comment line {lineno}: {line!r}")
            if parts[1] == "TYPE":
                if parts[2] in typed:
                    raise ValueError(f"duplicate TYPE for {parts[2]!r} at line {lineno}")
                typed[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line {lineno}: {line!r}")
        raw = match.group("labels")
        labels: dict[str, str] = {}
        if raw:
            consumed = 0
            for label_match in _LABEL_RE.finditer(raw):
                labels[label_match.group(1)] = (
                    label_match.group(2)
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                consumed = label_match.end()
            if raw[consumed:].strip(", ") :
                raise ValueError(f"malformed labels at line {lineno}: {raw!r}")
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples
