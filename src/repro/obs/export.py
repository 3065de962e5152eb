"""Render metrics snapshots: Prometheus text format, tables, JSON.

The snapshot structure produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` is plain data; this
module turns it into

* the Prometheus text exposition format (``render_prometheus``) — what
  a scrape endpoint or a CI artifact would serve;
* the repo's own table machinery (``render_table`` via
  :func:`repro.reporting.tables.format_table`) — what
  ``repro obs export --format table`` prints;
* JSON (``render_json``) — for programmatic diffing across runs.

Histograms export the full Prometheus triple: cumulative ``_bucket``
series with ``le`` labels (ending at ``+Inf``), ``_sum`` and ``_count``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "EXPORT_FORMATS",
    "render_json",
    "render_prometheus",
    "render_snapshot",
    "render_table",
    "snapshot_rows",
]

EXPORT_FORMATS = ("prometheus", "table", "json")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _format_value(bound)


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """The Prometheus text exposition format for one snapshot."""
    lines: List[str] = []
    for metric in snapshot.get("metrics", []):
        name, kind = metric["name"], metric["kind"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            bounds = list(metric.get("buckets", []))
            for series in metric["series"]:
                labels = series["labels"]
                cumulative = 0
                for bound, count in zip(bounds + [float("inf")], series["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(labels, {'le': _format_bound(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} {_format_value(series['sum'])}"
                )
                lines.append(f"{name}_count{_format_labels(labels)} {series['count']}")
        else:
            for series in metric["series"]:
                lines.append(
                    f"{name}{_format_labels(series['labels'])}"
                    f" {_format_value(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_rows(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten a snapshot to homogeneous rows for ``format_table``.

    Histogram series flatten to one row carrying count/sum/mean; counter
    and gauge series carry their value.  One row per labeled series.
    """
    rows: List[Dict[str, Any]] = []
    for metric in snapshot.get("metrics", []):
        name, kind = metric["name"], metric["kind"]
        for series in metric["series"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(series["labels"].items())
            )
            if kind == "histogram":
                count = series["count"]
                mean = series["sum"] / count if count else 0.0
                rows.append(
                    {
                        "metric": name,
                        "kind": kind,
                        "labels": labels,
                        "value": f"n={count} sum={series['sum']:.6g} mean={mean:.6g}",
                    }
                )
            else:
                rows.append(
                    {
                        "metric": name,
                        "kind": kind,
                        "labels": labels,
                        "value": _format_value(series["value"]),
                    }
                )
    return rows


def render_table(snapshot: Dict[str, Any], title: str = "Metrics snapshot") -> str:
    """Human-readable table via the repo's reporting machinery."""
    # Imported lazily: repro.reporting pulls in the video stack, whose
    # parallel kernels are themselves instrumented through this package.
    from ..reporting.tables import format_table

    return format_table(
        snapshot_rows(snapshot), columns=["metric", "kind", "labels", "value"],
        title=title,
    )


def render_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """The raw snapshot as JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def render_snapshot(snapshot: Dict[str, Any], fmt: str = "prometheus") -> str:
    """Dispatch on format name: one of :data:`EXPORT_FORMATS`."""
    if fmt == "prometheus":
        return render_prometheus(snapshot)
    if fmt == "table":
        return render_table(snapshot)
    if fmt == "json":
        return render_json(snapshot)
    raise ValueError(f"unknown export format {fmt!r}; known: {EXPORT_FORMATS}")
